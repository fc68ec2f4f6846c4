//! The cooperative virtual-node scheduler behind [`crate::run_spmd`]:
//! a fixed worker pool multiplexing up to 2^16 node contexts.
//!
//! # Data plane
//!
//! * **Inboxes** — one per *node*, not per link: the paper's schedules
//!   are fixed and known in advance, so a node never has more than a
//!   handful of messages pending, and a queue per directed link (2^20
//!   of them at n = 16, each used once) is the wrong unit of storage.
//!   An [`Inbox`] holds `(port, message)` entries in arrival order —
//!   the oldest inline, later ones in a deque allocated only when a
//!   second message is pending — plus the port its node is parked on.
//!   `recv(p)` takes the oldest entry tagged `p`, which is per-link FIFO
//!   because every link has one sender. On the cube `ports = n` and a
//!   port is a dimension; a message sent across port `p` is tagged with
//!   the receiver's reverse port.
//! * **Want cells** — one atomic per node recording what a suspended
//!   node is waiting for (a port, or a barrier generation). Written
//!   by the node's own `recv`/`barrier` futures while its worker polls
//!   it; read back by that worker to park it, and by the stall detector
//!   to report *which* nodes wait on *which* dims.
//! * **Ready queues and home ranges** — every worker owns a contiguous
//!   range of node ids (its *home* range) and one `VecDeque<u32>` of
//!   runnable ids. A worker spawns its own range lazily through a
//!   [`ClaimCursor`] (the work-claiming machinery of `cubesim::par`),
//!   and a node that becomes runnable is always pushed onto its *home*
//!   worker's queue, whoever woke it — so on a cube only the top
//!   `log2(workers)` dimensions ever cross workers. Idle workers steal
//!   from the front of other queues (half at a time), then claim
//!   unspawned nodes from other ranges, then sleep.
//! * **Worker blocks** — every counter the message path touches
//!   (`messages`, `parks`, `wakes`, `steals`, polls, spawned and
//!   completed contexts) lives in one cache-line-aligned
//!   [`WorkerBlock`] per worker, written only by that worker with a
//!   plain load-add-store and summed by [`crate::RunStats`], the stall
//!   clock and the end-of-run check. No message bumps a shared atomic.
//!
//! # Park/wake protocol (two-phase, no lost wakeups)
//!
//! A `recv` that finds no message for its port does **not** publish
//! anything: it records the port in the node's want cell and returns
//! `Pending`. Only after the worker has finished with the context (its
//! slab lock is released, so any other worker could run it) does the
//! worker *park* the node: re-lock the inbox, re-check for a message
//! *for the awaited port* that raced in (if one did, the node just goes
//! back on its ready queue), otherwise set `parked = Some(port)`. A
//! sender whose message arrives on exactly that port clears the flag
//! and enqueues the receiver; a message for any other port is stored
//! and wakes nobody. Because the flag is only ever set after the
//! context is released, and only the one clearing sender enqueues, each
//! node is owned by at most one worker at a time.
//!
//! # End of run
//!
//! No shared count of finished programs exists to hit the node count. A
//! worker that runs out of work checks, under the sleep lock, whether
//! the workers' `completed` cells sum to it; the one that sees they do
//! ends the run. The sleep lock orders those reads after every earlier
//! sleeper's completions, so the last worker to go idle sees the full
//! sum.
//!
//! # Determinism
//!
//! Results are byte-identical at any worker count because scheduling
//! never influences data: every directed link has exactly one sending
//! node whose messages arrive in its program order, and a `recv` names
//! the one link it consumes from. The scheduler only decides *when* a
//! node runs, never *what* it observes. (Scheduler counters — parks,
//! wakes, steals, `peak_live` — are timing-dependent; message and
//! barrier counts are not.)

use cubesim::par::ClaimCursor;
use cubesync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use cubesync::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use cubetopo::{TopoSpec, Topology};
use std::cell::Cell;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Want-cell value: not waiting on anything scheduler-visible.
pub(crate) const WANT_NONE: u64 = u64::MAX;
/// Want-cell flag bit: waiting on the barrier generation in the low bits.
pub(crate) const WANT_BARRIER: u64 = 1 << 63;

/// Locks a mutex, recovering the guard if a panicking node program
/// poisoned it (the panic itself is propagated separately; diagnostic
/// state behind the lock is still worth reading).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything in flight towards one node: `(port, message)` entries in
/// arrival order, plus the port the node is parked on.
///
/// `first` is the oldest entry and `rest` the later ones (`first` is
/// `None` only when nothing is pending), so the common case of at most
/// one pending message never touches the heap.
pub(crate) struct Inbox<T> {
    first: Option<(u32, T)>,
    rest: VecDeque<(u32, T)>,
    /// The port the node's parked `recv` awaits; cleared by the sender
    /// that delivers on it.
    pub(crate) parked: Option<u32>,
}

impl<T> Inbox<T> {
    fn new() -> Self {
        Inbox { first: None, rest: VecDeque::new(), parked: None }
    }

    /// Appends a message that arrived on `port`.
    pub(crate) fn push(&mut self, port: u32, msg: T) {
        if self.first.is_none() {
            self.first = Some((port, msg));
        } else {
            self.rest.push_back((port, msg));
        }
    }

    /// Removes the oldest message that arrived on `port`. A backlog on
    /// other ports costs one tag comparison per entry ahead of it.
    pub(crate) fn take(&mut self, port: u32) -> Option<T> {
        if matches!(self.first, Some((p, _)) if p == port) {
            let taken = std::mem::replace(&mut self.first, self.rest.pop_front());
            return taken.map(|(_, msg)| msg);
        }
        let at = self.rest.iter().position(|&(p, _)| p == port)?;
        self.rest.remove(at).map(|(_, msg)| msg)
    }

    /// Whether a message that arrived on `port` is pending.
    fn has(&self, port: u32) -> bool {
        self.first.iter().chain(&self.rest).any(|&(p, _)| p == port)
    }
}

/// Global barrier state: a generation counter plus the arrival count and
/// parked waiters of the current episode.
pub(crate) struct BarrierState {
    pub(crate) generation: u64,
    pub(crate) arrived: usize,
    pub(crate) waiters: Vec<u32>,
}

/// Stall-detector clock: the last observed progress count and when it
/// last changed. Guarded by the sleep lock (only idle workers look).
pub(crate) struct StallClock {
    last_progress: u64,
    since: Instant,
}

/// One worker's private state: its share of the unspawned nodes and
/// every counter it bumps. Each cell has a single writer — the owning
/// worker, through [`bump`] — and any number of readers; the alignment
/// keeps two workers' blocks off one cache line (and off its prefetched
/// neighbor).
#[repr(align(128))]
pub(crate) struct WorkerBlock {
    /// Unspawned nodes of the home range: `start + unspawned.claim()`.
    /// The one cell siblings write, when they steal from the range.
    unspawned: ClaimCursor,
    start: usize,
    pub(crate) messages: AtomicU64,
    pub(crate) parks: AtomicU64,
    pub(crate) wakes: AtomicU64,
    pub(crate) steals: AtomicU64,
    /// Polls of node futures; with `wakes` and `messages`, the progress
    /// the stall detector times.
    polls: AtomicU64,
    spawned: AtomicU64,
    completed: AtomicU64,
    /// Largest ensemble-wide live count this worker sampled.
    pub(crate) peak_live: AtomicU64,
}

impl WorkerBlock {
    fn claim(&self) -> Option<u32> {
        self.unspawned.claim().map(|i| (self.start + i) as u32)
    }
}

/// Adds to a single-writer counter cell without a read-modify-write.
pub(crate) fn bump(cell: &AtomicU64, by: u64) {
    cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// Everything the workers and node contexts share for one run.
pub(crate) struct Shared<T> {
    pub(crate) topo: TopoSpec,
    /// Cached `topo.ports()` (`n` on the cube).
    pub(crate) ports: u32,
    pub(crate) num: usize,
    pub(crate) stall_timeout: Duration,

    /// One inbox per node.
    inboxes: Vec<Mutex<Inbox<T>>>,
    /// Per-node wait reason (see [`WANT_NONE`] / [`WANT_BARRIER`]).
    pub(crate) want: Vec<AtomicU64>,
    pub(crate) barrier: Mutex<BarrierState>,
    /// Mirror of `barrier.generation` for lock-free re-polls.
    pub(crate) barrier_generation: AtomicU64,
    pub(crate) barriers: AtomicU64,

    /// Per-worker ready queues of runnable node ids.
    queues: Vec<Mutex<VecDeque<u32>>>,
    pub(crate) blocks: Vec<WorkerBlock>,
    /// Nodes per home range: node `x` is at home on worker `x / range`.
    range: usize,
    sleep: Mutex<StallClock>,
    sleep_cv: Condvar,
    sleepers: AtomicUsize,
    done: AtomicBool,
}

thread_local! {
    /// Which worker of the current run this thread is (set by
    /// [`worker_loop`]): selects the [`WorkerBlock`] whose counters a
    /// send, wake or park on this thread bumps.
    static WORKER: Cell<usize> = const { Cell::new(0) };
}

impl<T> Shared<T> {
    pub(crate) fn new(topo: TopoSpec, workers: usize, stall_timeout: Duration) -> Self {
        let num = topo.num_nodes();
        let range = num.div_ceil(workers);
        let block = |w: usize| {
            let start = (w * range).min(num);
            WorkerBlock {
                unspawned: ClaimCursor::new(((w + 1) * range).min(num) - start),
                start,
                messages: AtomicU64::new(0),
                parks: AtomicU64::new(0),
                wakes: AtomicU64::new(0),
                steals: AtomicU64::new(0),
                polls: AtomicU64::new(0),
                spawned: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                peak_live: AtomicU64::new(0),
            }
        };
        Shared {
            topo,
            ports: topo.ports(),
            num,
            stall_timeout,
            inboxes: (0..num).map(|_| Mutex::new(Inbox::new())).collect(),
            want: (0..num).map(|_| AtomicU64::new(WANT_NONE)).collect(),
            barrier: Mutex::new(BarrierState { generation: 0, arrived: 0, waiters: Vec::new() }),
            barrier_generation: AtomicU64::new(0),
            barriers: AtomicU64::new(0),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            blocks: (0..workers).map(block).collect(),
            range,
            sleep: Mutex::new(StallClock { last_progress: 0, since: Instant::now() }),
            sleep_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            done: AtomicBool::new(false),
        }
    }

    /// Where `node` receives from all of its neighbors.
    pub(crate) fn inbox(&self, node: u64) -> &Mutex<Inbox<T>> {
        &self.inboxes[node as usize]
    }

    /// The calling worker's counter block.
    pub(crate) fn my_block(&self) -> &WorkerBlock {
        &self.blocks[WORKER.with(Cell::get)]
    }

    /// Sums one counter over the workers.
    pub(crate) fn total(&self, cell: impl Fn(&WorkerBlock) -> &AtomicU64) -> u64 {
        self.blocks.iter().map(|b| cell(b).load(Ordering::Relaxed)).sum()
    }

    /// Node programs finished so far. `Acquire` pairs with the `Release`
    /// in [`Shared::note_completed`], so a worker that counts another's
    /// completion also sees the spawns that preceded it.
    fn completed(&self) -> usize {
        self.blocks.iter().map(|b| b.completed.load(Ordering::Acquire)).sum::<u64>() as usize
    }

    /// Records that the calling worker finished a node program, first
    /// sampling the ensemble-wide live count if this worker's own share
    /// of it stands at a new high (`own_high`, the worker's running
    /// maximum) — the moment a peak is about to recede. Spawns are read
    /// before completions, so a sample never exceeds a live count that
    /// really occurred; when no program can finish before all have
    /// started, the first completion anywhere samples exactly `num`.
    fn note_completed(&self, me: &WorkerBlock, own_high: &mut i64) {
        let done = me.completed.load(Ordering::Relaxed);
        let own = me.spawned.load(Ordering::Relaxed) as i64 - done as i64;
        if own > *own_high {
            *own_high = own;
            let spawned = self.total(|b| &b.spawned);
            let live = spawned.saturating_sub(self.completed() as u64);
            if live > me.peak_live.load(Ordering::Relaxed) {
                me.peak_live.store(live, Ordering::Relaxed);
            }
        }
        me.completed.store(done + 1, Ordering::Release);
    }

    /// The worker whose home range holds `node`.
    fn home(&self, node: u32) -> usize {
        node as usize / self.range
    }

    /// Enqueues `node` on its home worker's ready queue and pokes a
    /// sleeper if one might miss it.
    pub(crate) fn push_ready(&self, node: u32) {
        lock(&self.queues[self.home(node)]).push_back(node);
        self.notify_sleepers(false);
    }

    /// Wakes a parked node: the caller already cleared its parked flag
    /// under the inbox lock, so exactly one waker enqueues it.
    pub(crate) fn wake(&self, node: u32) {
        bump(&self.my_block().wakes, 1);
        self.push_ready(node);
    }

    /// Wakes every waiter of a released barrier: one queue lock per home
    /// worker, one notify.
    pub(crate) fn wake_all(&self, mut waiters: Vec<u32>) {
        bump(&self.my_block().wakes, waiters.len() as u64);
        waiters.sort_unstable();
        for run in waiters.chunk_by(|&a, &b| self.home(a) == self.home(b)) {
            lock(&self.queues[self.home(run[0])]).extend(run);
        }
        self.notify_sleepers(true);
    }

    /// Pokes sleeping workers after new work was enqueued. The sleepers
    /// counter is incremented under the sleep lock *before* a sleeper's
    /// queue re-check, and our queue push precedes this load, so a
    /// sleeper that missed the push is guaranteed visible here (both
    /// operations are SeqCst) — no lost wakeup.
    fn notify_sleepers(&self, all: bool) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            drop(lock(&self.sleep));
            if all {
                self.sleep_cv.notify_all();
            } else {
                self.sleep_cv.notify_one();
            }
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Ends the run (all nodes finished, a stall, or a panic) and
    /// releases every sleeping worker.
    pub(crate) fn finish(&self) {
        self.done.store(true, Ordering::Release);
        drop(lock(&self.sleep));
        self.sleep_cv.notify_all();
    }

    /// Parks `node` according to its want cell — phase two of the
    /// suspend protocol, run only after the node's context is released.
    /// Re-checks the awaited condition under its lock; if it was already
    /// satisfied by a racing sender, the node goes straight back on the
    /// ready queue instead.
    pub(crate) fn park(&self, node: u32) {
        let want = self.want[node as usize].load(Ordering::Relaxed);
        if want == WANT_NONE {
            panic!(
                "node {node} suspended on a foreign future; only NodeCtx recv/barrier may suspend"
            );
        }
        if want & WANT_BARRIER != 0 {
            let generation = want & !WANT_BARRIER;
            let mut b = lock(&self.barrier);
            if b.generation > generation {
                drop(b);
                self.push_ready(node);
            } else {
                b.waiters.push(node);
                bump(&self.my_block().parks, 1);
            }
        } else {
            let port = want as u32;
            let mut inbox = lock(self.inbox(node as u64));
            // A backlog on other ports does not count: waking for it
            // would re-poll a `recv` that still has nothing to take.
            if inbox.has(port) {
                drop(inbox);
                self.push_ready(node);
            } else {
                inbox.parked = Some(port);
                bump(&self.my_block().parks, 1);
            }
        }
    }

    /// Finds the next node for worker `w` to run: own queue, then an
    /// unspawned node of its own range, then a steal from another
    /// worker's queue (front half), then an unspawned node of another
    /// range, then sleep. Returns `None` when the run is over.
    pub(crate) fn next_work(&self, w: usize) -> Option<u32> {
        let workers = self.blocks.len();
        let siblings = || (1..workers).map(move |i| (w + i) % workers);
        loop {
            if self.is_done() {
                return None;
            }
            if let Some(x) = lock(&self.queues[w]).pop_front() {
                return Some(x);
            }
            if let Some(x) = self.blocks[w].claim() {
                return Some(x);
            }
            for victim in siblings() {
                let mut q = lock(&self.queues[victim]);
                if q.is_empty() {
                    continue;
                }
                let take = q.len().div_ceil(2);
                let grabbed: Vec<u32> = q.drain(..take).collect();
                drop(q);
                bump(&self.blocks[w].steals, grabbed.len() as u64);
                let (&first, rest) = grabbed.split_first().expect("took at least one");
                if !rest.is_empty() {
                    lock(&self.queues[w]).extend(rest.iter().copied());
                }
                return Some(first);
            }
            for victim in siblings() {
                if let Some(x) = self.blocks[victim].claim() {
                    bump(&self.blocks[w].steals, 1);
                    return Some(x);
                }
            }
            if !self.sleep() {
                return None;
            }
        }
    }

    /// Blocks the calling worker until new work may exist; ends the run
    /// if every program has finished, and runs the stall check on each
    /// timeout tick. Returns `false` when the run is over.
    fn sleep(&self) -> bool {
        let mut clock = lock(&self.sleep);
        // Register as a sleeper *before* re-checking the queues: a waker
        // pushes before it reads the sleeper count, so either we see its
        // work here or it sees us and notifies.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let has_work = self.queues.iter().any(|q| !lock(q).is_empty())
            || self.blocks.iter().any(|b| !b.unspawned.is_exhausted());
        if has_work || self.is_done() {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return !self.is_done();
        }
        if self.completed() == self.num {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            drop(clock);
            self.finish();
            return false;
        }
        let tick =
            (self.stall_timeout / 4).clamp(Duration::from_millis(10), Duration::from_secs(1));
        let (guard, _) =
            self.sleep_cv.wait_timeout(clock, tick).unwrap_or_else(PoisonError::into_inner);
        clock = guard;
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        if self.is_done() {
            return false;
        }
        let current =
            self.total(|b| &b.polls) + self.total(|b| &b.wakes) + self.total(|b| &b.messages);
        if current != clock.last_progress {
            clock.last_progress = current;
            clock.since = Instant::now();
        } else if clock.since.elapsed() >= self.stall_timeout && self.completed() < self.num {
            let report = self.stall_report();
            drop(clock);
            self.finish();
            panic!("{report}");
        }
        true
    }

    /// Formats the stall diagnostic: overall progress plus which nodes
    /// are parked on which dims (first few, then a count).
    fn stall_report(&self) -> String {
        use std::fmt::Write;
        let completed = self.completed();
        let mut parked = 0usize;
        let mut detail = String::new();
        for (x, cell) in self.want.iter().enumerate() {
            let want = cell.load(Ordering::Relaxed);
            if want == WANT_NONE {
                continue;
            }
            parked += 1;
            if parked <= 12 {
                if parked > 1 {
                    detail.push_str(", ");
                }
                if want & WANT_BARRIER != 0 {
                    let _ = write!(detail, "node {x} on barrier #{}", want & !WANT_BARRIER);
                } else {
                    let _ = write!(detail, "node {x} on dim {want}");
                }
            }
        }
        if parked > 12 {
            let _ = write!(detail, ", … ({} more)", parked - 12);
        }
        format!(
            "SPMD scheduler stalled: no virtual-node progress for {:?} \
             ({completed}/{} node programs completed, {parked} waiting: {detail}) \
             — deadlocked node program?",
            self.stall_timeout, self.num
        )
    }
}

/// One slab entry: the node's suspended program (once spawned) and its
/// result (once finished).
pub(crate) struct VSlot<Fut, R> {
    pub(crate) fut: Option<std::pin::Pin<Box<Fut>>>,
    pub(crate) result: Option<R>,
}

/// The body of one pool worker: claim contexts, poll them until they
/// suspend or finish, park the suspended ones.
pub(crate) fn worker_loop<T, R, Fut, F>(
    w: usize,
    shared: &cubesync::sync::Arc<Shared<T>>,
    slab: &[Mutex<VSlot<Fut, R>>],
    program: &F,
) where
    T: Send,
    R: Send,
    Fut: std::future::Future<Output = R> + Send,
    F: Fn(crate::runtime::NodeCtx<T>) -> Fut + Sync,
{
    use std::task::{Context, Poll, Waker};
    WORKER.with(|c| c.set(w));
    let me = &shared.blocks[w];
    let mut own_high = i64::MIN;
    let mut cx = Context::from_waker(Waker::noop());
    while let Some(node) = shared.next_work(w) {
        let mut slot = lock(&slab[node as usize]);
        if slot.fut.is_none() {
            if slot.result.is_some() {
                continue; // already finished (can't normally happen)
            }
            let ctx = crate::runtime::NodeCtx::new(
                cubeaddr::NodeId(node as u64),
                cubesync::sync::Arc::clone(shared),
            );
            slot.fut = Some(Box::pin(program(ctx)));
            bump(&me.spawned, 1);
        }
        let fut = slot.fut.as_mut().expect("context spawned above");
        let polled =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
        match polled {
            Err(payload) => {
                // Release the pool before re-raising so the other
                // workers exit and the scope join can propagate this.
                drop(slot);
                shared.finish();
                std::panic::resume_unwind(payload);
            }
            Ok(Poll::Ready(r)) => {
                slot.fut = None;
                slot.result = Some(r);
                drop(slot);
                shared.want[node as usize].store(WANT_NONE, Ordering::Relaxed);
                bump(&me.polls, 1);
                shared.note_completed(me, &mut own_high);
            }
            Ok(Poll::Pending) => {
                // Phase two of the suspend protocol happens only after
                // the context lock is released (see module docs).
                drop(slot);
                bump(&me.polls, 1);
                shared.park(node);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Inbox;

    #[test]
    fn inbox_is_fifo_per_port_and_inline_for_one_message() {
        let mut inbox = Inbox::new();
        assert_eq!(inbox.take(0), None::<&str>);
        inbox.push(3, "a0");
        assert_eq!(inbox.rest.capacity(), 0, "one pending message stays inline");
        inbox.push(5, "b0");
        inbox.push(3, "a1");
        inbox.push(5, "b1");
        assert!(inbox.has(3) && inbox.has(5) && !inbox.has(4));
        assert_eq!(inbox.take(4), None);
        assert_eq!(inbox.take(5), Some("b0"));
        assert_eq!(inbox.take(5), Some("b1"));
        assert!(!inbox.has(5));
        assert_eq!(inbox.take(3), Some("a0"));
        assert_eq!(inbox.take(3), Some("a1"));
        assert!(inbox.first.is_none() && inbox.rest.is_empty());
    }
}

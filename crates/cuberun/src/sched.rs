//! The cooperative virtual-node scheduler behind [`crate::run_spmd`]:
//! a fixed worker pool multiplexing up to 2^16 node contexts, sharded
//! so that a worker shares only what must cross threads.
//!
//! One runtime, two front doors, one data plane: the split of the node
//! ids into home ranges ([`Homes`]) and the per-node [`Inbox`] defined
//! here are also what the round door ([`crate::rounds`]) runs on. That
//! door has no scheduler — a program with a fixed round structure needs
//! none — so everything below about ready queues, parking, the barrier
//! and the sleep protocol describes the free-form door only.
//!
//! # Ownership
//!
//! Every worker owns a contiguous range of node ids — its *home* range
//! — from the first poll to the last, the way one of the paper's real
//! processors hosts its virtual processors (the `rp` / `vp` address
//! fields): the nodes' inboxes, ready queue, barrier waiters, boxed
//! futures and results are plain data of the worker's thread. No node
//! migrates and no worker touches another's nodes, so none of it needs
//! a lock. The assumption is the one the paper makes: SPMD programs
//! are symmetric, so equal ranges are equal work. A skewed program is
//! still correct, but the pool does not rebalance it.
//!
//! * **[`Local`]** — what a worker builds on its own thread and hands
//!   to its node contexts as an `Rc`: the home range's [`Inbox`]es (one
//!   per *node*, not per link — `(port, message)` entries in arrival
//!   order, the oldest inline, so `recv(p)` taking the oldest entry
//!   tagged `p` is per-link FIFO because every link has one sender),
//!   the ready queue, and the worker's side of the barrier. It sits
//!   behind a `RefCell` borrowed only inside `send` / `recv` / barrier
//!   arrival and the worker's own scheduling step — never across a
//!   poll, so the borrows cannot overlap.
//! * **[`Shared`]** — what threads do share: one *mailbox* per worker
//!   for the messages that cross workers, the want cells, the barrier's
//!   cross-worker half, the counter blocks, and the sleep lock.
//!
//! # Message path
//!
//! `send` to a node of the same worker is a memory move into its inbox.
//! If the receiver is parked on exactly that port its flag is cleared
//! and it goes to the *front* of the ready queue — it runs next, while
//! its inbox and the payload are still in cache; a message for any
//! other port is stored and wakes nobody. `recv` takes the oldest entry
//! for its port or, finding none, sets the inbox's `parked` flag and
//! the want cell right there in the poll: nothing can race with the
//! owner. Only a `send` whose receiver lives on another worker takes a
//! lock — that worker's mailbox, `(node, port, message)` in send order
//! — and on a cube that is the top `log2(workers)` dimensions. The
//! owner moves its mailbox into the inboxes (waking as above) whenever
//! it has nothing to run and every [`DRAIN_EVERY`] polls. On the cube
//! `ports = n` and a port is a dimension; a message sent across port
//! `p` is tagged with the receiver's reverse port.
//!
//! A mailbox carries a "non-empty" hint its owner tests without the
//! lock. The hint is written *under* the mailbox lock, by the sender
//! that finds the mailbox empty and by the owner that empties it, so
//! whenever the lock is free the hint says what the mailbox holds: an
//! owner that skips a drain on a stale `false` is late, and an owner
//! that just saw mail under the lock never spins on a hint not yet set.
//!
//! # Barrier
//!
//! Arrivals are counted per worker. The node that completes its
//! worker's count reports once under the barrier lock; the last
//! reporter advances the generation. Every other worker releases its
//! own waiters when its scheduling step sees the new generation. A
//! worker whose home range is empty is not waited for.
//!
//! # Sleep and end of run
//!
//! A worker with nothing to run, an empty mailbox and no new barrier
//! generation sleeps on the one condvar. It registers as a sleeper
//! *before* re-checking (its mailbox under the mailbox lock, the
//! generation, `done`), and a sender or releaser publishes *before*
//! reading the sleeper count, so one of the two sees the other. No
//! shared count of finished programs exists to hit the node count: the
//! sleeper checks, under the sleep lock, whether the workers'
//! `completed` cells sum to it, and the one that sees they do ends the
//! run. The sleep lock orders those reads after every earlier sleeper's
//! completions, so the last worker to go idle sees the full sum.
//!
//! # Worker blocks and want cells
//!
//! Every counter the message path touches lives in one
//! cache-line-aligned [`WorkerBlock`] per worker, written only by that
//! worker with a plain load-add-store and summed by
//! [`crate::RunStats`], the stall clock and the end-of-run check. The
//! want cells — one atomic per node, written only by the node's home
//! worker — record what a suspended node waits for (a port, or a
//! barrier generation), so the stall detector can report *which* nodes
//! wait on *which* dims.
//!
//! # Determinism
//!
//! Results are byte-identical at any worker count because scheduling
//! never influences data: every directed link has exactly one sending
//! node whose messages arrive in its program order (an inbox and a
//! mailbox both keep send order), and a `recv` names the one link it
//! consumes from. The scheduler only decides *when* a node runs, never
//! *what* it observes. (Scheduler counters — parks, wakes, `peak_live`
//! — depend on timing; message and barrier counts do not.)

use crate::runtime::NodeCtx;
use cubesync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use cubesync::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use cubetopo::{TopoSpec, Topology};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::ops::Range;
use std::pin::Pin;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Want-cell value: not waiting on anything scheduler-visible.
pub(crate) const WANT_NONE: u64 = u64::MAX;
/// Want-cell flag bit: waiting on the barrier generation in the low bits.
pub(crate) const WANT_BARRIER: u64 = 1 << 63;

/// Polls a busy worker runs between two looks at its mailbox, the
/// barrier generation and `done`.
const DRAIN_EVERY: u32 = 256;

/// Locks a mutex, recovering the guard if a panicking node program
/// poisoned it (the panic itself is propagated separately; diagnostic
/// state behind the lock is still worth reading).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long a blocked worker waits between two looks at the stall
/// clock: a quarter of the stall timeout, within [10 ms, 1 s].
pub(crate) fn stall_tick(stall_timeout: Duration) -> Duration {
    (stall_timeout / 4).clamp(Duration::from_millis(10), Duration::from_secs(1))
}

/// The split of the node ids over the pool, shared by both front doors:
/// worker `w` is at home to the `w`-th contiguous range of `range` ids
/// (the last non-empty one may be shorter; trailing workers get none
/// when the ranges do not divide evenly).
#[derive(Clone, Copy)]
pub(crate) struct Homes {
    num: usize,
    /// Nodes per home range: node `x` is at home on worker `x / range`.
    range: usize,
}

impl Homes {
    pub(crate) fn new(num: usize, workers: usize) -> Self {
        Homes { num, range: num.div_ceil(workers) }
    }

    /// The node ids at home on worker `w`.
    pub(crate) fn range_of(&self, w: usize) -> Range<usize> {
        (w * self.range).min(self.num)..((w + 1) * self.range).min(self.num)
    }

    /// The worker `node` is at home on.
    pub(crate) fn worker_of(&self, node: usize) -> usize {
        node / self.range
    }

    /// Workers with a non-empty home range.
    pub(crate) fn active(&self) -> usize {
        self.num.div_ceil(self.range)
    }
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
    /// The port the node's suspended `recv` awaits; cleared by the
    /// delivery on that port, which also makes the node ready. Always
    /// `None` on the round door, where no node ever suspends.
    parked: Option<u32>,
}

impl<T> Inbox<T> {
    pub(crate) fn new() -> Self {
        Inbox { first: None, rest: VecDeque::new(), parked: None }
    }

    /// Whether nothing is pending on any port.
    pub(crate) fn is_empty(&self) -> bool {
        self.first.is_none()
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
}

/// What other workers sent to one worker's nodes: `(node, port,
/// message)` in send order. The only lock a message can take. Aligned
/// so that two workers' mailboxes share no cache line.
#[repr(align(128))]
struct Mailbox<T> {
    mail: Mutex<Vec<(u32, u32, T)>>,
    /// Whether `mail` is non-empty, for the owner to test without the
    /// lock. Written only while holding it (see the module docs).
    full: AtomicBool,
}

/// Stall-detector clock: the last observed progress count and when it
/// last changed. Guarded by the sleep lock (only idle workers look).
struct StallClock {
    last_progress: u64,
    since: Instant,
}

/// Every counter one worker bumps. Each cell has a single writer — the
/// owning worker, through [`bump`] — and any number of readers; the
/// alignment keeps two workers' blocks off one cache line (and off its
/// prefetched neighbor).
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct WorkerBlock {
    pub(crate) messages: AtomicU64,
    pub(crate) parks: AtomicU64,
    pub(crate) wakes: AtomicU64,
    /// Polls of node futures; with `wakes` and `messages`, the progress
    /// the stall detector times.
    polls: AtomicU64,
    spawned: AtomicU64,
    completed: AtomicU64,
    /// Largest ensemble-wide live count this worker sampled.
    pub(crate) peak_live: AtomicU64,
}

/// Adds to a single-writer counter cell without a read-modify-write.
fn bump(cell: &AtomicU64, by: u64) {
    cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// What the workers of one run share.
pub(crate) struct Shared<T> {
    pub(crate) topo: TopoSpec,
    /// Cached `topo.ports()` (`n` on the cube).
    pub(crate) ports: u32,
    pub(crate) num: usize,
    stall_timeout: Duration,

    /// Per-node wait reason (see [`WANT_NONE`] / [`WANT_BARRIER`]),
    /// written by the node's home worker, read by the stall report.
    want: Vec<AtomicU64>,
    /// One per worker.
    mailboxes: Vec<Mailbox<T>>,
    /// Workers whose whole home range has arrived in the current
    /// barrier episode.
    barrier: Mutex<usize>,
    /// Completed barrier episodes; advanced under the `barrier` lock.
    barrier_generation: AtomicU64,
    pub(crate) barriers: AtomicU64,

    pub(crate) blocks: Vec<WorkerBlock>,
    homes: Homes,
    sleep: Mutex<StallClock>,
    sleep_cv: Condvar,
    sleepers: AtomicUsize,
    done: AtomicBool,
}

impl<T> Shared<T> {
    pub(crate) fn new(topo: TopoSpec, workers: usize, stall_timeout: Duration) -> Self {
        let num = topo.num_nodes();
        let mailbox = |_| Mailbox { mail: Mutex::new(Vec::new()), full: AtomicBool::new(false) };
        Shared {
            topo,
            ports: topo.ports(),
            num,
            stall_timeout,
            want: (0..num).map(|_| AtomicU64::new(WANT_NONE)).collect(),
            mailboxes: (0..workers).map(mailbox).collect(),
            barrier: Mutex::new(0),
            barrier_generation: AtomicU64::new(0),
            barriers: AtomicU64::new(0),
            blocks: (0..workers).map(|_| WorkerBlock::default()).collect(),
            homes: Homes::new(num, workers),
            sleep: Mutex::new(StallClock { last_progress: 0, since: Instant::now() }),
            sleep_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            done: AtomicBool::new(false),
        }
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

    /// Hands a message for `node` to its home worker.
    fn post(&self, node: u32, port: u32, msg: T) {
        let mailbox = &self.mailboxes[self.homes.worker_of(node as usize)];
        let mut mail = lock(&mailbox.mail);
        mail.push((node, port, msg));
        if mail.len() == 1 {
            mailbox.full.store(true, Ordering::Release);
            drop(mail);
            self.notify_sleepers();
        }
    }

    /// Reports that the calling worker's whole home range has arrived
    /// at the barrier. The last worker to report advances the
    /// generation and gets the new one.
    fn report_arrival(&self) -> Option<u64> {
        let mut reported = lock(&self.barrier);
        *reported += 1;
        // Only workers with a non-empty home range ever report.
        if *reported < self.homes.active() {
            return None;
        }
        *reported = 0;
        let generation = self.barrier_generation.fetch_add(1, Ordering::SeqCst) + 1;
        self.barriers.fetch_add(1, Ordering::Relaxed);
        drop(reported);
        self.notify_sleepers();
        Some(generation)
    }

    /// Pokes sleeping workers after mail or a barrier generation was
    /// published. A sleeper increments the counter under the sleep lock
    /// *before* its re-check and the publication precedes this load, so
    /// a sleeper that missed it is visible here — no lost wakeup. All
    /// are woken: the one condvar cannot single out the worker meant.
    fn notify_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            drop(lock(&self.sleep));
            self.sleep_cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Ends the run (all nodes finished, a stall, or a panic) and
    /// releases every sleeping worker.
    fn finish(&self) {
        self.done.store(true, Ordering::Release);
        drop(lock(&self.sleep));
        self.sleep_cv.notify_all();
    }

    /// Blocks worker `w`, which last saw barrier `generation`, until
    /// there may be something for it to do; ends the run if every
    /// program has finished, and runs the stall check on each timeout
    /// tick. Returns `false` when the run is over.
    fn sleep(&self, w: usize, generation: u64) -> bool {
        let mut clock = lock(&self.sleep);
        // Register as a sleeper *before* re-checking: a sender or
        // barrier releaser publishes before it reads the sleeper count,
        // so either we see its work here or it sees us and notifies.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let has_work = !lock(&self.mailboxes[w].mail).is_empty()
            || self.barrier_generation.load(Ordering::SeqCst) > generation;
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
        let (guard, _) = self
            .sleep_cv
            .wait_timeout(clock, stall_tick(self.stall_timeout))
            .unwrap_or_else(PoisonError::into_inner);
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

/// One worker's private half of the run: built on the worker's thread,
/// reached by its node contexts through an `Rc`, never seen by another
/// thread.
pub(crate) struct Local<T> {
    pub(crate) shared: Arc<Shared<T>>,
    /// Which worker this is.
    me: usize,
    /// First node id and size of the home range.
    start: u32,
    len: u32,
    own: RefCell<Own<T>>,
}

/// The mutable part of [`Local`]. Nodes are named by their index in the
/// home range.
struct Own<T> {
    inboxes: Vec<Inbox<T>>,
    /// Runnable nodes, next at the front.
    ready: VecDeque<u32>,
    /// Home nodes suspended in barrier episode `generation`.
    waiters: Vec<u32>,
    /// Home nodes that have arrived in that episode; back to zero once
    /// all have and the worker has reported.
    arrived: u32,
    /// The last barrier generation this worker saw.
    generation: u64,
    /// Polls left before the next look at the mailbox.
    budget: u32,
    /// The emptied buffer the next mailbox drain swaps in.
    spare: Vec<(u32, u32, T)>,
}

impl<T> Own<T> {
    /// Puts a message into a home node's inbox. A node parked on
    /// exactly that port runs next; a backlog on any other port wakes
    /// nobody — the re-polled `recv` would still have nothing to take.
    fn deliver(&mut self, at: u32, port: u32, msg: T, block: &WorkerBlock) {
        let inbox = &mut self.inboxes[at as usize];
        inbox.push(port, msg);
        if inbox.parked == Some(port) {
            inbox.parked = None;
            self.ready.push_front(at);
            bump(&block.wakes, 1);
        }
    }

    /// Makes this worker's barrier waiters runnable: the episode they
    /// wait in is over. Only ever called with the generation already
    /// stored, so no waiter can run before every node has arrived.
    fn release_waiters(&mut self, generation: u64, block: &WorkerBlock) {
        self.generation = generation;
        bump(&block.wakes, self.waiters.len() as u64);
        self.ready.extend(self.waiters.drain(..));
    }
}

impl<T> Local<T> {
    fn new(me: usize, shared: Arc<Shared<T>>) -> Self {
        let home = shared.homes.range_of(me);
        let own = Own {
            inboxes: home.clone().map(|_| Inbox::new()).collect(),
            ready: VecDeque::new(),
            waiters: Vec::new(),
            arrived: 0,
            generation: 0,
            budget: DRAIN_EVERY,
            spare: Vec::new(),
        };
        Local {
            shared,
            me,
            start: home.start as u32,
            len: home.len() as u32,
            own: RefCell::new(own),
        }
    }

    fn block(&self) -> &WorkerBlock {
        &self.shared.blocks[self.me]
    }

    /// Sends `msg` to `peer`, arriving on its port `port`: a move into
    /// its inbox if it lives here, else into its worker's mailbox.
    pub(crate) fn send(&self, peer: u32, port: u32, msg: T) {
        bump(&self.block().messages, 1);
        let at = peer.wrapping_sub(self.start);
        if at < self.len {
            self.own.borrow_mut().deliver(at, port, msg, self.block());
        } else {
            self.shared.post(peer, port, msg);
        }
    }

    /// One poll of home node `node`'s `recv(port)`: the oldest message
    /// from that port, or `None` with the node parked on it.
    pub(crate) fn recv(&self, node: u32, port: u32) -> Option<T> {
        let mut own = self.own.borrow_mut();
        let inbox = &mut own.inboxes[(node - self.start) as usize];
        let got = inbox.take(port);
        let want = if got.is_some() {
            WANT_NONE
        } else {
            if inbox.parked.replace(port) != Some(port) {
                bump(&self.block().parks, 1);
            }
            port as u64
        };
        self.shared.want[node as usize].store(want, Ordering::Relaxed);
        got
    }

    /// One poll of home node `node`'s barrier wait; `joined` is the
    /// generation it arrived in, once it has. Returns whether the node
    /// may pass.
    pub(crate) fn barrier(&self, node: u32, joined: &mut Option<u64>) -> bool {
        let (sh, block) = (&*self.shared, self.block());
        let mut own = self.own.borrow_mut();
        let passed = match *joined {
            Some(generation) => own.generation > generation,
            None => {
                *joined = Some(own.generation);
                own.arrived += 1;
                let last_here = own.arrived == self.len;
                if last_here {
                    own.arrived = 0;
                }
                // The last arriver of the last worker to report passes
                // without suspending and takes its worker's waiters
                // along; everyone else waits for a scheduling step to
                // see the new generation.
                let released = if last_here { sh.report_arrival() } else { None };
                match released {
                    Some(generation) => own.release_waiters(generation, block),
                    None => {
                        own.waiters.push(node - self.start);
                        bump(&block.parks, 1);
                    }
                }
                released.is_some()
            }
        };
        let want = match *joined {
            Some(generation) if !passed => WANT_BARRIER | generation,
            _ => WANT_NONE,
        };
        sh.want[node as usize].store(want, Ordering::Relaxed);
        passed
    }

    /// Moves what other workers sent here into the inboxes and, if the
    /// barrier generation advanced, releases this worker's waiters.
    fn drain(&self, own: &mut Own<T>) {
        let (sh, block) = (&*self.shared, self.block());
        let mailbox = &sh.mailboxes[self.me];
        // `Acquire` pairs with the `Release` stores under the lock; a
        // stale `false` only postpones the drain (`sleep` does not rely
        // on the hint).
        if mailbox.full.load(Ordering::Acquire) {
            let mut mail = lock(&mailbox.mail);
            std::mem::swap(&mut *mail, &mut own.spare);
            mailbox.full.store(false, Ordering::Release);
            drop(mail);
            let mut arrived = std::mem::take(&mut own.spare);
            for (node, port, msg) in arrived.drain(..) {
                own.deliver(node - self.start, port, msg, block);
            }
            own.spare = arrived;
        }
        let generation = sh.barrier_generation.load(Ordering::Acquire);
        if generation > own.generation {
            own.release_waiters(generation, block);
        }
    }

    /// The next home node to poll: the front of the ready queue, else
    /// the next unspawned node. With neither — and every
    /// [`DRAIN_EVERY`] polls regardless — the worker drains its mailbox;
    /// with nothing even then, it sleeps. `None` when the run is over.
    fn next_work(&self, unspawned: &mut Range<u32>) -> Option<u32> {
        loop {
            let mut own = self.own.borrow_mut();
            if own.budget > 0 {
                if let Some(at) = own.ready.pop_front().or_else(|| unspawned.next()) {
                    own.budget -= 1;
                    return Some(at);
                }
            }
            if self.shared.is_done() {
                return None;
            }
            // A full budget means the drain below just ran and found
            // nothing to run.
            if own.budget == DRAIN_EVERY && !self.shared.sleep(self.me, own.generation) {
                return None;
            }
            own.budget = DRAIN_EVERY;
            self.drain(&mut own);
        }
    }
}

/// The body of one pool worker: spawn the home range lazily, poll
/// whatever is runnable until it suspends or finishes. Returns the home
/// range's results in node order (`None` where a run that was cut short
/// left a program unfinished).
pub(crate) fn worker_loop<T, R, Fut, F>(
    w: usize,
    shared: &Arc<Shared<T>>,
    program: &F,
) -> Vec<Option<R>>
where
    Fut: Future<Output = R>,
    F: Fn(NodeCtx<T>) -> Fut,
{
    use std::task::{Context, Poll, Waker};
    let local = Rc::new(Local::new(w, Arc::clone(shared)));
    let (start, len) = (local.start as usize, local.len);
    let me = &shared.blocks[w];
    let mut futs: Vec<Option<Pin<Box<Fut>>>> = (0..len).map(|_| None).collect();
    let mut results: Vec<Option<R>> = (0..len).map(|_| None).collect();
    let mut unspawned = 0..len;
    let mut own_high = i64::MIN;
    let mut cx = Context::from_waker(Waker::noop());
    while let Some(at) = local.next_work(&mut unspawned) {
        let (at, node) = (at as usize, start + at as usize);
        let slot = &mut futs[at];
        if slot.is_none() {
            if results[at].is_some() {
                continue; // already finished (can't normally happen)
            }
            let ctx = NodeCtx::new(cubeaddr::NodeId(node as u64), Rc::clone(&local));
            *slot = Some(Box::pin(program(ctx)));
            bump(&me.spawned, 1);
        }
        let fut = slot.as_mut().expect("context spawned above");
        let polled =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
        bump(&me.polls, 1);
        match polled {
            Err(payload) => {
                // Release the pool before re-raising so the other
                // workers exit and the scope join can propagate this.
                shared.finish();
                std::panic::resume_unwind(payload);
            }
            Ok(Poll::Ready(r)) => {
                *slot = None;
                results[at] = Some(r);
                shared.want[node].store(WANT_NONE, Ordering::Relaxed);
                shared.note_completed(me, &mut own_high);
            }
            Ok(Poll::Pending) => {
                if shared.want[node].load(Ordering::Relaxed) == WANT_NONE {
                    shared.finish();
                    panic!(
                        "node {node} suspended on a foreign future; \
                         only NodeCtx recv/barrier may suspend"
                    );
                }
            }
        }
    }
    results
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
        assert_eq!(inbox.take(4), None);
        assert_eq!(inbox.take(5), Some("b0"));
        assert_eq!(inbox.take(5), Some("b1"));
        assert_eq!(inbox.take(5), None);
        assert_eq!(inbox.take(3), Some("a0"));
        assert_eq!(inbox.take(3), Some("a1"));
        assert!(inbox.first.is_none() && inbox.rest.is_empty());
    }
}

//! Virtual-node SPMD execution: many cube nodes per worker thread.
//!
//! This module holds the async door ([`run_spmd`] and the [`NodeCtx`]
//! its programs run against) and what both doors share: the pool size
//! ([`num_workers`], [`with_workers`]), the stall timeout
//! ([`with_stall_timeout`]), the size refusals, the link diagnostic, the
//! join-every-worker loop and [`RunStats`]. Both doors run on the one
//! worker loop of [`crate::rounds`]; the home ranges and the per-node
//! inbox are in `sched`. The async door runs on the cube only; a program
//! for another topology is a round program on [`crate::run_rounds_on`].
//!
//! Node programs are written as `async` blocks against [`NodeCtx`]:
//! `send` is immediate (links are buffered), `recv` *suspends* the node
//! until the message arrives, parking the virtual node and yielding the
//! worker instead of blocking an OS thread. The compiler turns each
//! program into a resumable state machine, so 2^16 suspended nodes cost
//! heap bytes, not stacks — the paper's Connection-Machine scale (n = 16,
//! 64K nodes) runs on a handful of workers. A node lives on one worker
//! for the whole run, so a [`NodeCtx`] is `!Send` and a node program
//! may hold non-`Send` state across an `.await`.
//!
//! # Sweeps
//!
//! A worker polls its ready nodes until none is left — every home node
//! has finished or waits on a port — and then trades one batch with
//! every other worker: a *sweep*. Each batch is headed by the sender's
//! cross-worker sends in the sweep and its unfinished node count.
//! Summed, the headers are the same on every worker, so every worker
//! takes the same decision at the same sweep boundary:
//!
//! * **finished** — no node is unfinished;
//! * **deadlock** — nothing crossed between workers and nodes are still
//!   unfinished: every one of them waits for a message nobody can send,
//!   so the run panics with a report naming each waiting node and its
//!   port, at the sweep where nothing moved;
//! * otherwise the next sweep.
//!
//! The former thread-per-node runtime survives as [`crate::reference`]
//! (the equivalence tests run both).

use crate::rounds::{run_pool, Header, Lane, Part, Pool};
use cubeaddr::NodeId;
use cubesync::thread;
use cubetopo::{TopoSpec, Topology};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

/// Default for how long a worker waits for another worker's batch
/// before declaring a step hung. Algorithms on these cube sizes complete
/// in milliseconds; half a minute of silence is a bug, and a diagnostic
/// panic beats a hung test suite.
pub(crate) const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(30);

thread_local! {
    /// Worker-count override installed by [`with_workers`].
    static WORKERS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Stall-timeout override installed by [`with_stall_timeout`].
    static STALL_OVERRIDE: Cell<Option<Duration>> = const { Cell::new(None) };
}

/// The worker-pool size for [`run_spmd`]: the [`with_workers`] override
/// if installed, else the ambient `cubesim::par` thread count
/// (`CUBEBENCH_THREADS` / available parallelism) — the pool is sized
/// like the figure sweep's fan-out unless explicitly overridden.
pub fn num_workers() -> usize {
    WORKERS_OVERRIDE.with(Cell::get).unwrap_or_else(cubesim::par::num_threads)
}

/// Runs `f` with [`num_workers`] pinned to `workers` on the current
/// thread (restored on exit, even across a panic). Used by the
/// determinism tests to compare 1/2/5-worker runs without mutating the
/// process environment.
pub fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKERS_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(WORKERS_OVERRIDE.with(|o| o.replace(Some(workers.max(1)))));
    f()
}

/// Runs `f` with the stall timeout pinned to `timeout` on the current
/// thread (restored on exit, even across a panic). The timeout bounds a
/// worker's wait for another worker's batch — a step that never
/// returns; a deadlock of the node programs is reported without it.
/// Tests tighten it.
pub fn with_stall_timeout<R>(timeout: Duration, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Duration>);
    impl Drop for Restore {
        fn drop(&mut self) {
            STALL_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(STALL_OVERRIDE.with(|o| o.replace(Some(timeout))));
    f()
}

/// The stall timeout: the [`with_stall_timeout`] override if installed,
/// else [`DEFAULT_STALL_TIMEOUT`].
pub(crate) fn stall_timeout() -> Duration {
    STALL_OVERRIDE.with(Cell::get).unwrap_or(DEFAULT_STALL_TIMEOUT)
}

/// Aggregate statistics of one SPMD run.
///
/// `messages` is deterministic (scheduling-independent); `peak_live`,
/// `parks` and `wakes` depend on timing and worker count. The field
/// docs describe [`run_spmd`]; on the round door no node parks and
/// every node state is live from start to end — see
/// [`crate::run_rounds`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total messages sent over all links.
    pub messages: u64,
    /// Size of the worker pool that executed the run.
    pub workers: usize,
    /// High-water mark of simultaneously live (spawned, unfinished)
    /// virtual-node contexts — the memory footprint the run actually
    /// paid for — as far as the run can vouch for it: the larger of
    /// every worker's own live count and the ensemble's live count at
    /// each sweep boundary. Never more than a count that really
    /// occurred, and exact when every node must start before any can
    /// finish: one worker then counts all of them itself, and on
    /// several no node can finish in the first sweep, whose boundary
    /// counts them all.
    pub peak_live: u32,
    /// Times a virtual node parked (a `recv` with nothing pending on
    /// its port), plus times a worker blocked on its mailbox waiting
    /// for a batch.
    pub parks: u64,
    /// Times a parked node was made runnable by a delivery on its port,
    /// plus times a blocked worker was released.
    pub wakes: u64,
    /// Always `workers` zeros: a node runs on its home worker from its
    /// first poll to its last, so nothing is ever stolen. The field
    /// stays because the benchmark harness sums it.
    pub steals: Vec<u64>,
}

/// The neighbor of `id` across `port`, panicking with the link
/// diagnostic both front doors give if the port is out of range or
/// unwired on this topology.
#[track_caller]
pub(crate) fn wired_neighbor(topo: &TopoSpec, id: NodeId, port: u32, what: &str) -> u64 {
    match (port < topo.ports()).then(|| topo.neighbor(id.bits(), port)).flatten() {
        Some(peer) => peer,
        None => panic!("{what} on port {port} of node {id}: no such link on the {}", topo.label()),
    }
}

/// A worker's side of an async run, shared with its node contexts
/// through an `Rc`. `own` is borrowed inside a context's `send` /
/// `recv` poll and by the worker between polls, never across a poll,
/// so the borrows cannot overlap.
struct Host<T> {
    topo: TopoSpec,
    /// First node id of the home range.
    start: u64,
    own: RefCell<Own<T>>,
}

/// The mutable part of a [`Host`]. Nodes are named by their index in
/// the home range.
struct Own<T> {
    lane: Lane<T>,
    /// Set by a context future that returns `Pending`, taken by the
    /// worker after every poll: a node that suspends without it awaited
    /// something foreign.
    suspended: bool,
}

impl<T> Own<T> {
    /// One poll of home node `at`'s `recv(port)`: the oldest message
    /// from that port, or `None` with the node parked on it.
    fn recv(&mut self, at: usize, port: u32) -> Option<T> {
        let inbox = &mut self.lane.inboxes[at];
        let got = inbox.take(port);
        if got.is_none() {
            if inbox.parked.replace(port) != Some(port) {
                self.lane.parks += 1;
            }
            self.suspended = true;
        }
        got
    }
}

/// The per-node handle a node program runs against: its identity plus
/// its `n` communication ports, one per cube dimension. Obtained from
/// [`run_spmd`]; `recv` and `exchange` are `async` and suspend the
/// virtual node, never an OS thread. It is `!Send`: a node never leaves
/// the worker that spawned it. Sending or receiving on a dimension the
/// cube does not have panics immediately rather than deadlocking.
pub struct NodeCtx<T> {
    id: NodeId,
    /// The worker this node lives on.
    host: Rc<Host<T>>,
}

impl<T> NodeCtx<T> {
    /// This node's index in its worker's home range.
    fn at(&self) -> usize {
        (self.id.bits() - self.host.start) as usize
    }

    /// This node's address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The cube dimension `n`.
    pub fn n(&self) -> u32 {
        self.host.topo.ports()
    }

    /// Number of nodes in the ensemble, `2^n`.
    pub fn num_nodes(&self) -> usize {
        self.host.topo.num_nodes()
    }

    /// The neighbor across dimension `dim`, panicking with a link
    /// diagnostic if the cube has no such dimension.
    #[track_caller]
    fn wired_neighbor(&self, dim: u32, what: &str) -> u64 {
        wired_neighbor(&self.host.topo, self.id, dim, what)
    }

    /// Sends `msg` to the neighbor across dimension `dim` (immediate;
    /// links are buffered). A neighbor parked on this link becomes
    /// runnable — next in line if it lives on this worker, after this
    /// sweep if it lives on another; a neighbor parked on another link
    /// is left alone.
    #[track_caller]
    pub fn send(&self, dim: u32, msg: T) {
        let peer = self.wired_neighbor(dim, "send");
        // On the cube a link joins the same dimension at both ends.
        self.host.own.borrow_mut().lane.send(peer as usize, dim, msg);
    }

    /// Receives the next message from the neighbor across dimension
    /// `dim`, suspending this virtual node until it arrives.
    ///
    /// # Panics
    /// The run panics if its node programs deadlock — at the first
    /// sweep in which every unfinished node waits and nothing moved
    /// between workers — or if any node program panicked.
    #[track_caller]
    pub fn recv(&self, dim: u32) -> Recv<'_, T> {
        let _ = self.wired_neighbor(dim, "recv");
        Recv { ctx: self, dim }
    }

    /// Bidirectional exchange across dimension `dim`: sends `msg` and
    /// returns the neighbor's message (full-duplex links — one exchange
    /// costs one send on the paper's machines). The neighbor must
    /// exchange across the same dimension.
    pub async fn exchange(&self, dim: u32, msg: T) -> T {
        self.send(dim, msg);
        self.recv(dim).await
    }
}

/// Future of [`NodeCtx::recv`]: ready as soon as the node's inbox holds
/// a message from the awaited port, otherwise parks the node on that
/// port until the message is delivered.
#[must_use = "recv does nothing until awaited"]
pub struct Recv<'a, T> {
    ctx: &'a NodeCtx<T>,
    dim: u32,
}

impl<T> Future for Recv<'_, T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        let ctx = self.ctx;
        match ctx.host.own.borrow_mut().recv(ctx.at(), self.dim) {
            Some(msg) => Poll::Ready(msg),
            None => Poll::Pending,
        }
    }
}

/// The async door's worker: polls the node programs of `lane`'s home
/// range sweep by sweep until the headers of every worker say the run
/// is finished or deadlocked (see the module docs).
fn node_worker<T, R, Fut, F>(pool: &Pool<T>, me: usize, lane: Lane<T>, program: &F) -> Part<R>
where
    Fut: Future<Output = R>,
    F: Fn(NodeCtx<T>) -> Fut,
{
    let (start, len) = (lane.home.start, lane.home.len());
    if len == 0 {
        // A trailing worker of an uneven split: it posts to nobody and
        // nobody waits for it.
        return Part::of(&lane, Vec::new());
    }
    let own = Own { lane, suspended: false };
    let host = Rc::new(Host { topo: own.lane.topo, start: start as u64, own: RefCell::new(own) });
    let mut futs: Vec<Option<Pin<Box<Fut>>>> = (0..len).map(|_| None).collect();
    let mut results: Vec<Option<R>> = (0..len).map(|_| None).collect();
    let mut unspawned = 0..len;
    // Home nodes spawned and unfinished, and the largest live count
    // this worker has seen.
    let (mut live, mut peak) = (0u64, 0u64);
    let mut cx = Context::from_waker(Waker::noop());
    let mut sweep = 0u32;
    loop {
        // Poll ready nodes, spawning the home range lazily, until every
        // home node has finished or waits.
        loop {
            let ready = host.own.borrow_mut().lane.ready.pop_front();
            let Some(at) = ready.map(|at| at as usize).or_else(|| unspawned.next()) else {
                break;
            };
            let fut = match &mut futs[at] {
                Some(fut) => fut,
                // Finished, yet woken by a late delivery: it polled a
                // `recv` and finished without awaiting it.
                None if results[at].is_some() => continue,
                slot => {
                    live += 1;
                    peak = peak.max(live);
                    let ctx = NodeCtx { id: NodeId((start + at) as u64), host: Rc::clone(&host) };
                    slot.insert(Box::pin(program(ctx)))
                }
            };
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(r) => {
                    futs[at] = None;
                    results[at] = Some(r);
                    live -= 1;
                }
                Poll::Pending => {
                    let suspended = std::mem::take(&mut host.own.borrow_mut().suspended);
                    assert!(
                        suspended,
                        "node {} suspended on a foreign future; only NodeCtx::recv may suspend",
                        start + at
                    );
                }
            }
        }
        // Trade batches, then decide from everybody's header.
        let mut own = host.own.borrow_mut();
        let own = &mut *own;
        let head = pool.post(me, &mut own.lane, sweep, Header { unfinished: live, sent: 0 });
        let Some(others) = pool.collect(me, &mut own.lane, sweep) else {
            return Part::of(&own.lane, Vec::new());
        };
        let all = head.plus(others);
        // Between two sweeps every worker sits at the count it posted.
        peak = peak.max(all.unfinished);
        if all.unfinished == 0 {
            let results = results.into_iter().map(|r| r.expect("every program finished")).collect();
            return Part { peak_live: peak, ..Part::of(&own.lane, results) };
        }
        if all.sent == 0 {
            let stuck = (0..len)
                .filter(|&at| futs[at].is_some())
                .map(|at| {
                    let port = own.lane.inboxes[at].parked;
                    (start + at, port.expect("a waiting node is parked on a port"))
                })
                .collect();
            return Part { stuck, ..Part::of(&own.lane, Vec::new()) };
        }
        sweep = sweep.wrapping_add(1);
    }
}

/// The deadlock diagnostic: how far the run got, and which nodes wait
/// on which dim (the first few, then a count).
fn deadlock_report(num: usize, stuck: &[(usize, u32)]) -> String {
    use std::fmt::Write;
    let mut detail = String::new();
    for (k, &(x, dim)) in stuck.iter().take(12).enumerate() {
        if k > 0 {
            detail.push_str(", ");
        }
        let _ = write!(detail, "node {x} on dim {dim}");
    }
    if stuck.len() > 12 {
        let _ = write!(detail, ", … ({} more)", stuck.len() - 12);
    }
    format!(
        "SPMD scheduler stalled: a sweep moved no message between workers ({}/{num} node \
         programs completed, {} waiting: {detail}) — deadlocked node program?",
        num - stuck.len(),
        stuck.len()
    )
}

/// Runs `program` on every node of an `n`-cube and returns the per-node
/// results in node order plus run statistics.
///
/// Every node is a *virtual* node: a resumable `async` state machine
/// multiplexed, with all its siblings, onto a fixed worker pool
/// ([`num_workers`] threads). `n = 16` — 65 536 virtual nodes, the
/// paper's Connection Machine scale — runs on any pool size, and the
/// results are byte-identical at any worker count.
///
/// The program receives an owned [`NodeCtx`] for its node and returns a
/// future (write it as `|ctx| async move { … }`). Message type `T` and
/// result type `R` are arbitrary `Send` types; the future itself need
/// not be `Send`, because a node never leaves the worker that spawned
/// it.
///
/// # Panics
/// If `n > 16`; with a node program's own panic; with the deadlock
/// report if every unfinished node waits for something nobody can send
/// (see the module docs); or with the stall report if a worker waits
/// for a batch longer than the stall timeout ([`with_stall_timeout`]).
pub fn run_spmd<T, R, F, Fut>(n: u32, program: F) -> (Vec<R>, RunStats)
where
    T: Send,
    R: Send,
    F: Fn(NodeCtx<T>) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    let topo = cube(n);
    let (parts, stats) =
        run_pool(topo, "async", "sweep", |pool, me, lane| node_worker(pool, me, lane, &program));
    let stuck: Vec<(usize, u32)> = parts.iter().flat_map(|p| p.stuck.clone()).collect();
    if !stuck.is_empty() {
        panic!("{}", deadlock_report(topo.num_nodes(), &stuck));
    }
    // The home ranges are contiguous and ascending, so the parts
    // concatenate in node order.
    (parts.into_iter().flat_map(|p| p.results).collect(), stats)
}

/// The `n`-cube the cube entry points of both front doors run on.
///
/// # Panics
/// If `n` is no cube dimension, or above the 16 an inbox per node is
/// allocated for.
pub(crate) fn cube(n: u32) -> TopoSpec {
    cubeaddr::check_dims(n);
    assert!(
        n <= 16,
        "refusing to allocate inboxes for 2^{n} virtual nodes; use the simulator for giant cubes"
    );
    TopoSpec::hypercube(n)
}

/// The pool size of a run on `topo`, on either front door:
/// [`num_workers`], but never more workers than nodes.
///
/// # Panics
/// If the topology has more than 2^16 nodes.
pub(crate) fn pool_size(topo: &TopoSpec) -> usize {
    let num = topo.num_nodes();
    assert!(
        num <= 1 << 16,
        "refusing to allocate inboxes for {num} virtual nodes; use the simulator for giant ensembles"
    );
    num_workers().clamp(1, num)
}

/// Runs `body(w)` for every worker `w` of the pool on a scoped thread
/// of its own and returns what they returned, in worker order.
///
/// Every worker is joined, and if any panicked the *original* payload
/// of the first such worker (a node program's panic, a stall report) is
/// re-raised — not the scope's generic "a scoped thread panicked". A
/// panicking worker ends the run first, so the others leave and the
/// joins complete.
pub(crate) fn run_workers<P: Send>(workers: usize, body: impl Fn(usize) -> P + Sync) -> Vec<P> {
    thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || body(w))).collect();
        let mut parts = Vec::with_capacity(workers);
        let mut first_panic = None;
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        parts
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sums every node's `acc` by exchanging partial sums across each
    /// dimension in turn.
    async fn dimension_scan(ctx: &NodeCtx<u64>, mut acc: u64) -> u64 {
        for d in 0..ctx.n() {
            acc = acc.wrapping_add(ctx.exchange(d, acc).await);
        }
        acc
    }

    #[test]
    fn exchange_swaps_neighbors() {
        let (results, stats) =
            run_spmd(3, |ctx| async move { ctx.exchange(2, ctx.id().bits()).await });
        let expect: Vec<u64> = (0..8).map(|x| x ^ 0b100).collect();
        assert_eq!(results, expect);
        assert_eq!(stats.messages, 8);
        assert!(stats.peak_live >= 2 && stats.peak_live <= 8, "{stats:?}");
    }

    #[test]
    fn single_node_cube_runs() {
        let (results, _) = run_spmd::<u64, _, _, _>(0, |ctx| async move { ctx.id().bits() + 41 });
        assert_eq!(results, vec![41]);
    }

    #[test]
    fn dimension_scan_accumulates_all_ids() {
        // Classic all-reduce by dimension scan: after exchanging partial
        // sums across every dimension, every node holds Σ ids.
        let (results, _) =
            run_spmd(4, |ctx| async move { dimension_scan(&ctx, ctx.id().bits()).await });
        let total: u64 = (0..16).sum();
        assert!(results.iter().all(|&r| r == total), "{results:?}");
    }

    #[test]
    fn store_and_forward_chain() {
        // Node 0 sends a token around dims 0,1,2; final holder is node 7.
        let (results, _) = run_spmd(3, |ctx| async move {
            let x = ctx.id().bits();
            match x {
                0 => {
                    ctx.send(0, vec![99u64]);
                    None
                }
                1 => {
                    let t = ctx.recv(0).await;
                    ctx.send(1, t);
                    None
                }
                3 => {
                    let t = ctx.recv(1).await;
                    ctx.send(2, t);
                    None
                }
                7 => Some(ctx.recv(2).await),
                _ => None,
            }
        });
        assert_eq!(results[7], Some(vec![99]));
        assert!(results[..7].iter().all(Option::is_none));
    }

    #[test]
    fn messages_preserve_order_per_link() {
        // One worker: the 100 messages queue up in node 1's inbox. Two:
        // they cross worker 1's mailbox, in whatever batches it drains.
        for workers in [1usize, 2] {
            let (results, _) = with_workers(workers, || {
                run_spmd(1, |ctx| async move {
                    if ctx.id().bits() == 0 {
                        for i in 0..100u64 {
                            ctx.send(0, i);
                        }
                        Vec::new()
                    } else {
                        let mut got = Vec::new();
                        for _ in 0..100 {
                            got.push(ctx.recv(0).await);
                        }
                        got
                    }
                })
            });
            assert_eq!(results[1], (0..100).collect::<Vec<u64>>(), "workers={workers}");
        }
    }

    #[test]
    fn oversubscribed_pool_runs_many_nodes_per_worker() {
        // 1024 virtual nodes on 1, 2 and 5 workers: identical results.
        let mut seen: Option<Vec<u64>> = None;
        for workers in [1usize, 2, 5] {
            let (results, stats) = with_workers(workers, || {
                run_spmd(10, |ctx| async move { dimension_scan(&ctx, ctx.id().bits()).await })
            });
            assert_eq!(stats.workers, workers);
            assert!(stats.peak_live >= 2, "pool should oversubscribe: {stats:?}");
            match &seen {
                None => seen = Some(results),
                Some(first) => assert_eq!(&results, first, "workers={workers}"),
            }
        }
    }

    #[test]
    fn all_ports_program_is_identical_at_any_worker_count() {
        // Every node sends on every port, then receives in *reverse*
        // port order: up to n messages sit in one inbox at once and are
        // taken out of arrival order. The fold is order-sensitive.
        let n = 10u32;
        let fold = |acc: u64, v: u64| acc.wrapping_mul(1_000_003).wrapping_add(v);
        let expect: Vec<u64> = (0..1u64 << n)
            .map(|x| (0..n).rev().fold(x, |acc, p| fold(acc, (x ^ (1 << p)) * 31 + p as u64)))
            .collect();
        for workers in [1usize, 2, 5] {
            let (results, stats) = with_workers(workers, || {
                run_spmd(n, |ctx| async move {
                    let me = ctx.id().bits();
                    for p in 0..ctx.n() {
                        ctx.send(p, me * 31 + p as u64);
                    }
                    let mut acc = me;
                    for p in (0..ctx.n()).rev() {
                        acc = fold(acc, ctx.recv(p).await);
                    }
                    acc
                })
            });
            assert_eq!(results, expect, "workers={workers}");
            assert_eq!(stats.messages, (n as u64) << n);
        }
    }

    #[test]
    fn backlog_on_another_port_neither_wakes_nor_requeues() {
        // One worker runs a woken node next and otherwise spawns nodes
        // 0..4 in order, so the run is exact:
        //
        // * 0, 1 (after leaving 100, 101 on node 3's port 1) and 2 are
        //   spawned and park: three parks.
        // * 3 is spawned, wakes 2 and then 1 (ready: 1, 2) and awaits
        //   port 0 with a backlog only on port 1 — a fourth park.
        // * 1 takes its message and adds 102..104 on node 3's port 1:
        //   no wake, node 3 awaits port 0. Had one woken it, node 3
        //   would run next, find nothing on port 0 and park again.
        // * 2 takes the 7, wakes 0 and parks on port 1 (the fifth
        //   park); 0 echoes and wakes 2; 2 answers on port 0 and wakes
        //   3, which takes the 8 and then the whole backlog in order.
        //
        // Five parks, five wakes, no more.
        let (results, stats) = with_workers(1, || {
            run_spmd(2, |ctx| async move {
                match ctx.id().bits() {
                    0 => {
                        let echo = ctx.recv(1).await;
                        ctx.send(1, echo);
                    }
                    1 => {
                        (0..2).for_each(|i| ctx.send(1, 100 + i));
                        ctx.recv(1).await;
                        (2..5).for_each(|i| ctx.send(1, 100 + i));
                    }
                    2 => {
                        let go = ctx.recv(0).await;
                        let echoed = ctx.exchange(1, go).await;
                        ctx.send(0, echoed + 1);
                    }
                    _ => {
                        ctx.send(0, 7);
                        ctx.send(1, 0);
                        let mut got = vec![ctx.recv(0).await];
                        for _ in 0..5 {
                            got.push(ctx.recv(1).await);
                        }
                        return got;
                    }
                }
                Vec::new()
            })
        });
        assert_eq!(results[3], [8, 100, 101, 102, 103, 104]);
        assert_eq!((stats.parks, stats.wakes), (5, 5), "{stats:?}");
    }

    #[test]
    fn node_state_need_not_be_send() {
        // A node lives on one worker for the whole run, so its program
        // may keep an `Rc` across a suspension.
        let mut seen: Option<Vec<u64>> = None;
        for workers in [1usize, 2, 5] {
            let (results, _) = with_workers(workers, || {
                run_spmd(6, |ctx| async move {
                    let acc = Rc::new(Cell::new(ctx.id().bits()));
                    for d in 0..ctx.n() {
                        let theirs = ctx.exchange(d, acc.get()).await;
                        acc.set(acc.get().wrapping_mul(31).wrapping_add(theirs));
                    }
                    acc.get()
                })
            });
            match &seen {
                None => seen = Some(results),
                Some(first) => assert_eq!(&results, first, "workers={workers}"),
            }
        }
    }

    #[test]
    fn skewed_program_completes_without_rebalancing() {
        // Nodes 56..64 — inside the last home range at 1, 2 and 5
        // workers — exchange 1 000 times among themselves; the other 56
        // return at once. Nothing migrates to the idle workers.
        let mut seen: Option<Vec<u64>> = None;
        for workers in [1usize, 2, 5] {
            let (results, stats) = with_workers(workers, || {
                run_spmd(6, |ctx| async move {
                    let mut acc = ctx.id().bits();
                    if acc >= 56 {
                        for round in 0..1_000 {
                            acc = acc.wrapping_mul(31) ^ ctx.exchange(round % 3, acc).await;
                        }
                    }
                    acc
                })
            });
            assert_eq!(stats.messages, 8 * 1_000);
            assert_eq!(stats.steals, vec![0; workers]);
            match &seen {
                None => seen = Some(results),
                Some(first) => assert_eq!(&results, first, "workers={workers}"),
            }
        }
    }

    #[test]
    fn a_worker_without_nodes_is_not_waited_for() {
        // 8 nodes on 5 workers: home ranges of 2, so the fifth worker
        // has none and must neither hold up a sweep nor the end.
        let (results, stats) = with_workers(5, || {
            run_spmd(3, |ctx| async move { dimension_scan(&ctx, ctx.id().bits()).await })
        });
        assert_eq!(results, [28; 8]);
        assert_eq!(stats.workers, 5);
    }

    #[test]
    fn deep_backlog_on_one_port_does_not_starve_another() {
        // The inbox is scanned in arrival order, so a receive on port 1
        // behind a 10 000-message backlog on port 0 costs 10 000 tag
        // comparisons: 1 000 such receives are 10^7 comparisons, a few
        // milliseconds. The bound is loose enough for a debug build on
        // a loaded box and tight enough to catch the scan turning into
        // something per-entry expensive (a move, an allocation).
        const BACKLOG: u64 = 10_000;
        const ROUNDS: u64 = 1_000;
        let start = std::time::Instant::now();
        let (results, _) = run_spmd(2, |ctx| async move {
            let me = ctx.id().bits();
            // Node 1 sends the backlog, then a token that reaches node 2
            // by way of node 3: every exchange node 2 answers arrives
            // behind the backlog in node 0's inbox.
            match me {
                1 => {
                    (0..BACKLOG).for_each(|i| ctx.send(0, i));
                    ctx.send(1, 0);
                }
                2 => {
                    ctx.recv(0).await;
                }
                3 => {
                    let token = ctx.recv(1).await;
                    ctx.send(0, token);
                }
                _ => {}
            }
            let mut sum = 0u64;
            if me == 0 || me == 2 {
                for i in 0..ROUNDS {
                    sum += ctx.exchange(1, me + i).await;
                }
            }
            if me == 0 {
                for i in 0..BACKLOG {
                    assert_eq!(ctx.recv(0).await, i, "port 0 out of order");
                }
            }
            sum
        });
        let elapsed = start.elapsed();
        assert_eq!(results[0], 2 * ROUNDS + ROUNDS * (ROUNDS - 1) / 2);
        assert!(elapsed < Duration::from_secs(5), "backlog scan took {elapsed:?}");
    }

    #[test]
    fn giant_cube_rejected() {
        let msg = cubetest::catch(|| {
            let _ = run_spmd::<u64, _, _, _>(17, |_| async move {});
        })
        .unwrap_err();
        assert!(msg.contains("refusing to allocate inboxes for 2^17"), "{msg}");
    }

    #[test]
    fn stall_detector_reports_parked_dims() {
        // Node 0 receives on dim 0 but node 1 never sends: the run makes
        // no progress once everyone else finished, and the detector names
        // the parked node and dimension.
        let msg = cubetest::catch(|| {
            with_stall_timeout(Duration::from_millis(50), || {
                run_spmd::<u64, _, _, _>(2, |ctx| async move {
                    if ctx.id().bits() == 0 {
                        ctx.recv(0).await;
                    }
                    0u64
                })
            })
        })
        .unwrap_err();
        assert!(msg.contains("SPMD scheduler stalled"), "{msg}");
        assert!(msg.contains("node 0 on dim 0"), "{msg}");
        assert!(msg.contains("3/4 node programs completed"), "{msg}");
    }

    #[test]
    fn suspending_on_a_foreign_future_is_reported() {
        for workers in [1usize, 2] {
            let msg = cubetest::catch(|| {
                with_workers(workers, || {
                    run_spmd::<u64, _, _, _>(1, |_| std::future::pending::<()>())
                })
            })
            .unwrap_err();
            assert!(msg.contains("suspended on a foreign future"), "{msg}");
        }
    }

    #[test]
    fn node_program_panic_propagates() {
        let msg = cubetest::catch(|| {
            run_spmd::<u64, _, _, _>(3, |ctx| async move {
                assert!(ctx.id().bits() != 5, "boom on node 5");
                ctx.id().bits()
            })
        })
        .unwrap_err();
        assert!(msg.contains("boom on node 5"), "{msg}");
    }

    #[test]
    fn a_dimension_beyond_the_cube_panics_with_a_link_diagnostic() {
        // A 2-cube has no dimension 2: the send must fail loudly, not
        // deadlock the node waiting for an answer.
        let msg = cubetest::catch(|| {
            run_spmd(2, |ctx| async move {
                if ctx.id().bits() == 0 {
                    ctx.send(2, 7u64);
                }
            })
        })
        .unwrap_err();
        assert!(msg.contains("send on port 2 of node 0"), "{msg}");
        assert!(msg.contains("no such link on the 2-cube"), "{msg}");
    }
}

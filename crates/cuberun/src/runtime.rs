//! Virtual-node SPMD execution: many cube nodes per worker thread.
//!
//! One runtime, two front doors, one data plane. This module holds the
//! free-form door ([`run_spmd`] / [`run_spmd_on`] and the [`NodeCtx`]
//! its programs run against) and what both doors share: the pool size
//! ([`num_workers`], [`with_workers`]), the stall timeout
//! ([`with_stall_timeout`]), the size refusals, the link diagnostic,
//! the join-every-worker loop and [`RunStats`]. The round door —
//! [`crate::run_rounds`], for programs with a fixed round structure —
//! is [`crate::rounds`]; the home ranges and the per-node inbox both
//! doors use are in `sched`.
//!
//! Node programs are written as `async` blocks against [`NodeCtx`]:
//! `send` is immediate (links are buffered), `recv` *suspends* the node
//! until the message arrives, parking the virtual node and yielding the
//! worker instead of blocking an OS thread. The compiler turns each
//! program into a resumable state machine, so 2^16 suspended nodes cost
//! heap bytes, not stacks — the paper's Connection-Machine scale (n = 16,
//! 64K nodes) runs on a handful of workers. A node lives on one worker
//! for the whole run, so a [`NodeCtx`] is `!Send` and a node program
//! may hold non-`Send` state across an `.await`. See the `sched` module
//! for the scheduler internals and the determinism argument.
//!
//! The former thread-per-node runtime survives as [`crate::reference`]
//! (the equivalence tests run both).

use crate::sched::{self, Local, Shared};
use cubeaddr::NodeId;
use cubesync::atomic::Ordering;
use cubesync::sync::{Arc, OnceLock};
use cubesync::thread;
use cubetopo::{TopoSpec, Topology};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Duration;

/// Default for how long the scheduler tolerates a run making no progress
/// before declaring the node programs deadlocked. Algorithms on these
/// cube sizes complete in milliseconds; half a minute of global silence
/// is a bug, and a diagnostic panic beats a hung test suite.
pub(crate) const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(30);

thread_local! {
    /// Worker-count override installed by [`with_workers`].
    static WORKERS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Stall-timeout override installed by [`with_stall_timeout`].
    static STALL_OVERRIDE: Cell<Option<Duration>> = const { Cell::new(None) };
}

/// The worker-pool size for [`run_spmd`]: the [`with_workers`] override
/// if installed, else the `CUBERUN_WORKERS` environment variable, else
/// the ambient `cubesim::par` thread count (`CUBEBENCH_THREADS` /
/// available parallelism) — the pool is sized like the figure sweep's
/// fan-out unless explicitly overridden.
///
/// # Panics
/// If `CUBERUN_WORKERS` is set but not a positive integer — a silent
/// one-worker fallback would quietly serialize the run.
pub fn num_workers() -> usize {
    if let Some(w) = WORKERS_OVERRIDE.with(Cell::get) {
        return w;
    }
    match std::env::var("CUBERUN_WORKERS") {
        Ok(v) => parse_worker_count("CUBERUN_WORKERS", &v),
        Err(_) => cubesim::par::num_threads(),
    }
}

/// Strictly parses a worker-pool size from an environment value: any
/// non-integer, `0`, or negative input panics naming the variable and
/// the offending value rather than silently serializing the run.
pub(crate) fn parse_worker_count(var: &str, raw: &str) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => panic!("{var} must be a positive integer worker count, got {raw:?}"),
    }
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

/// Runs `f` with the scheduler stall timeout pinned to `timeout` on the
/// current thread (restored on exit, even across a panic). Deadlock
/// tests tighten it; loaded CI machines widen it via the environment.
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

/// The scheduler stall timeout: the [`with_stall_timeout`] override if
/// installed, else `CUBERUN_STALL_TIMEOUT_MS`, else
/// [`DEFAULT_STALL_TIMEOUT`]; a set but malformed value panics. (The
/// per-receive watchdog this detector replaced false-positived under
/// heavy oversubscription — a virtual node can legitimately sit parked
/// far longer than any one receive used to take — so its
/// `CUBERUN_RECV_TIMEOUT_MS` is not read here; only
/// [`crate::reference`], which still has that watchdog, reads it.)
pub(crate) fn stall_timeout() -> Duration {
    if let Some(t) = STALL_OVERRIDE.with(Cell::get) {
        return t;
    }
    static TIMEOUT: OnceLock<Duration> = OnceLock::new();
    *TIMEOUT.get_or_init(|| match std::env::var("CUBERUN_STALL_TIMEOUT_MS") {
        Ok(v) => parse_stall_timeout("CUBERUN_STALL_TIMEOUT_MS", &v),
        Err(_) => DEFAULT_STALL_TIMEOUT,
    })
}

/// Parses a stall-timeout value in milliseconds, clamping to
/// [1 ms, 1 h] so a zero can't turn every run into an instant panic and
/// a stray large number can't hang CI for days.
///
/// # Panics
/// On anything that is not an unsigned integer — a malformed timeout
/// silently widening to 30 s would mask exactly the hangs the variable
/// exists to catch.
pub(crate) fn parse_stall_timeout(var: &str, raw: &str) -> Duration {
    match raw.trim().parse::<u64>() {
        Ok(ms) => Duration::from_millis(ms.clamp(1, 3_600_000)),
        Err(_) => panic!("{var} must be an integer number of milliseconds, got {raw:?}"),
    }
}

/// Aggregate statistics of one SPMD run.
///
/// `messages` and `barriers` are deterministic (scheduling-independent);
/// the scheduler counters (`peak_live`, `parks`, `wakes`) depend on
/// timing and worker count. The field docs describe [`run_spmd`]; on
/// the round door workers park, not nodes, and every node state is live
/// from start to end — see [`crate::run_rounds`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total messages sent over all links.
    pub messages: u64,
    /// Total global barrier episodes.
    pub barriers: u64,
    /// Size of the worker pool that executed the run.
    pub workers: usize,
    /// High-water mark of simultaneously live (spawned, unfinished)
    /// virtual-node contexts — the memory footprint the cooperative
    /// scheduler actually paid for. The largest of the samples workers
    /// take as their own share of the live set peaks: never more than a
    /// count that really occurred, and exact when every context is live
    /// at once (any program in which all nodes must start before one can
    /// finish).
    pub peak_live: u32,
    /// Times a virtual node parked (suspended with no message pending
    /// on the awaited port, or on an incomplete barrier).
    pub parks: u64,
    /// Times a parked node was woken by a message or barrier release.
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

/// The per-node handle a node program runs against: its identity plus
/// its communication ports. Obtained from [`run_spmd`] /
/// [`run_spmd_on`]; `recv`, `exchange`, `barrier` and `all_reduce` are
/// `async` and suspend the virtual node, never an OS thread. It is
/// `!Send`: a node never leaves the worker that spawned it.
///
/// On a hypercube a port *is* a cube dimension and every port is wired;
/// on other topologies (e.g. the Swapped Dragonfly) ports are the
/// [`cubetopo::Topology`] port numbering and some may be unwired —
/// sending or receiving on an unwired port panics immediately rather
/// than deadlocking.
pub struct NodeCtx<T> {
    id: NodeId,
    /// The private state of the worker this node lives on.
    local: Rc<Local<T>>,
}

impl<T> NodeCtx<T> {
    pub(crate) fn new(id: NodeId, local: Rc<Local<T>>) -> Self {
        NodeCtx { id, local }
    }

    fn shared(&self) -> &Shared<T> {
        &self.local.shared
    }

    /// This node's address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The cube dimension `n` — an alias of [`NodeCtx::ports`], kept
    /// for the hypercube node programs the paper is written in.
    pub fn n(&self) -> u32 {
        self.shared().ports
    }

    /// Number of communication ports per node (`n` on the cube).
    pub fn ports(&self) -> u32 {
        self.shared().ports
    }

    /// The topology this run executes on.
    pub fn topology(&self) -> TopoSpec {
        self.shared().topo
    }

    /// Number of nodes in the ensemble (`2^n` on the cube).
    pub fn num_nodes(&self) -> usize {
        self.shared().num
    }

    /// The neighbor across `port`, panicking with a link diagnostic if
    /// the port is out of range or unwired on this topology.
    #[track_caller]
    fn wired_neighbor(&self, port: u32, what: &str) -> u64 {
        wired_neighbor(&self.shared().topo, self.id, port, what)
    }

    /// Sends `msg` to the neighbor across port `dim` (immediate; links
    /// are buffered). A neighbor parked on this link becomes runnable
    /// (next in line, if it lives on this worker); a neighbor parked on
    /// another link is left alone.
    #[track_caller]
    pub fn send(&self, dim: u32, msg: T) {
        let peer = self.wired_neighbor(dim, "send");
        let topo = self.shared().topo;
        let back = topo.reverse_port(self.id.bits(), dim).expect("a wired link has a reverse port");
        self.local.send(peer as u32, back, msg);
    }

    /// Receives the next message from the neighbor across port `dim`,
    /// suspending this virtual node until it arrives.
    ///
    /// # Panics
    /// The run panics if no virtual node makes progress for the stall
    /// timeout (30 s by default; `CUBERUN_STALL_TIMEOUT_MS` /
    /// [`with_stall_timeout`]) — a deadlocked node program — or if any
    /// node program panicked.
    #[track_caller]
    pub fn recv(&self, dim: u32) -> Recv<'_, T> {
        let _ = self.wired_neighbor(dim, "recv");
        Recv { ctx: self, dim }
    }

    /// Bidirectional exchange across the link at port `dim`: sends
    /// `msg` and returns the neighbor's message (full-duplex links —
    /// one exchange costs one send on the paper's machines). The
    /// neighbor must exchange on its own port of the same link.
    pub async fn exchange(&self, dim: u32, msg: T) -> T {
        self.send(dim, msg);
        self.recv(dim).await
    }

    /// Global barrier over all nodes.
    pub fn barrier(&self) -> BarrierWait<'_, T> {
        BarrierWait { ctx: self, joined: None }
    }
}

impl<T: Clone> NodeCtx<T> {
    /// All-reduce by dimension scan: every node contributes `value`;
    /// after `n` exchange steps every node holds the fold of all `2^n`
    /// contributions (`combine` must be associative and commutative).
    ///
    /// This is the classic hypercube reduction the paper's machines used
    /// for global sums and synchronization predicates.
    ///
    /// Per dimension the upper node of each link pair moves its partial
    /// down (by value), the lower node folds the pair once and sends one
    /// copy of the result back, and the upper node swaps that in as its
    /// new accumulator. One clone and one `combine` per link per step —
    /// the minimum for owned channels — instead of a clone and a fold on
    /// both ends.
    ///
    /// # Panics
    /// If the run is not on a hypercube — the scan pairs nodes by
    /// address bits, which only the cube's wiring satisfies.
    pub async fn all_reduce(&self, value: T, mut combine: impl FnMut(T, T) -> T) -> T {
        assert!(
            self.shared().topo.is_hypercube(),
            "all_reduce is a hypercube dimension scan; the {} has no such pairing",
            self.shared().topo.label()
        );
        let mut acc = value;
        for d in 0..self.n() {
            if (self.id.0 >> d) & 1 == 0 {
                let theirs = self.recv(d).await;
                acc = combine(acc, theirs);
                self.send(d, acc.clone());
            } else {
                self.send(d, acc);
                acc = self.recv(d).await;
            }
        }
        acc
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
        match self.ctx.local.recv(self.ctx.id.bits() as u32, self.dim) {
            Some(msg) => Poll::Ready(msg),
            None => Poll::Pending,
        }
    }
}

/// Future of [`NodeCtx::barrier`]: arrives once, then waits for the
/// barrier generation to advance. The last arriver passes at once.
#[must_use = "barrier does nothing until awaited"]
pub struct BarrierWait<'a, T> {
    ctx: &'a NodeCtx<T>,
    /// The generation this node arrived in, once registered.
    joined: Option<u64>,
}

impl<T> Future for BarrierWait<'_, T> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.ctx.local.barrier(this.ctx.id.bits() as u32, &mut this.joined) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
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
pub fn run_spmd<T, R, F, Fut>(n: u32, program: F) -> (Vec<R>, RunStats)
where
    T: Send,
    R: Send,
    F: Fn(NodeCtx<T>) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    run_spmd_on(cube(n), program)
}

/// Runs `program` on every node of an arbitrary [`TopoSpec`] topology —
/// the graph-generic twin of [`run_spmd`], which is exactly
/// `run_spmd_on(TopoSpec::hypercube(n), …)`.
///
/// Port numbering follows the topology's [`cubetopo::Topology`]
/// contract: `ctx.send(p, …)` crosses the link at port `p`, and the
/// message arrives at the neighbor's *reverse* port, so `ctx.recv(q)`
/// receives what the neighbor across port `q` sent. Sends and receives
/// on unwired ports (the Swapped Dragonfly's fixed-point gateway ports)
/// panic with a link diagnostic instead of deadlocking. Everything else
/// — the cooperative scheduler, determinism at any worker count, the
/// stall detector — is shared with the cube entry point.
pub fn run_spmd_on<T, R, F, Fut>(topo: TopoSpec, program: F) -> (Vec<R>, RunStats)
where
    T: Send,
    R: Send,
    F: Fn(NodeCtx<T>) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    let workers = pool_size(&topo);
    let shared = Arc::new(Shared::<T>::new(topo, workers, stall_timeout()));

    // Each worker returns its home range's results; the ranges are
    // contiguous and ascending, so the parts concatenate in node order.
    let parts = run_workers(workers, |w| sched::worker_loop(w, &shared, &program));
    let results: Vec<R> = parts
        .into_iter()
        .flatten()
        .enumerate()
        .map(|(x, r)| r.unwrap_or_else(|| panic!("node {x} produced no result")))
        .collect();

    // The scope join above ordered every worker's counter stores before
    // these reads.
    let peak_live = shared.blocks.iter().map(|b| b.peak_live.load(Ordering::Relaxed)).max();
    let stats = RunStats {
        messages: shared.total(|b| &b.messages),
        barriers: shared.barriers.load(Ordering::Relaxed),
        workers,
        peak_live: peak_live.unwrap_or(0) as u32,
        parks: shared.total(|b| &b.parks),
        wakes: shared.total(|b| &b.wakes),
        steals: vec![0; workers],
    };
    (results, stats)
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
    use cubesync::atomic::AtomicU64;

    /// Extracts the message from a caught panic payload (both literal
    /// and formatted panics appear across these tests).
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("non-string panic payload")
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
        let (results, _) = run_spmd(4, |ctx| async move {
            let mut acc = ctx.id().bits();
            for d in 0..ctx.n() {
                acc += ctx.exchange(d, acc).await;
            }
            acc
        });
        let total: u64 = (0..16).sum();
        assert!(results.iter().all(|&r| r == total), "{results:?}");
    }

    #[test]
    fn all_reduce_sum_and_max() {
        let (sums, _) =
            run_spmd(4, |ctx| async move { ctx.all_reduce(ctx.id().bits(), |a, b| a + b).await });
        let total: u64 = (0..16).sum();
        assert!(sums.iter().all(|&s| s == total));
        let (maxes, _) =
            run_spmd(3, |ctx| async move { ctx.all_reduce(ctx.id().bits(), u64::max).await });
        assert!(maxes.iter().all(|&m| m == 7));
    }

    #[test]
    fn all_reduce_clones_once_per_link_step() {
        static CLONES: AtomicU64 = AtomicU64::new(0);
        #[derive(Debug)]
        struct Tracked(u64);
        impl Clone for Tracked {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Ordering::Relaxed);
                Tracked(self.0)
            }
        }
        let n = 3u32;
        let (vals, _) = run_spmd(n, |ctx: NodeCtx<Tracked>| async move {
            ctx.all_reduce(Tracked(ctx.id().bits()), |a, b| Tracked(a.0 + b.0)).await.0
        });
        let total: u64 = (0..8).sum();
        assert!(vals.iter().all(|&v| v == total), "{vals:?}");
        // One clone per link per step (the lower node copying the folded
        // pair back), not one per node: 2^(n-1) links × n steps.
        assert_eq!(CLONES.load(Ordering::Relaxed), (1u64 << (n - 1)) * n as u64);
    }

    #[test]
    fn barrier_counts_episodes() {
        let (_, stats) = run_spmd::<u64, _, _, _>(2, |ctx| async move {
            ctx.barrier().await;
            ctx.barrier().await;
        });
        assert_eq!(stats.barriers, 2);
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
                run_spmd(10, |ctx| async move {
                    ctx.all_reduce(ctx.id().bits(), |a, b| a.wrapping_add(b)).await
                })
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
    fn two_ports_interleaved_stay_fifo_per_link() {
        // Node 0's inbox sees a0 b0 a1 b1 in that arrival order (a
        // barrier after each send pins it) and is read b, b, a, a.
        let (results, _) = run_spmd(2, |ctx| async move {
            let me = ctx.id().bits();
            for step in 0..4u64 {
                match (me, step % 2) {
                    (1, 0) => ctx.send(0, 10 + step / 2), // a: across port 0
                    (2, 1) => ctx.send(1, 20 + step / 2), // b: across port 1
                    _ => {}
                }
                ctx.barrier().await;
            }
            if me != 0 {
                return Vec::new();
            }
            vec![ctx.recv(1).await, ctx.recv(1).await, ctx.recv(0).await, ctx.recv(0).await]
        });
        assert_eq!(results[0], [20, 21, 10, 11]);
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
                    ctx.barrier().await;
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
        // has none and must neither hold up a barrier nor the end.
        let (results, stats) = with_workers(5, || {
            run_spmd(3, |ctx| async move {
                ctx.barrier().await;
                let sum = ctx.all_reduce(ctx.id().bits(), |a, b| a + b).await;
                ctx.barrier().await;
                sum
            })
        });
        assert_eq!(results, [28; 8]);
        assert_eq!((stats.workers, stats.barriers), (5, 2));
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
            if me == 1 {
                (0..BACKLOG).for_each(|i| ctx.send(0, i));
            }
            ctx.barrier().await; // the backlog is in node 0's inbox
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
        let caught = std::panic::catch_unwind(|| {
            let _ = run_spmd::<u64, _, _, _>(17, |_| async move {});
        });
        let msg = panic_message(caught.unwrap_err());
        assert!(msg.contains("refusing to allocate inboxes for 2^17"), "{msg}");
    }

    #[test]
    fn stall_detector_reports_parked_dims() {
        // Node 0 receives on dim 0 but node 1 never sends: the run makes
        // no progress once everyone else finished, and the detector names
        // the parked node and dimension.
        let caught = std::panic::catch_unwind(|| {
            with_stall_timeout(Duration::from_millis(50), || {
                run_spmd::<u64, _, _, _>(2, |ctx| async move {
                    if ctx.id().bits() == 0 {
                        ctx.recv(0).await;
                    }
                    0u64
                })
            })
        });
        let msg = panic_message(caught.unwrap_err());
        assert!(msg.contains("SPMD scheduler stalled"), "{msg}");
        assert!(msg.contains("node 0 on dim 0"), "{msg}");
        assert!(msg.contains("3/4 node programs completed"), "{msg}");
    }

    #[test]
    fn suspending_on_a_foreign_future_is_reported() {
        for workers in [1usize, 2] {
            let caught = std::panic::catch_unwind(|| {
                with_workers(workers, || {
                    run_spmd::<u64, _, _, _>(1, |_| std::future::pending::<()>())
                })
            });
            let msg = panic_message(caught.unwrap_err());
            assert!(msg.contains("suspended on a foreign future"), "{msg}");
        }
    }

    #[test]
    fn node_program_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            run_spmd::<u64, _, _, _>(3, |ctx| async move {
                assert!(ctx.id().bits() != 5, "boom on node 5");
                ctx.id().bits()
            })
        });
        let msg = panic_message(caught.unwrap_err());
        assert!(msg.contains("boom on node 5"), "{msg}");
    }

    #[test]
    fn dragonfly_neighbor_sweep_delivers_on_reverse_ports() {
        // Every Dragonfly node sends its id over every wired port; a
        // recv on port p must yield exactly neighbor(me, p)'s id — the
        // slab indexing and reverse-port resolution in one sweep.
        use cubetopo::SwappedDragonfly;
        let d = SwappedDragonfly::new(2, 3);
        let (results, stats) = run_spmd_on(TopoSpec::dragonfly(2, 3), |ctx| async move {
            let me = ctx.id().bits();
            let wired: Vec<u32> =
                (0..ctx.ports()).filter(|&p| ctx.topology().neighbor(me, p).is_some()).collect();
            for &p in &wired {
                ctx.send(p, me);
            }
            let mut got = Vec::new();
            for &p in &wired {
                got.push(ctx.recv(p).await);
            }
            got
        });
        let mut links = 0u64;
        for x in 0..d.num_nodes() as u64 {
            let expect: Vec<u64> = (0..d.ports()).filter_map(|p| d.neighbor(x, p)).collect();
            links += expect.len() as u64;
            assert_eq!(results[x as usize], expect, "node {x}");
        }
        assert_eq!(stats.messages, links, "one message per wired directed link");
    }

    #[test]
    fn dragonfly_gateway_relay_crosses_groups() {
        // Group 0's router 1 is the gateway toward group 2 on a
        // D3(2,3): node (0,0) hands a token to it over the intra link,
        // the gateway forwards it over its global port, and the arrival
        // router reports what landed — a minimal local-global hop chain
        // through ports the cube runtime never had.
        use cubetopo::SwappedDragonfly;
        let d = SwappedDragonfly::new(2, 3);
        let src = d.node_at(0, 0);
        let gw_router = d.gateway_router(2);
        let gw = d.node_at(0, gw_router);
        let to_gw = d.intra_port(0, gw_router);
        let global = d.global_port_to(gw_router, 2).expect("gateway port is wired");
        // Crossing from group 0, the swap lands on router 0/K = 0.
        let arrival = d.node_at(2, 0);
        let back = d.reverse_port(gw, global).expect("wired link");
        let (results, _) = run_spmd_on(TopoSpec::dragonfly(2, 3), move |ctx| async move {
            let me = ctx.id().bits();
            if me == src {
                ctx.send(to_gw, 99u64);
            } else if me == gw {
                let t = ctx.recv(d.reverse_port(src, to_gw).unwrap()).await;
                ctx.send(global, t);
            } else if me == arrival {
                return Some(ctx.recv(back).await);
            }
            None
        });
        for (x, r) in results.iter().enumerate() {
            assert_eq!(*r, (x as u64 == arrival).then_some(99), "node {x}");
        }
    }

    #[test]
    fn dragonfly_runs_identically_at_any_worker_count() {
        let mut seen: Option<Vec<u64>> = None;
        for workers in [1usize, 2, 5] {
            let (results, stats) = with_workers(workers, || {
                run_spmd_on(TopoSpec::dragonfly(2, 4), |ctx| async move {
                    // Each router rotates its partial around the intra
                    // clique, folding whatever arrives each step.
                    let d = cubetopo::SwappedDragonfly::new(2, 4);
                    let (_, r) = d.coords(ctx.id().bits());
                    let mut acc = ctx.id().bits();
                    for step in 1..4u64 {
                        let to = (r + step) % 4;
                        let from = (r + 4 - step) % 4;
                        ctx.send(d.intra_port(r, to), acc);
                        acc = acc.wrapping_add(ctx.recv(d.intra_port(r, from)).await);
                    }
                    ctx.barrier().await;
                    acc
                })
            });
            assert_eq!(stats.workers, workers);
            assert_eq!(stats.barriers, 1);
            match &seen {
                None => seen = Some(results),
                Some(first) => assert_eq!(&results, first, "workers={workers}"),
            }
        }
    }

    #[test]
    fn unwired_port_panics_with_a_link_diagnostic() {
        // Port 1 of node (0, 0) is group 0's swap fixed point on a
        // D3(2,2): unwired, so a send must fail loudly, not deadlock.
        let caught = std::panic::catch_unwind(|| {
            run_spmd_on(TopoSpec::dragonfly(2, 2), |ctx| async move {
                if ctx.id().bits() == 0 {
                    ctx.send(1, 7u64);
                }
            })
        });
        let msg = panic_message(caught.unwrap_err());
        assert!(msg.contains("send on port 1 of node 0"), "{msg}");
        assert!(msg.contains("no such link on the D3(2,2)"), "{msg}");
    }

    #[test]
    fn all_reduce_rejects_non_hypercubes() {
        let caught = std::panic::catch_unwind(|| {
            run_spmd_on(TopoSpec::dragonfly(2, 2), |ctx| async move {
                ctx.all_reduce(ctx.id().bits(), |a, b| a + b).await
            })
        });
        let msg = panic_message(caught.unwrap_err());
        assert!(msg.contains("hypercube dimension scan"), "{msg}");
    }

    const STALL_VAR: &str = "CUBERUN_STALL_TIMEOUT_MS";

    #[test]
    fn worker_count_parses_positive_integers() {
        assert_eq!(parse_worker_count("CUBERUN_WORKERS", "4"), 4);
        assert_eq!(parse_worker_count("CUBERUN_WORKERS", " 16 "), 16);
    }

    #[test]
    #[should_panic(
        expected = "CUBERUN_WORKERS must be a positive integer worker count, got \"many\""
    )]
    fn worker_count_rejects_garbage() {
        parse_worker_count("CUBERUN_WORKERS", "many");
    }

    #[test]
    #[should_panic(expected = "CUBERUN_WORKERS must be a positive integer worker count, got \"0\"")]
    fn worker_count_rejects_zero() {
        parse_worker_count("CUBERUN_WORKERS", "0");
    }

    #[test]
    #[should_panic(expected = "got \"-2\"")]
    fn worker_count_rejects_negative() {
        parse_worker_count("CUBERUN_WORKERS", "-2");
    }

    #[test]
    fn stall_timeout_parses_and_clamps() {
        // Plain values parse as milliseconds (whitespace tolerated).
        assert_eq!(parse_stall_timeout(STALL_VAR, "250"), Duration::from_millis(250));
        assert_eq!(parse_stall_timeout(STALL_VAR, " 1500 "), Duration::from_millis(1500));
        // Zero clamps up to 1 ms, absurd values down to an hour.
        assert_eq!(parse_stall_timeout(STALL_VAR, "0"), Duration::from_millis(1));
        assert_eq!(parse_stall_timeout(STALL_VAR, "999999999999"), Duration::from_secs(3600));
    }

    #[test]
    #[should_panic(
        expected = "CUBERUN_STALL_TIMEOUT_MS must be an integer number of milliseconds, got \"fast\""
    )]
    fn stall_timeout_rejects_garbage() {
        parse_stall_timeout(STALL_VAR, "fast");
    }

    #[test]
    #[should_panic(
        expected = "CUBERUN_STALL_TIMEOUT_MS must be an integer number of milliseconds, got \"-5\""
    )]
    fn stall_timeout_rejects_negative() {
        parse_stall_timeout(STALL_VAR, "-5");
    }

    #[test]
    #[should_panic(expected = "must be an integer number of milliseconds, got \"\"")]
    fn stall_timeout_rejects_empty() {
        parse_stall_timeout(STALL_VAR, "");
    }
}

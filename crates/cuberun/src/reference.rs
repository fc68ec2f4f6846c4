//! The original thread-per-node runtime, preserved as the executable
//! reference for the virtual-node scheduler.
//!
//! Every cube node is an OS thread and every directed link a buffered
//! channel — exactly the pre-scheduler `cuberun`. It caps out near
//! `n = 10` (2^n OS threads), which is why [`crate::run_spmd`] replaced
//! it, but within that range it is the simplest possible executable
//! spec: the equivalence tests run the same transposes on both runtimes
//! and require identical results.
//!
//! Node programs here are plain blocking closures (`recv` parks the OS
//! thread), with the historical per-receive `CUBERUN_RECV_TIMEOUT_MS`
//! watchdog; the pool runtime replaces that with a scheduler-level
//! stall detector.

use crate::runtime::RunStats;
use cubeaddr::NodeId;
use cubesync::atomic::{AtomicU64, Ordering};
use cubesync::channel::{unbounded, Receiver, Sender};
use cubesync::sync::{Arc, Barrier, OnceLock};
use cubesync::thread;
use std::time::Duration;

/// The receive timeout, read once per process from the
/// `CUBERUN_RECV_TIMEOUT_MS` environment variable: loaded CI machines
/// widen it, deadlock stress tests tighten it. Unset falls back to the
/// shared 30 s default; a set but malformed value panics.
fn recv_timeout() -> Duration {
    static TIMEOUT: OnceLock<Duration> = OnceLock::new();
    *TIMEOUT.get_or_init(|| match std::env::var("CUBERUN_RECV_TIMEOUT_MS") {
        Ok(v) => crate::runtime::parse_stall_timeout("CUBERUN_RECV_TIMEOUT_MS", &v),
        Err(_) => crate::runtime::DEFAULT_STALL_TIMEOUT,
    })
}

/// The per-node handle a blocking node program runs against: its
/// identity plus its `n` communication ports.
pub struct NodeCtx<T> {
    id: NodeId,
    n: u32,
    /// `tx[d]` sends to `id.neighbor(d)`.
    tx: Vec<Sender<T>>,
    /// `rx[d]` receives what `id.neighbor(d)` sent across dimension `d`.
    rx: Vec<Receiver<T>>,
    barrier: Arc<Barrier>,
    messages: Arc<AtomicU64>,
    barriers: Arc<AtomicU64>,
}

impl<T> NodeCtx<T> {
    /// This node's cube address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The cube dimension `n`.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of nodes `2^n`.
    pub fn num_nodes(&self) -> usize {
        1 << self.n
    }

    /// Sends `msg` to the neighbor across dimension `dim` (non-blocking;
    /// links are buffered).
    #[track_caller]
    pub fn send(&self, dim: u32, msg: T) {
        assert!(dim < self.n, "dimension {dim} out of range on node {}", self.id);
        self.messages.fetch_add(1, Ordering::Relaxed);
        // Receivers outlive the scoped threads, so failure means a peer
        // panicked; propagate.
        self.tx[dim as usize].send(msg).expect("peer node terminated");
    }

    /// Receives the next message from the neighbor across dimension
    /// `dim`, blocking this OS thread until it arrives.
    ///
    /// # Panics
    /// After the receive timeout elapses in silence (30 s by default,
    /// overridable via `CUBERUN_RECV_TIMEOUT_MS`; a deadlocked node
    /// program), or if the peer panicked.
    #[track_caller]
    pub fn recv(&self, dim: u32) -> T {
        assert!(dim < self.n, "dimension {dim} out of range on node {}", self.id);
        self.rx[dim as usize].recv_timeout(recv_timeout()).unwrap_or_else(|e| {
            panic!("node {} recv on dim {dim}: {e} (deadlocked node program?)", self.id)
        })
    }

    /// Bidirectional exchange across `dim`: sends `msg` and returns the
    /// neighbor's message.
    pub fn exchange(&self, dim: u32, msg: T) -> T {
        self.send(dim, msg);
        self.recv(dim)
    }

    /// Global barrier over all nodes.
    pub fn barrier(&self) {
        if self.barrier.wait().is_leader() {
            self.barriers.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<T: Clone> NodeCtx<T> {
    /// All-reduce by dimension scan (see
    /// [`crate::NodeCtx::all_reduce`]; same wire protocol, blocking).
    pub fn all_reduce(&self, value: T, mut combine: impl FnMut(T, T) -> T) -> T {
        let mut acc = value;
        for d in 0..self.n {
            if (self.id.0 >> d) & 1 == 0 {
                let theirs = self.recv(d);
                acc = combine(acc, theirs);
                self.send(d, acc.clone());
            } else {
                self.send(d, acc);
                acc = self.recv(d);
            }
        }
        acc
    }
}

/// Runs `program` on every node of an `n`-cube concurrently — one OS
/// thread per node, one channel pair per link — and returns the per-node
/// results in node order plus run statistics.
///
/// The scheduler counters in the returned [`RunStats`] describe the
/// degenerate "pool" this runtime is: one worker per node, every context
/// live at once, no parks, wakes or steals.
pub fn run_spmd_threads<T, R, F>(n: u32, program: F) -> (Vec<R>, RunStats)
where
    T: Send,
    R: Send,
    F: Fn(&NodeCtx<T>) -> R + Sync,
{
    cubeaddr::check_dims(n);
    let num = cubeaddr::num_nodes(n);
    assert!(n <= 10, "refusing to spawn {num} threads; use run_spmd for giant cubes");

    // links[x][d] = channel whose sender is held by x's neighbor across d
    // and whose receiver is held by x.
    let mut senders: Vec<Vec<Option<Sender<T>>>> =
        (0..num).map(|_| (0..n).map(|_| None).collect()).collect();
    let mut receivers: Vec<Vec<Option<Receiver<T>>>> =
        (0..num).map(|_| (0..n).map(|_| None).collect()).collect();
    // Indexed loop: each iteration writes both `senders[x]` and
    // `receivers[peer]` for a derived peer index.
    #[allow(clippy::needless_range_loop)]
    for x in 0..num {
        for d in 0..n as usize {
            let peer = NodeId(x as u64).neighbor(d as u32).index();
            let (tx, rx) = unbounded();
            // x sends to peer on dim d; peer receives on dim d.
            senders[x][d] = Some(tx);
            receivers[peer][d] = Some(rx);
        }
    }

    let barrier = Arc::new(Barrier::new(num));
    let messages = Arc::new(AtomicU64::new(0));
    let barriers = Arc::new(AtomicU64::new(0));

    let mut ctxs: Vec<NodeCtx<T>> = senders
        .into_iter()
        .zip(receivers)
        .enumerate()
        .map(|(x, (tx, rx))| NodeCtx {
            id: NodeId(x as u64),
            n,
            tx: tx.into_iter().map(Option::unwrap).collect(),
            rx: rx.into_iter().map(Option::unwrap).collect(),
            barrier: Arc::clone(&barrier),
            messages: Arc::clone(&messages),
            barriers: Arc::clone(&barriers),
        })
        .collect();

    let program = &program;
    let results: Vec<R> = thread::scope(|scope| {
        let handles: Vec<_> =
            ctxs.drain(..).map(|ctx| scope.spawn(move || program(&ctx))).collect();
        handles.into_iter().map(|h| h.join().expect("node program panicked")).collect()
    });

    (
        results,
        RunStats {
            messages: messages.load(Ordering::Relaxed),
            barriers: barriers.load(Ordering::Relaxed),
            workers: num,
            peak_live: num as u32,
            parks: 0,
            wakes: 0,
            steals: Vec::new(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_swaps_neighbors() {
        let (results, stats) = run_spmd_threads(3, |ctx| ctx.exchange(2, ctx.id().bits()));
        let expect: Vec<u64> = (0..8).map(|x| x ^ 0b100).collect();
        assert_eq!(results, expect);
        assert_eq!(stats.messages, 8);
    }

    #[test]
    fn store_and_forward_chain() {
        // Node 0 sends a token around dims 0,1,2; final holder is node 7.
        let (results, _) = run_spmd_threads(3, |ctx| {
            let x = ctx.id().bits();
            match x {
                0 => {
                    ctx.send(0, vec![99u64]);
                    None
                }
                1 => {
                    let t = ctx.recv(0);
                    ctx.send(1, t);
                    None
                }
                3 => {
                    let t = ctx.recv(1);
                    ctx.send(2, t);
                    None
                }
                7 => Some(ctx.recv(2)),
                _ => None,
            }
        });
        assert_eq!(results[7], Some(vec![99]));
        assert!(results[..7].iter().all(Option::is_none));
    }

    #[test]
    fn all_reduce_and_barrier_match_pool_runtime() {
        // The same logical program on both runtimes: identical results
        // and deterministic counters.
        let (old, old_stats) = run_spmd_threads(4, |ctx| {
            ctx.barrier();
            ctx.all_reduce(ctx.id().bits(), |a, b| a + b)
        });
        let (new, new_stats) = crate::run_spmd(4, |ctx| async move {
            ctx.barrier().await;
            ctx.all_reduce(ctx.id().bits(), |a, b| a + b).await
        });
        assert_eq!(old, new);
        assert_eq!(old_stats.messages, new_stats.messages);
        assert_eq!(old_stats.barriers, new_stats.barriers);
    }

    #[test]
    #[should_panic(expected = "refusing to spawn")]
    fn giant_cube_rejected() {
        let _ = run_spmd_threads::<u64, _, _>(11, |_| ());
    }
}

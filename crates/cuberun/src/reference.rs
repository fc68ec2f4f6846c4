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
//! thread), with a per-receive watchdog of the shared 30 s stall
//! timeout; the pool runtime instead reports a deadlock at the sweep
//! where nothing moved.

use crate::runtime::RunStats;
use cubeaddr::NodeId;
use cubesync::atomic::{AtomicU64, Ordering};
use cubesync::channel::{unbounded, Receiver, Sender};
use cubesync::sync::Arc;
use cubesync::thread;

/// The per-node handle a blocking node program runs against: its
/// identity plus its `n` communication ports.
pub struct NodeCtx<T> {
    id: NodeId,
    n: u32,
    /// `tx[d]` sends to `id.neighbor(d)`.
    tx: Vec<Sender<T>>,
    /// `rx[d]` receives what `id.neighbor(d)` sent across dimension `d`.
    rx: Vec<Receiver<T>>,
    messages: Arc<AtomicU64>,
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
    /// After 30 s of silence (a deadlocked node program), or if the peer
    /// panicked.
    #[track_caller]
    pub fn recv(&self, dim: u32) -> T {
        assert!(dim < self.n, "dimension {dim} out of range on node {}", self.id);
        self.rx[dim as usize].recv_timeout(crate::runtime::DEFAULT_STALL_TIMEOUT).unwrap_or_else(
            |e| panic!("node {} recv on dim {dim}: {e} (deadlocked node program?)", self.id),
        )
    }

    /// Bidirectional exchange across `dim`: sends `msg` and returns the
    /// neighbor's message.
    pub fn exchange(&self, dim: u32, msg: T) -> T {
        self.send(dim, msg);
        self.recv(dim)
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

    let messages = Arc::new(AtomicU64::new(0));

    let mut ctxs: Vec<NodeCtx<T>> = senders
        .into_iter()
        .zip(receivers)
        .enumerate()
        .map(|(x, (tx, rx))| NodeCtx {
            id: NodeId(x as u64),
            n,
            tx: tx.into_iter().map(Option::unwrap).collect(),
            rx: rx.into_iter().map(Option::unwrap).collect(),
            messages: Arc::clone(&messages),
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
    #[should_panic(expected = "refusing to spawn")]
    fn giant_cube_rejected() {
        let _ = run_spmd_threads::<u64, _, _>(11, |_| ());
    }
}

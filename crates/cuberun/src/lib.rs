//! A real message-passing SPMD runtime for Boolean *n*-cube node
//! programs, at Connection-Machine scale.
//!
//! Where `cubesim` *simulates* the paper's machines under their cost
//! model, this crate *executes* the same node programs with genuine
//! message passing. Every cube node is a **virtual node**: an `async`
//! node program compiled into a resumable state machine, multiplexed
//! with all its siblings onto a fixed worker pool by a cooperative
//! scheduler. Every worker owns a contiguous range of nodes outright —
//! their inboxes (one per node), ready queue, futures and results are
//! private to its thread — so a node parks on a `recv` with nothing
//! pending on its port and wakes on the matching `send` without a lock,
//! and only a message to another worker's node goes through one (that
//! worker's mailbox); see `sched`'s module docs for the protocols and
//! the determinism argument. That is how the paper's machines actually
//! worked — a fixed set of virtual processors in each real processor's
//! private memory, links only between real processors — and it lets
//! `n = 16` (65 536 nodes, the paper's Connection Machine scale) run on
//! a laptop's worth of threads.
//!
//! The paper's pseudo-code — `send(buf, j)`, `recv(tmp, j)`, exchanges
//! on a dimension — maps 1:1 onto [`NodeCtx::send`], [`NodeCtx::recv`]
//! and [`NodeCtx::exchange`], so algorithms validated on the simulator
//! can be run end-to-end with real message passing (the role an iPSC
//! node program or a thin MPI layer plays for the original experiments).
//!
//! ```
//! use cuberun::run_spmd;
//!
//! // Every node swaps a value with its dimension-0 neighbor.
//! let (results, stats) =
//!     run_spmd(3, |ctx| async move { ctx.exchange(0, ctx.id().bits()).await });
//! assert_eq!(results, vec![1, 0, 3, 2, 5, 4, 7, 6]);
//! assert_eq!(stats.messages, 8);
//! ```
//!
//! The worker pool is sized by `CUBERUN_WORKERS` (falling back to the
//! ambient `cubesim::par` thread count); results are byte-identical at
//! any pool size. The pre-scheduler thread-per-node runtime survives in
//! [`mod@reference`] as the oracle of the equivalence tests.
//!
//! The runtime is topology-generic underneath: [`run_spmd`] is the
//! hypercube specialization of [`run_spmd_on`], which runs the same
//! node programs on any [`cubetopo::TopoSpec`] (e.g. the Swapped
//! Dragonfly) with ports in place of dimensions.

pub mod collectives;
pub mod reference;
pub mod runtime;
mod sched;

pub use collectives::{all_to_all, broadcast, gather};
pub use runtime::{
    num_workers, run_spmd, run_spmd_on, with_stall_timeout, with_workers, NodeCtx, RunStats,
};

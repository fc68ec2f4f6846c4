//! A real message-passing SPMD runtime for Boolean *n*-cube node
//! programs, at Connection-Machine scale.
//!
//! Where `cubesim` *simulates* the paper's machines under their cost
//! model, this crate *executes* the same node programs with genuine
//! message passing. Every cube node is a **virtual node** hosted, with
//! a contiguous range of its siblings, by one worker of a fixed pool —
//! the way the paper's machines actually worked: a fixed set of virtual
//! processors in each real processor's private memory, links only
//! between real processors. That lets `n = 16` (65 536 nodes, the
//! paper's Connection Machine scale) run on a laptop's worth of
//! threads.
//!
//! # One executor, two front doors
//!
//! Both doors run on the same worker loop: each worker owns a
//! contiguous home range of nodes and their inboxes in its private
//! memory, runs them in supersteps, and trades one batch of messages
//! with every other worker between two steps. Every message is moved
//! by value into the receiver's inbox (per-link FIFO, tagged with the
//! receiver's port); only a message to another worker's node crosses
//! threads, in a batch. The doors share the pool size
//! ([`num_workers`]), the stall timeout and [`RunStats`], and differ in
//! what a node program is:
//!
//! * **[`run_spmd`] — free-form.** An `async` node program against
//!   [`NodeCtx`], compiled into a resumable state machine. A step is a
//!   *sweep*: the worker polls its nodes until each has finished or
//!   waits — a `recv` with nothing pending parks its node, the matching
//!   delivery makes it ready again. The batches' headers tell every
//!   worker at once whether the run is finished or the programs
//!   deadlocked, which is reported at the sweep where nothing moved.
//!   The paper's pseudo-code — `send(buf, j)`, `recv(tmp, j)`,
//!   exchanges on a dimension — maps 1:1 onto
//!   [`NodeCtx::send`], [`NodeCtx::recv`] and [`NodeCtx::exchange`].
//!   Use it when a node decides at run time what to wait for, relays,
//!   or receives before it sends.
//! * **[`run_rounds`] — a fixed round structure.** A [`RoundProgram`]
//!   is a per-round step — `init`, then for every round `send` followed
//!   by `recv`, then `finish` — and a step is a round: each worker *is*
//!   the paper's real processor looping over the virtual processors it
//!   hosts. Nothing is boxed, spawned or suspended. Use it when every
//!   node knows the schedule in advance, as in §5's "for j := n−1
//!   downto 0: exchange on dimension j". A program may declare such a
//!   round ([`RoundProgram::exchange_dim`]); the door then runs it on a
//!   slot per node, and without a batch where every pair is at home.
//!
//! See [`rounds`]' module docs for the worker loop and its batch
//! protocol, and [`runtime`]'s for the sweep rule.
//!
//! The same swap through each door:
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
//! ```
//! use cuberun::{run_rounds, NodeId, Outbox, RoundInbox, RoundProgram};
//!
//! struct Swap;
//! impl RoundProgram<u64> for Swap {
//!     type State = u64;
//!     type Out = u64;
//!     fn rounds(&self) -> u32 {
//!         1
//!     }
//!     fn init(&self, id: NodeId) -> u64 {
//!         id.bits()
//!     }
//!     fn send(&self, _round: u32, _id: NodeId, mine: &mut u64, out: &mut Outbox<'_, u64>) {
//!         out.send(0, *mine);
//!     }
//!     fn recv(&self, _round: u32, _id: NodeId, mine: &mut u64, inbox: &mut RoundInbox<'_, u64>) {
//!         *mine = inbox.take(0).expect("the neighbor sent in this round");
//!     }
//!     fn finish(&self, _id: NodeId, mine: u64) -> u64 {
//!         mine
//!     }
//! }
//!
//! let (results, stats) = run_rounds(3, &Swap);
//! assert_eq!(results, vec![1, 0, 3, 2, 5, 4, 7, 6]);
//! assert_eq!(stats.messages, 8);
//! ```
//!
//! The worker pool is sized by [`with_workers`] (falling back to the
//! figure sweep's thread count, `CUBEBENCH_THREADS`); results are
//! byte-identical at any pool size, on either door. The pre-scheduler thread-per-node
//! runtime survives in [`mod@reference`] as the oracle of the
//! equivalence tests.
//!
//! The round door is topology-generic underneath: [`run_rounds`] is the
//! hypercube specialization of [`run_rounds_on`], which runs the same
//! round programs on any [`cubetopo::TopoSpec`] (e.g. the Swapped
//! Dragonfly) with ports in place of dimensions. [`run_spmd`] runs on
//! the cube only.

pub mod reference;
pub mod rounds;
pub mod runtime;
mod sched;

pub use cubeaddr::NodeId;
pub use rounds::{run_rounds, run_rounds_on, Outbox, RoundInbox, RoundProgram};
pub use runtime::{num_workers, run_spmd, with_stall_timeout, with_workers, NodeCtx, RunStats};

//! Generic personalized-communication algorithms on Boolean *n*-cubes
//! (paper §3).
//!
//! Everything here moves *source-tagged blocks* ([`block::Block`]) between
//! nodes of a simulated cube ([`cubesim::SimNet`]): every planned message
//! is charged to the net under the paper's cost model, and every block is
//! moved once, from its source to its destination, when its route ends.
//! Each algorithm exists once, as the schedule [`plan`] builds; the
//! modules below tag their payloads, build that schedule and hand it to
//! the one executor, [`exec`]:
//!
//! * [`sbt`] — spanning binomial trees: standard, translated, rotated and
//!   reflected variants (Definitions 8–9).
//! * [`one_to_all`] — one-to-all personalized communication: SBT routing
//!   for one-port, `n` rotated SBTs for n-port.
//! * [`exchange`] — the standard exchange algorithm for all-to-all
//!   personalized communication (one-port), with the unbuffered, buffered
//!   and idealized send policies of §8.1.
//! * [`sbnt`] — spanning balanced *n*-tree routing: path generation by the
//!   paper's `base`/nearest-one forwarding rule and an n-port all-to-all
//!   built on it.
//! * [`some_to_all`] — some-to-all / all-to-some personalized
//!   communication as `k` splitting (or accumulation) steps composed with
//!   `l` all-to-all steps in the order of Theorem 1.
//! * [`graph`] — the store-and-forward router, on any
//!   [`cubetopo::MinimalRoute`] topology (e.g. the Swapped Dragonfly).
//! * [`ecube`] — that router on the cube (dimension-ordered), the
//!   "routing logic" baseline of the experiments.
//! * [`plan`] — all the above as first-class, payload-free data: the
//!   schedules the engines run, the `cubecheck` invariant checkers
//!   analyse and the planning-cost benchmarks time.
//! * [`exec`] — the executor: charges planned rounds to a `SimNet`,
//!   tracks where every block is and lands each once, and turns a
//!   schedule that misplaces one into a diagnostic. Its metadata walk,
//!   [`exec::run`], also serves movers that place their own data
//!   (`cubetranspose`'s one-dimensional transposes, `relayout` and
//!   arbitrary permutation): they charge a plan and copy once.

pub mod block;
pub mod ecube;
pub mod exchange;
pub mod exec;
pub mod graph;
pub mod one_to_all;
pub mod plan;
pub mod sbnt;
pub mod sbt;
pub mod some_to_all;

pub use block::{Block, BlockMsg};
pub use exchange::BufferPolicy;

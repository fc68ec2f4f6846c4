//! Generic personalized-communication algorithms on Boolean *n*-cubes
//! (paper §3).
//!
//! Everything here moves *source-tagged blocks* ([`block::Block`]) between
//! nodes of a simulated cube ([`cubesim::SimNet`]), charging the paper's
//! cost model while really moving the data. Each algorithm exists once,
//! as the schedule [`plan`] builds; the modules below tag their payloads,
//! build that schedule and hand it to the one executor, [`exec`]:
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
//! * [`exec`] — the executor: runs planned rounds on a `SimNet` with the
//!   real blocks, and turns a schedule that misplaces one into a
//!   diagnostic.

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

//! Generic personalized-communication algorithms on Boolean *n*-cubes
//! (paper §3).
//!
//! Each algorithm exists once, as the schedule a [`plan`] builder
//! returns: blocks are `(src, dst, elems)` records, and every round
//! lists the blocks that cross each directed link. Running an algorithm
//! is handing its plan to the one executor, [`exec`], which charges every
//! planned message to a simulated cube ([`cubesim::SimNet`]) under the
//! paper's cost model and, given payloads ([`block::Block`]), moves each
//! block once, from its source to its destination, when its route ends:
//!
//! * [`plan`] — the schedules, payload-free: the standard exchange under
//!   the unbuffered, buffered and idealized send policies of §8.1
//!   (all-to-all, and the splitting and accumulation phases of
//!   some-to-all and all-to-some in Theorem 1's order), SBT and
//!   rotated / reflected tree families for one-to-all, SBnT routing, and
//!   the router's flight plans. The `cubecheck` invariant checkers
//!   analyse these schedules and the planning-cost benchmarks time them.
//! * [`exec`] — the executor: charges planned rounds to a `SimNet`,
//!   tracks where every block is and lands each once, and turns a
//!   schedule that misplaces one into a diagnostic. Its metadata walk,
//!   [`exec::run`], also serves movers that place their own data
//!   (`cubetranspose`'s one-dimensional transposes, `relayout` and
//!   arbitrary permutation): they charge a plan and copy once.
//! * [`sbt`] — spanning binomial trees: standard, translated, rotated and
//!   reflected variants (Definitions 8–9), and §3.1's tree families.
//! * [`exchange`] — the exchange's send policy, and
//!   [`exchange::exchange_over_dims`], which runs the exchange on payload
//!   blocks from wherever they are held.
//! * [`sbnt`] — the spanning balanced *n*-tree forwarding rule (the
//!   paper's `base`/nearest-one paths), and [`sbnt::all_to_all_sbnt`] on
//!   payloads.
//! * [`graph`] — the store-and-forward router, on any
//!   [`cubetopo::MinimalRoute`] topology (e.g. the Swapped Dragonfly).
//! * [`ecube`] — that router on the cube (dimension-ordered), the
//!   "routing logic" baseline of the experiments.

pub mod block;
pub mod ecube;
pub mod exchange;
pub mod exec;
pub mod graph;
pub mod plan;
pub mod sbnt;
pub mod sbt;

pub use block::{Block, BlockMsg};
pub use exchange::BufferPolicy;

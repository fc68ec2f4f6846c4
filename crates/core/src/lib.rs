//! Matrix transposition algorithms on Boolean *n*-cube configured
//! ensemble architectures — the primary contribution of Johnsson & Ho
//! (YALEU/DCS/TR-572, 1987).
//!
//! The crate provides every transpose algorithm of the paper, executable
//! on the `cubesim` cost-model simulator (every message is charged to
//! the net, and each array really moves, once, to where its route ends;
//! time, start-ups and link loads are accounted):
//!
//! * [`fieldmap`] — the *general exchange algorithm* engine (Definitions
//!   10–11): any rearrangement expressible as pairings of address-field
//!   dimensions — real↔virtual exchanges (distance 1), real↔real swaps
//!   (distance 2), and free virtual↔virtual relabelings — executed with
//!   exact cost accounting. The standard exchange algorithm, the §6.2
//!   assignment-scheme conversions, bit reversal and dimension
//!   permutations are all instances.
//! * [`one_dim`] — one-dimensional-partitioning transposes (§5): the
//!   standard exchange algorithm with the §8.1 buffering policies, and
//!   the n-port SBnT-routed variant.
//! * [`two_dim`] — the pairwise two-dimensional transposes of §6.1:
//!   Single Path (SPT), Dual Paths (DPT) and Multiple Paths (MPT)
//!   pipelined packet algorithms with their edge-disjoint path systems.
//! * [`convert`] — §6.2: transposition with change of assignment scheme
//!   (consecutive ↔ cyclic), algorithms 1, 2 and 3.
//! * [`gray`] — §6.3: Gray↔binary re-encoding transposes: the naive
//!   `2n - 2`-step composition and the combined `n`-step algorithm.
//! * [`permute`] — §7: bit-reversal, dimension permutations by parallel
//!   swapping (Lemma 15), and arbitrary permutations via two all-to-all
//!   personalized communications.
//! * [`local`] — in-node dense transpose kernels (naive and
//!   register-tiled) used by the conversion algorithms and examples.
//! * [`inplace`] — the C2R/R2C in-place transpose decomposition
//!   (Catanzaro et al., PPoPP 2014): O(mn) work, O(max(m,n)) auxiliary
//!   space.
//! * [`verify`] — helpers asserting that a distributed matrix really is
//!   the transpose of its input (label tracking).

pub mod convert;
pub mod driver;
pub mod fieldmap;
mod flight;
pub mod gray;
pub mod inplace;
pub mod local;
pub mod one_dim;
pub mod permute;
#[doc(hidden)]
pub mod reference;
pub mod relayout;
pub mod spmd;
pub mod two_dim;
pub mod verify;

pub use driver::{execute, plan, Choice};
pub use fieldmap::{FieldMap, MappedMatrix};
pub use one_dim::{transpose_1d_exchange, transpose_1d_sbnt};
pub use relayout::relayout;
pub use two_dim::{transpose_dpt, transpose_mpt, transpose_spt, transpose_spt_stepwise};

/// The allocation gates' counter (`local::alloc_gate_tests`): the test
/// kit's counting allocator, installed once for the unit-test binary.
#[cfg(test)]
#[global_allocator]
static GLOBAL: cubetest::alloc::Counting = cubetest::alloc::Counting;

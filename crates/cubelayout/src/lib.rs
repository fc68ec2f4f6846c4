//! Matrix-to-processor data layouts for Boolean *n*-cube ensembles.
//!
//! A `2^p × 2^q` matrix element `a(u, v)` has the natural address
//! `w = (u || v)` of `m = p + q` bits (paper §2). A *layout* selects a
//! subset of those `m` address dimensions as the **real processor** address
//! field (possibly re-encoded by a binary-reflected Gray code) and uses the
//! remaining **virtual processor** dimensions as the local storage address
//! inside a node.
//!
//! The paper's *cyclic*, *consecutive* and *combined* assignments (for
//! one- and two-dimensional partitionings, Definitions 6–7, Tables 1–2)
//! are all instances; this crate implements the general form and the named
//! special cases, along with:
//!
//! * forward and inverse placement maps ([`Layout::place`],
//!   [`Layout::element_at`]),
//! * the `R_b`, `R_a`, `I` dimension-set analysis that classifies the
//!   communication pattern of a transposition ([`pattern`]),
//! * a distributed matrix container used by the simulator and the SPMD
//!   runtime ([`dist::DistMatrix`]),
//! * textual renderings of the paper's Tables 1 and 2 ([`table`]).

pub mod dist;
pub mod field;
pub mod layout;
pub mod parse;
pub mod pattern;
pub mod scheme;
mod separable;
pub mod table;

pub use dist::DistMatrix;
pub use field::{FieldGroup, SubField};
pub use layout::{Layout, Placement};
pub use pattern::{classify_transpose, CommPattern, TransposeSpec};
pub use scheme::{Assignment, Direction, Encoding};

//! Static analysis of Boolean-cube communication schedules.
//!
//! The paper's complexity claims all rest on *structural* properties of
//! the communication schedules — properties the simulator can only
//! witness dynamically, run by run. This crate proves them statically:
//!
//! 1. [`cubecomm::plan`] builders produce a [`CommSchedule`] — the
//!    schedule as data, no payloads, no simulator.
//! 2. [`ir::lower`] flattens it against a [`cubesim::MachineParams`]
//!    into per-round *link claims* `(round, src, dim, elems, packets)`.
//! 3. [`rules::check_all`] runs the five checkers; each violation is a
//!    structured [`diag::Diag`] naming the schedule, round, node, link,
//!    broken [`diag::Rule`] and the paper clause it contradicts.
//! 4. [`exec::run_schedule`] folds a schedule into the
//!    [`cubesim::CommReport`] a run of it produces — no simulator, one
//!    pass over its sends and copies, each round closed by the
//!    simulator's own [`cubesim::RoundCost`] — and
//!    [`crossval::cross_validate`] ties the static story to the dynamic
//!    one: the lowered claims must coincide, round for round and link
//!    for link, with the [`cubesim::CommReport::link_history`] of that
//!    fold or of an actual execution, and with its critical path and
//!    maxima. Property tests enforce this on random schedules, run by
//!    `cubecomm::exec` and the router, so the checkers are guaranteed to
//!    be analyzing the schedules that really run.
//!
//! The `cubecheck` binary lints the figure workloads
//! ([`workloads`]) at the benchmarked cube sizes, so CI catches any
//! schedule regression before it shows up as a wrong curve.

pub mod crossval;
pub mod diag;
pub mod exec;
pub mod ir;
pub mod rules;
pub mod workloads;

pub use crossval::cross_validate;
pub use cubecomm::plan::CommSchedule;
pub use diag::{Diag, Rule};
pub use exec::run_schedule;
pub use ir::{lower, LinkClaim, Lowered};
pub use rules::check_all;

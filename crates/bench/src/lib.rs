//! Figure-regeneration support library.
//!
//! Shared helpers for the `figures` binary that regenerates the tables
//! and figures of the Johnsson–Ho paper. See
//! `EXPERIMENTS.md` at the repository root for the experiment index.

pub mod experiments;
pub mod series;

#[cfg(test)]
mod tests;

pub use series::{Series, SeriesSet};

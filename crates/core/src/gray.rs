//! Combining transpose and Gray-code/binary-code conversion (§6.3).
//!
//! With the row index encoded in binary and the column index in the
//! binary-reflected Gray code, matrix block `(u, v)` lives at processor
//! `(u ‖ G(v))` and must reach processor `(v ‖ G(u))`. Two routes:
//!
//! * the **naive** composition — re-encode the rows binary→Gray and the
//!   columns Gray→binary (each `n/2 - 1` exchange steps), then run the
//!   plain `n`-step pairwise transpose: `2n - 2` routing steps;
//! * the **combined** algorithm — one pass of `n/2` iterations, each
//!   fixing bit `j` of both halves with at most one row-dimension and one
//!   column-dimension routing step per block: `n` routing steps.
//!
//! The implementation drives both from the *block identity*: each is a
//! flight plan (`crate::flight`) with one flight per block `(u, v)` and
//! one path entry per routing step, which fixes one bit of the row or
//! column field toward the node the block is bound for — a crossing where
//! its current node differs there, a hold elsewhere. The simulator's
//! contention checks verify that the schedule stays conflict-free, and
//! every block's landing node is checked against the output's layout
//! before its array is written there, once. The combined plan also runs
//! on `cuberun`'s round door ([`crate::spmd::spmd_transpose_combined_gray`]).
//! The paper's case table (even-block-row / even-parity-block-column
//! flags) is the control-driven computation of the same moves; the tests
//! keep it as the oracle of which nodes the plan sends from, and on which
//! dimension, iteration by iteration.

use crate::flight::{run_flights, FlightPlan, Landing};
use cubeaddr::NodeId;
use cubelayout::{Assignment, DistMatrix, Encoding, Layout};
use cubesim::SimNet;

/// A mixed-encoding square two-dimensional problem: `half` processor
/// dimensions per direction, with chosen encodings before and after.
#[derive(Clone, Copy, Debug)]
pub struct MixedSpec {
    /// Row/column index bits of `A` (square blocks: `p = q`).
    pub p: u32,
    /// Processor dimensions per direction.
    pub half: u32,
    /// Row encoding (before and after — the transpose keeps per-direction
    /// encodings).
    pub row_enc: Encoding,
    /// Column encoding.
    pub col_enc: Encoding,
}

impl MixedSpec {
    /// Standard instance: binary rows, Gray columns (the paper's worked
    /// case).
    pub fn binary_rows_gray_cols(p: u32, half: u32) -> Self {
        MixedSpec { p, half, row_enc: Encoding::Binary, col_enc: Encoding::Gray }
    }

    /// The layout of `A`.
    pub fn before(&self) -> Layout {
        Layout::two_dim(
            self.p,
            self.p,
            (self.half, Assignment::Consecutive, self.row_enc),
            (self.half, Assignment::Consecutive, self.col_enc),
        )
    }

    /// The layout of `A^T` (same per-direction encodings).
    pub fn after(&self) -> Layout {
        self.before().swapped_shape()
    }

    /// Node holding block `(u, v)` of `A`: `(E_r(u) ‖ E_c(v))` over the
    /// *block* indices (the high `half` bits of each matrix index).
    pub fn node_of(&self, bu: u64, bv: u64) -> NodeId {
        NodeId(cubeaddr::concat(self.row_enc.encode(bu), self.col_enc.encode(bv), self.half))
    }
}

/// A block's target node, from its block indices `(u, v)`.
type Target<'a> = &'a dyn Fn(u64, u64) -> u64;

/// The routing steps of the plain pairwise transpose: for each bit `j`
/// descending, a row-dimension step then a column-dimension step.
fn transpose_steps(half: u32) -> Vec<u32> {
    (0..half).rev().flat_map(|j| [half + j, j]).collect()
}

/// The routing steps that re-encode the row (`row_field`) or column
/// field between binary and Gray: bits `half - 2 … 0` (the top bits of
/// both codes agree). Each step's move is decided from the block's
/// target, which subsumes the descending (Gray→binary) and ascending
/// (binary→Gray) sweeps of the paper's conversion.
fn recode_steps(half: u32, row_field: bool) -> impl Iterator<Item = u32> {
    let base = if row_field { half } else { 0 };
    (0..half.saturating_sub(1)).rev().map(move |j| base + j)
}

/// Moves every block `(u, v)` of `m` (laid out by `spec.before()`) as one
/// flight, one round per routing step of the phases `(steps, target)`,
/// crossing where its node and `target(u, v)` differ, and has `run`
/// execute the plan. The block must land at the last phase's target, as
/// that node's array — transposed when `transpose` — of `layout`.
fn move_blocks<'m, T: Copy>(
    spec: &MixedSpec,
    m: &'m DistMatrix<T>,
    phases: &[(Vec<u32>, Target)],
    transpose: bool,
    layout: Layout,
    run: impl FnOnce(&FlightPlan) -> Landing<'m, T>,
) -> DistMatrix<T> {
    let before = spec.before();
    assert!(m.layout() == &before, "matrix laid out as {:?}, not as {before:?}", m.layout());
    let num = 1u64 << (2 * spec.half);
    let block = |i: u64| (i >> spec.half, i & ((1 << spec.half) - 1));
    let mut plan = FlightPlan::new(phases.iter().map(|(steps, _)| steps.len()).sum());
    for (u, v) in (0..num).map(block) {
        let src = spec.node_of(u, v);
        let mut at = src.bits();
        let steps = phases.iter().flat_map(|(steps, target)| {
            let t = target(u, v);
            steps.iter().map(move |&d| (t, d))
        });
        let path = plan.path(steps.map(|(t, d)| {
            let cross = ((at ^ t) >> d) & 1 == 1;
            at ^= u64::from(cross) << d;
            cross.then_some(d)
        }));
        plan.fly(src, path, 0, m.node(src).len());
    }
    // Flight `i` carries block `block(i)`.
    let (_, target) = phases.last().expect("a pass has a phase");
    let (rows, cols) = (before.local_rows(), before.local_cols());
    let mut landing = run(&plan);
    let mut buffers: Vec<Vec<T>> = (0..num).map(|_| Vec::new()).collect();
    for (i, f) in plan.flights.iter().enumerate() {
        let ((u, v), x) = (block(i as u64), landing.ledger[i].bits());
        assert_eq!(target(u, v), x, "block ({u}, {v}) stranded at node {x}");
        let arr = landing.array(f.src, i..i + 1);
        buffers[x as usize] =
            if transpose { crate::local::transposed(arr, rows, cols) } else { arr.into_owned() };
    }
    DistMatrix::from_buffers(layout, buffers)
}

/// The combined conversion-and-transpose algorithm (§6.3): `n/2`
/// iterations, each fixing bit `j` of the row and column halves —
/// `n = 2·half` routing steps total. Block `(u, v)` goes straight to
/// `(E_r(v) ‖ E_c(u))`. Panics, as the other movers here do, if `m` is
/// not laid out by `spec.before()`.
pub fn transpose_combined<T: Copy + Default>(
    spec: &MixedSpec,
    m: &DistMatrix<T>,
    net: &mut SimNet<Vec<T>>,
) -> DistMatrix<T> {
    combined(spec, m, |plan| Landing::charged(run_flights(net, plan), m))
}

/// [`transpose_combined`] on either substrate: `run` executes its plan.
pub(crate) fn combined<'m, T: Copy>(
    spec: &MixedSpec,
    m: &'m DistMatrix<T>,
    run: impl FnOnce(&FlightPlan) -> Landing<'m, T>,
) -> DistMatrix<T> {
    let target = |u: u64, v: u64| spec.node_of(v, u).bits();
    move_blocks(spec, m, &[(transpose_steps(spec.half), &target)], true, spec.after(), run)
}

/// The naive composition (§6.3): re-encode the row field to the *column*
/// encoding and the column field to the *row* encoding (so that the plain
/// exchange transpose lands blocks on the right nodes), then transpose:
/// `2n - 2` routing steps when exactly one of the encodings is Gray.
///
/// Block `(u, v)` ends at `(E_c(v) ‖ E_r(u))`, the same physical placement
/// `A^T` wants once its fields are read with the swapped encodings — the
/// paper's accounting simply *declares* the fields so. The output is laid
/// out that way, so both algorithms produce the same dense matrix.
pub fn transpose_naive_mixed<T: Copy + Default>(
    spec: &MixedSpec,
    m: &DistMatrix<T>,
    net: &mut SimNet<Vec<T>>,
) -> DistMatrix<T> {
    let half = spec.half;
    let swapped = MixedSpec { row_enc: spec.col_enc, col_enc: spec.row_enc, ..*spec };
    // Phase 1: convert the row field from E_r(u) to E_c(u) and the column
    // field from E_c(v) to E_r(v) (only needed when the encodings differ):
    // per §6.3, a Gray↔binary conversion within every column (row)
    // subcube, half - 1 steps each.
    let recode = if spec.row_enc != spec.col_enc {
        recode_steps(half, true).chain(recode_steps(half, false)).collect()
    } else {
        Vec::new()
    };
    let recoded = |u: u64, v: u64| swapped.node_of(u, v).bits();
    // Phase 2: the plain pairwise transpose of the re-encoded fields.
    let target = |u: u64, v: u64| swapped.node_of(v, u).bits();
    let phases = [(recode, &recoded as Target), (transpose_steps(half), &target)];
    let run = |plan: &FlightPlan| Landing::charged(run_flights(net, plan), m);
    move_blocks(spec, m, &phases, true, swapped.before(), run)
}

/// Re-encodes a mixed-encoding matrix in place on the cube: converts the
/// row and/or column processor fields between binary and Gray encodings
/// *without* transposing, in at most `half - 1` exchange steps per
/// changed field (the conversion of §6.3's first paragraph; the top bit
/// never moves because binary and Gray codes share it).
///
/// Returns the re-encoded matrix (laid out per the new encodings).
pub fn recode_encodings<T: Copy + Default>(
    spec: &MixedSpec,
    m: &DistMatrix<T>,
    net: &mut SimNet<Vec<T>>,
    row_to: Encoding,
    col_to: Encoding,
) -> DistMatrix<T> {
    let recoded = MixedSpec { row_enc: row_to, col_enc: col_to, ..*spec };
    let mut steps = Vec::new();
    if spec.row_enc != row_to {
        steps.extend(recode_steps(spec.half, true));
    }
    if spec.col_enc != col_to {
        steps.extend(recode_steps(spec.half, false));
    }
    let target = |u: u64, v: u64| recoded.node_of(u, v).bits();
    let run = |plan: &FlightPlan| Landing::charged(run_flights(net, plan), m);
    move_blocks(spec, m, &[(steps, &target)], false, recoded.before(), run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_dense_transposed, labels};
    use cubesim::{MachineParams, PortMode};

    fn net(n: u32) -> SimNet<Vec<u64>> {
        SimNet::new(n, MachineParams::unit(PortMode::AllPorts))
    }

    #[test]
    fn combined_transposes_binary_rows_gray_cols() {
        for (p, half) in [(3, 2), (4, 2), (4, 3)] {
            let spec = MixedSpec::binary_rows_gray_cols(p, half);
            let m = labels(spec.before());
            let mut net = net(2 * half);
            let out = transpose_combined(&spec, &m, &mut net);
            assert_dense_transposed(&m, &out);
            let r = net.finalize();
            assert_eq!(r.rounds, 2 * half as usize, "n routing steps");
        }
    }

    #[test]
    fn combined_handles_all_encoding_pairs() {
        for row_enc in [Encoding::Binary, Encoding::Gray] {
            for col_enc in [Encoding::Binary, Encoding::Gray] {
                let spec = MixedSpec { p: 4, half: 2, row_enc, col_enc };
                let m = labels(spec.before());
                let mut net = net(4);
                let out = transpose_combined(&spec, &m, &mut net);
                assert_dense_transposed(&m, &out);
                net.finalize();
            }
        }
    }

    #[test]
    fn naive_matches_combined_result() {
        let spec = MixedSpec::binary_rows_gray_cols(4, 2);
        let m = labels(spec.before());
        let mut net1 = net(4);
        let combined = transpose_combined(&spec, &m, &mut net1);
        let mut net2 = net(4);
        let naive = transpose_naive_mixed(&spec, &m, &mut net2);
        assert_dense_transposed(&m, &naive);
        // Same dense content even though the two outputs use swapped
        // field encodings internally.
        assert_eq!(combined.gather(), naive.gather());
    }

    #[test]
    fn naive_needs_2n_minus_2_steps() {
        let spec = MixedSpec::binary_rows_gray_cols(4, 3);
        let n = 2 * spec.half as usize;
        let m = labels(spec.before());
        let mut net2 = net(6);
        let _ = transpose_naive_mixed(&spec, &m, &mut net2);
        let r = net2.finalize();
        assert_eq!(r.rounds, 2 * n - 2, "naive round count");
    }

    #[test]
    fn combined_beats_naive_time() {
        // Figure 15: the combined algorithm's advantage approaches
        // (2n-2)/n for transfer-dominated runs.
        let spec = MixedSpec::binary_rows_gray_cols(5, 2);
        let m = labels(spec.before());
        let params = MachineParams::unit(PortMode::AllPorts);
        let mut net1: SimNet<Vec<u64>> = SimNet::new(4, params.clone());
        let _ = transpose_combined(&spec, &m, &mut net1);
        let r1 = net1.finalize();
        let mut net2: SimNet<Vec<u64>> = SimNet::new(4, params);
        let _ = transpose_naive_mixed(&spec, &m, &mut net2);
        let r2 = net2.finalize();
        assert!(r1.time < r2.time, "combined {} vs naive {}", r1.time, r2.time);
        let ratio = r2.time / r1.time;
        let n = 4.0;
        assert!((ratio - (2.0 * n - 2.0) / n).abs() < 0.35, "ratio {ratio}");
    }

    #[test]
    fn recode_gray_to_binary_and_back() {
        let spec = MixedSpec::binary_rows_gray_cols(4, 3);
        let m = labels(spec.before());
        let mut net1 = net(6);
        // Columns Gray → binary (half - 1 = 2 steps).
        let bin = recode_encodings(&spec, &m, &mut net1, Encoding::Binary, Encoding::Binary);
        let r = net1.finalize();
        assert_eq!(r.rounds, 2, "half - 1 exchange steps");
        // Placement now matches the all-binary layout.
        let bin_spec =
            MixedSpec { p: 4, half: 3, row_enc: Encoding::Binary, col_enc: Encoding::Binary };
        let want = labels(bin_spec.before());
        assert_eq!(bin, want);
        // Back to Gray columns: identity roundtrip.
        let mut net2 = net(6);
        let back = recode_encodings(&bin_spec, &bin, &mut net2, Encoding::Binary, Encoding::Gray);
        assert_eq!(back, m);
    }

    #[test]
    fn recode_both_fields() {
        let spec = MixedSpec { p: 3, half: 2, row_enc: Encoding::Gray, col_enc: Encoding::Gray };
        let m = labels(spec.before());
        let mut net1 = net(4);
        let out = recode_encodings(&spec, &m, &mut net1, Encoding::Binary, Encoding::Binary);
        let r = net1.finalize();
        assert_eq!(r.rounds, 2, "(half-1) per changed field");
        let want_spec =
            MixedSpec { p: 3, half: 2, row_enc: Encoding::Binary, col_enc: Encoding::Binary };
        assert_eq!(out, labels(want_spec.before()));
    }

    /// A node's action in one iteration of the §6.3 pseudo-code.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Action {
        /// `recv(tmp, j+n/2); send(tmp, j)`: pass a block on.
        Relay,
        /// `send(buf, j+n/2); recv(buf, j)`.
        RowFirst,
        /// `send(buf, j); recv(buf, j+n/2)`.
        ColFirst,
    }

    /// The case table of §6.3, verbatim: a node's action from
    /// `(even-block-row, even-parity-block-column, bit j+n/2, bit j)`.
    fn case(ebr: bool, epbc: bool, hi: bool, lo: bool) -> Action {
        const T: bool = true;
        const F: bool = false;
        match (ebr, epbc, hi, lo) {
            (T, T, F, F) | (T, T, T, T) | (F, F, F, T) | (F, F, T, F) => Action::Relay,
            (T, T, F, T) | (T, T, T, F) | (F, F, F, F) | (F, F, T, T) => Action::RowFirst,
            (T, F, F, T) | (T, F, T, F) | (F, T, F, F) | (F, T, T, T) => Action::RowFirst,
            (T, F, F, F) | (T, F, T, T) | (F, T, F, T) | (F, T, T, F) => Action::ColFirst,
        }
    }

    /// The sends the case table makes, per iteration: node `x` runs the
    /// pseudo-code's loop from its own address bits, and its action's one
    /// send is `(x, j)` for a relay or a column-first node and
    /// `(x, j + half)` for a row-first one. Each list is sorted.
    fn table_sends(half: u32) -> Vec<Vec<(u64, u32)>> {
        let mut sends = vec![Vec::new(); half as usize];
        for x in 0..1u64 << (2 * half) {
            let bit = |pos: u32| (x >> pos) & 1 == 1;
            let (mut ebr, mut epbc) = (true, true);
            for (i, j) in (0..half).rev().enumerate() {
                let dim = match case(ebr, epbc, bit(j + half), bit(j)) {
                    Action::Relay | Action::ColFirst => j,
                    Action::RowFirst => j + half,
                };
                sends[i].push((x, dim));
                ebr = !bit(j + half);
                epbc ^= bit(j);
            }
        }
        sends.iter_mut().for_each(|s| s.sort_unstable());
        sends
    }

    /// The sends of a combined plan, per iteration — cycles `2i` and
    /// `2i + 1` — with each flight's node when it sends. Each list is
    /// sorted.
    fn plan_sends(plan: &FlightPlan, half: u32) -> Vec<Vec<(u64, u32)>> {
        let mut sends = vec![Vec::new(); half as usize];
        for (id, f) in plan.flights.iter().enumerate() {
            let mut at = f.src.bits();
            for cycle in 0..2 * half as usize {
                if let Some(dim) = plan.step(id, cycle) {
                    sends[cycle / 2].push((at, dim));
                    at ^= 1 << dim;
                }
            }
        }
        sends.iter_mut().for_each(|s| s.sort_unstable());
        sends
    }

    /// The §6.3 case table is the oracle of the combined plan: node by
    /// node and iteration by iteration it names the nodes that send and
    /// the dimension each sends on, one send per node per iteration.
    #[test]
    fn case_table_predicts_the_combined_plans_senders() {
        for (p, half) in [(3u32, 2u32), (4, 2), (4, 3), (5, 2), (6, 4)] {
            let spec = MixedSpec::binary_rows_gray_cols(p, half);
            let m = labels(spec.before());
            let mut net = net(2 * half);
            let mut sends = Vec::new();
            let out = combined(&spec, &m, |plan| {
                sends = plan_sends(plan, half);
                Landing::charged(run_flights(&mut net, plan), &m)
            });
            assert_dense_transposed(&m, &out);
            assert_eq!(sends, table_sends(half), "p={p} half={half}");
            let per_iteration = 1usize << (2 * half);
            assert!(sends.iter().all(|s| s.len() == per_iteration), "p={p} half={half}");
        }
    }

    #[test]
    #[should_panic(expected = "matrix laid out as")]
    fn combined_refuses_a_matrix_not_laid_out_by_the_spec() {
        let spec = MixedSpec::binary_rows_gray_cols(3, 2);
        let m = labels(Layout::square(3, 3, 2, Assignment::Cyclic, Encoding::Binary));
        transpose_combined(&spec, &m, &mut net(4));
    }

    #[test]
    fn pure_binary_combined_equals_plain_transpose() {
        // With binary encodings on both sides the combined algorithm is
        // the plain n-step pairwise transpose.
        let spec =
            MixedSpec { p: 4, half: 2, row_enc: Encoding::Binary, col_enc: Encoding::Binary };
        let m = labels(spec.before());
        let mut n1 = net(4);
        let out = transpose_combined(&spec, &m, &mut n1);
        assert_dense_transposed(&m, &out);
        let r = n1.finalize();
        assert_eq!(r.rounds, 4);
    }
}

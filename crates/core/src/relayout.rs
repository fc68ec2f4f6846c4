//! Storage-form conversion without transposition (§5, Corollaries 6–7).
//!
//! "The conversion of the storage form of a matrix stored in `2^{|R_b|}`
//! processors from any one of the following storage forms — consecutive
//! row, consecutive column, cyclic row, cyclic column, combined cyclic and
//! consecutive row/column storage — to any other of these forms requires
//! communication from each of the processors to `2^{|R_a|} - 1` other
//! processors, if `I = ∅`." The standard exchange algorithm performs any
//! such conversion; this module drives it from a pair of layouts of the
//! *same* matrix.

use crate::one_dim::{held_and_dims, route_blocks, Routed};
use cubeaddr::NodeId;
use cubecomm::exchange::{exchange_over_dims, BufferPolicy};
use cubecomm::BlockMsg;
use cubelayout::pattern::{relayout_moves, relayout_traffic};
use cubelayout::{DistMatrix, Layout};
use cubesim::SimNet;

/// Moves the matrix from its current layout to `to` (no transposition:
/// element `(u, v)` stays element `(u, v)`), by the standard exchange
/// algorithm over the node dimensions any element actually crosses.
///
/// # Panics
/// If the shapes differ, or on routing violations.
#[track_caller]
pub fn relayout<T: Copy + Default + Send + Sync>(
    m: &DistMatrix<T>,
    to: &Layout,
    net: &mut SimNet<BlockMsg<Routed<T>>>,
    policy: BufferPolicy,
) -> DistMatrix<T> {
    let from = m.layout();
    assert_eq!((from.p(), from.q()), (to.p(), to.q()), "shape mismatch");
    let num = from.num_nodes().max(to.num_nodes());
    let (held, dims) =
        held_and_dims(route_blocks(m, num, &relayout_traffic(from, to), relayout_moves(from, to)));
    let result = exchange_over_dims(net, held, &dims, policy);

    let mut out = DistMatrix::<T>::zeroed(to.clone());
    for (x, blks) in result.into_iter().enumerate() {
        for b in blks {
            assert_eq!(b.dst.index(), x);
            for (local, value) in b.data {
                out.node_mut(NodeId(x as u64))[local as usize] = value;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubelayout::{Assignment, Direction, Encoding, TransposeSpec};
    use cubesim::{MachineParams, PortMode};

    /// The six §5 storage forms on a 2^4 × 2^4 matrix over a 2-cube.
    fn forms() -> Vec<(&'static str, Layout)> {
        vec![
            (
                "consecutive row",
                Layout::one_dim(
                    4,
                    4,
                    Direction::Rows,
                    2,
                    Assignment::Consecutive,
                    Encoding::Binary,
                ),
            ),
            (
                "consecutive column",
                Layout::one_dim(
                    4,
                    4,
                    Direction::Cols,
                    2,
                    Assignment::Consecutive,
                    Encoding::Binary,
                ),
            ),
            (
                "cyclic row",
                Layout::one_dim(4, 4, Direction::Rows, 2, Assignment::Cyclic, Encoding::Binary),
            ),
            (
                "cyclic column",
                Layout::one_dim(4, 4, Direction::Cols, 2, Assignment::Cyclic, Encoding::Binary),
            ),
            (
                "combined row",
                Layout::new(
                    4,
                    4,
                    cubelayout::SubField::contiguous_at(1, 2, 4, Encoding::Binary),
                    cubelayout::SubField::empty(),
                ),
            ),
            (
                "combined column",
                Layout::new(
                    4,
                    4,
                    cubelayout::SubField::empty(),
                    cubelayout::SubField::contiguous_at(1, 2, 4, Encoding::Binary),
                ),
            ),
        ]
    }

    /// Corollary 6: every pair of the six §5 storage forms converts
    /// correctly, and when the real dimension sets are disjoint the
    /// traffic reaches all `2^{|R_a|} - 1` other processors.
    #[test]
    fn corollary6_all_pairs_convert() {
        let all = forms();
        let m0 = DistMatrix::from_fn(all[0].1.clone(), |u, v| (u << 4) | v);
        for (name_from, from) in &all {
            // Re-layout the canonical data into the source form first.
            let mut net0 = SimNet::new(2, MachineParams::unit(PortMode::OnePort));
            let src = relayout(&m0, from, &mut net0, BufferPolicy::Ideal);
            for (name_to, to) in &all {
                let mut net = SimNet::new(2, MachineParams::unit(PortMode::OnePort));
                let out = relayout(&src, to, &mut net, BufferPolicy::Ideal);
                for (u, v) in to.elements() {
                    assert_eq!(
                        out.get(u, v),
                        (u << 4) | v,
                        "{name_from} → {name_to} at ({u}, {v})"
                    );
                }
            }
        }
    }

    /// Corollary 7: cyclic ↔ consecutive conversion is all-to-all
    /// personalized communication when `P ≥ N²`.
    #[test]
    fn corollary7_cyclic_consecutive_is_all_to_all() {
        // P = 2^4 = 16, N = 4: P ≥ N².
        let from = Layout::one_dim(4, 2, Direction::Rows, 2, Assignment::Cyclic, Encoding::Binary);
        let to =
            Layout::one_dim(4, 2, Direction::Rows, 2, Assignment::Consecutive, Encoding::Binary);
        // Count distinct destinations per source.
        let mut dests = vec![std::collections::HashSet::new(); 4];
        for (u, v) in from.elements() {
            let s = from.place(u, v).node.index();
            let d = to.place(u, v).node.index();
            dests[s].insert(d);
        }
        for (s, ds) in dests.iter().enumerate() {
            assert_eq!(ds.len(), 4, "source {s} must reach all processors");
        }
        // And the conversion executes.
        let m = DistMatrix::from_fn(from.clone(), |u, v| (u, v));
        let mut net = SimNet::new(2, MachineParams::unit(PortMode::OnePort));
        let out = relayout(&m, &to, &mut net, BufferPolicy::Ideal);
        assert_eq!(out.get(13, 2), (13, 2));
    }

    /// A conversion is *not* a transposition: composing a relayout with
    /// the transpose spec still classifies correctly.
    #[test]
    fn relayout_then_transpose() {
        let a = Layout::one_dim(3, 3, Direction::Rows, 2, Assignment::Cyclic, Encoding::Binary);
        let b =
            Layout::one_dim(3, 3, Direction::Rows, 2, Assignment::Consecutive, Encoding::Binary);
        let m = crate::verify::labels(a.clone());
        let mut net = SimNet::new(2, MachineParams::unit(PortMode::OnePort));
        let moved = relayout(&m, &b, &mut net, BufferPolicy::Ideal);
        // Now transpose from the consecutive form.
        let after = b.swapped_shape();
        let spec = TransposeSpec::with_after(b.clone(), after.clone());
        assert_eq!(spec.classify(), cubelayout::CommPattern::AllToAll);
        let mut net2 = SimNet::new(2, MachineParams::unit(PortMode::OnePort));
        let out =
            crate::one_dim::transpose_1d_exchange(&moved, &after, &mut net2, BufferPolicy::Ideal);
        crate::verify::assert_transposed(&a, &out);
    }

    /// Identity conversion moves nothing.
    #[test]
    fn identity_relayout_is_free() {
        let l = Layout::one_dim(3, 3, Direction::Cols, 2, Assignment::Cyclic, Encoding::Binary);
        let m = crate::verify::labels(l.clone());
        let mut net = SimNet::new(2, MachineParams::unit(PortMode::OnePort));
        let out = relayout(&m, &l, &mut net, BufferPolicy::Ideal);
        assert_eq!(out, m);
        let r = net.finalize();
        assert_eq!(r.total_elems, 0);
        assert_eq!(r.rounds, 0);
    }
}

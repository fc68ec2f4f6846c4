//! Communication-pattern analysis of a transposition between two layouts.
//!
//! The paper classifies the global communication of
//! `loc(u||v) ← loc(v||u)` by the dimension sets `R_b` (matrix-address
//! dimensions mapped to real processors before) and `R_a` (after), and
//! their intersection `I`:
//!
//! * `I = R_b = R_a` — communication between *distinct source/destination
//!   pairs* of processors (the basic two-dimensional transpose, §6.1);
//! * `I = ∅`, `|R_b| = |R_a|` — *all-to-all personalized communication*
//!   (every one-dimensional partitioning, §5);
//! * `I = ∅`, `|R_b| ≠ |R_a|` — *some-to-all* / *all-to-some* personalized
//!   communication with `k = ||R_b| - |R_a||` splitting/accumulation steps
//!   and `l = min(|R_b|, |R_a|)` all-to-all steps (§3.3, Table 3);
//! * anything else — the general mixed case (treated in the paper's
//!   reference \[4\]).

use crate::layout::Layout;
use crate::separable::{MoveTables, PlaceTables};
use cubeaddr::{DimSet, NodeId};

/// A transposition problem: the layout of `A` before, and the layout the
/// transpose `A^T` must have after.
#[derive(Clone, Debug)]
pub struct TransposeSpec {
    /// Layout of the `2^p × 2^q` input matrix `A`.
    pub before: Layout,
    /// Layout of the `2^q × 2^p` output matrix `A^T`.
    pub after: Layout,
}

/// Global communication structure of a transposition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommPattern {
    /// No interprocessor communication at all (e.g. a vector transpose, or
    /// `n = 0`).
    Local,
    /// Communication restricted to distinct source/destination processor
    /// pairs: node `x` exchanges with `tr(x)` only.
    PairwiseExchange,
    /// All-to-all personalized communication on `2^n` nodes.
    AllToAll,
    /// Some-to-all (`|R_b| < |R_a|`, data splitting) or all-to-some
    /// (`|R_b| > |R_a|`, data accumulation) personalized communication.
    SomeToAll {
        /// Splitting/accumulation steps `k = ||R_b| - |R_a||`.
        k: u32,
        /// All-to-all steps `l = min(|R_b|, |R_a|)`.
        l: u32,
        /// True for splitting (one-to-many side), false for accumulation.
        splitting: bool,
    },
    /// `I ≠ ∅` but `I ≠ R_b` or `I ≠ R_a`: composite pattern.
    Mixed,
}

impl TransposeSpec {
    /// The canonical same-scheme transpose: `A^T` uses this layout's rule
    /// on the transposed shape (row field still partitions rows), per
    /// Definition 1. Requires the fields to fit the swapped shape —
    /// always true for square matrices.
    #[track_caller]
    pub fn symmetric(before: Layout) -> Self {
        let after = before.swapped_shape();
        TransposeSpec { before, after }
    }

    /// Builds a spec with an explicitly different output layout.
    ///
    /// # Panics
    /// If the shapes are inconsistent (`after` must be `2^q × 2^p`).
    #[track_caller]
    pub fn with_after(before: Layout, after: Layout) -> Self {
        assert_eq!(after.p(), before.q(), "A^T row count must be Q");
        assert_eq!(after.q(), before.p(), "A^T column count must be P");
        TransposeSpec { before, after }
    }

    /// `R_b`: matrix-address dimensions (in `w = (u||v)` space) that are
    /// real-processor dimensions before the transpose.
    pub fn r_before(&self) -> DimSet {
        self.before.real_dims_w()
    }

    /// `R_a`: matrix-address dimensions of `A` that are real-processor
    /// dimensions after the transpose.
    ///
    /// The after-layout addresses `A^T` by `w' = (v || u)`; this method
    /// translates its real dimensions back into `w = (u || v)` positions.
    pub fn r_after(&self) -> DimSet {
        let p = self.before.p();
        let q = self.before.q();
        // In w' = (v || u): u-bits occupy positions 0..p, v-bits p..p+q.
        // In w  = (u || v): u-bit j is at q + j, v-bit j is at j.
        let dims = self.after.real_dims_w().iter().map(|i| {
            if i < p {
                // u-bit j = i.
                q + i
            } else {
                // v-bit j = i - p.
                i - p
            }
        });
        DimSet::from_dims(dims)
    }

    /// `I = R_b ∩ R_a`.
    pub fn intersection(&self) -> DimSet {
        self.r_before().intersect(self.r_after())
    }

    /// Source node of element `(u, v)`.
    #[inline]
    pub fn src(&self, u: u64, v: u64) -> NodeId {
        self.before.place(u, v).node
    }

    /// Destination node of element `(u, v)` (where `a^T(v, u)` must live).
    #[inline]
    pub fn dst(&self, u: u64, v: u64) -> NodeId {
        self.after.place(v, u).node
    }

    /// Classifies the global communication (see [`CommPattern`]).
    pub fn classify(&self) -> CommPattern {
        let rb = self.r_before();
        let ra = self.r_after();
        let i = rb.intersect(ra);
        if let Some(map) = self.node_map() {
            let identity = map.iter().enumerate().all(|(s, d)| d.index() == s);
            return if identity { CommPattern::Local } else { CommPattern::PairwiseExchange };
        }
        if rb.is_empty() && ra.is_empty() {
            return CommPattern::Local;
        }
        if i.is_empty() {
            if rb.len() == ra.len() {
                return CommPattern::AllToAll;
            }
            return CommPattern::SomeToAll {
                k: rb.len().abs_diff(ra.len()),
                l: rb.len().min(ra.len()),
                splitting: ra.len() > rb.len(),
            };
        }
        CommPattern::Mixed
    }

    /// Both layouts tabulated by the `(u, v)` of `A`: element `(u, v)`
    /// leaves `before.place(u, v)` and arrives at `after.place(v, u)`.
    fn tables(&self) -> MoveTables {
        MoveTables::new(PlaceTables::new(&self.before), PlaceTables::new(&self.after).transposed())
    }

    /// When every source node communicates with exactly one destination
    /// node and the induced node map is injective, returns that map
    /// (`map[src] = dst`); otherwise `None`.
    pub fn node_map(&self) -> Option<Vec<NodeId>> {
        self.tables().node_map(self.before.num_nodes().max(self.after.num_nodes()))
    }

    /// True when the node-level communication is a (nontrivial or trivial)
    /// permutation.
    pub fn is_pairwise(&self) -> bool {
        self.node_map().is_some()
    }

    /// The traffic matrix: `counts[s][d]` = number of elements node `s`
    /// must send to node `d ≠ s` (diagonal counts elements that stay).
    pub fn traffic_matrix(&self) -> Vec<Vec<usize>> {
        self.tables().traffic(self.before.num_nodes(), self.after.num_nodes())
    }

    /// Iterates every element move `(u, v, src, src_local, dst, dst_local)`
    /// in row-major `(u, v)` order.
    pub fn moves(&self) -> impl Iterator<Item = ElementMove> {
        self.tables().into_moves()
    }
}

/// A storage-form change of the *same* matrix (no transposition): element
/// `(u, v)` goes from `from.place(u, v)` to `to.place(u, v)`.
#[track_caller]
fn relayout_tables(from: &Layout, to: &Layout) -> MoveTables {
    MoveTables::new(PlaceTables::new(from), PlaceTables::new(to))
}

/// The traffic matrix of a storage-form change of the *same* matrix (no
/// transposition): `counts[s][d]` = number of elements `(u, v)` with
/// `from.place(u, v)` on node `s` and `to.place(u, v)` on node `d`.
///
/// # Panics
/// If the layouts' shapes differ.
#[track_caller]
pub fn relayout_traffic(from: &Layout, to: &Layout) -> Vec<Vec<usize>> {
    relayout_tables(from, to).traffic(from.num_nodes(), to.num_nodes())
}

/// Iterates every element move of a storage-form change of the *same*
/// matrix, in row-major `(u, v)` order: element `(u, v)` goes from
/// `from.place(u, v)` to `to.place(u, v)`.
///
/// # Panics
/// If the layouts' shapes differ.
#[track_caller]
pub fn relayout_moves(from: &Layout, to: &Layout) -> impl Iterator<Item = ElementMove> {
    relayout_tables(from, to).into_moves()
}

/// One element's source and destination placement in a transposition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ElementMove {
    /// Row index in `A`.
    pub u: u64,
    /// Column index in `A`.
    pub v: u64,
    /// Owning node before.
    pub src: NodeId,
    /// Local address before.
    pub src_local: u64,
    /// Owning node after.
    pub dst: NodeId,
    /// Local address after.
    pub dst_local: u64,
}

/// Convenience wrapper: classify the symmetric transpose of a layout.
pub fn classify_transpose(layout: &Layout) -> CommPattern {
    TransposeSpec::symmetric(layout.clone()).classify()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{Assignment, Direction, Encoding};

    #[test]
    fn one_dim_is_all_to_all() {
        // p = q = 4, n = 2, cyclic columns: every processor sends
        // PQ/N^2 = 16 elements to every other processor.
        let l = Layout::one_dim(4, 4, Direction::Cols, 2, Assignment::Cyclic, Encoding::Binary);
        let spec = TransposeSpec::symmetric(l);
        assert_eq!(spec.classify(), CommPattern::AllToAll);
        assert!(spec.intersection().is_empty());
        let t = spec.traffic_matrix();
        for (s, row) in t.iter().enumerate() {
            for (d, &c) in row.iter().enumerate() {
                assert_eq!(c, 16, "traffic[{s}][{d}]");
            }
        }
    }

    #[test]
    fn one_dim_consecutive_to_cyclic_all_to_all() {
        // Conversion combined with transpose keeps I = ∅ (Lemma 7 setting).
        let before =
            Layout::one_dim(4, 4, Direction::Rows, 2, Assignment::Consecutive, Encoding::Binary);
        let after = Layout::one_dim(4, 4, Direction::Rows, 2, Assignment::Cyclic, Encoding::Binary);
        let spec = TransposeSpec::with_after(before, after);
        assert_eq!(spec.classify(), CommPattern::AllToAll);
    }

    #[test]
    fn square_two_dim_is_pairwise() {
        for scheme in [Assignment::Cyclic, Assignment::Consecutive] {
            for enc in [Encoding::Binary, Encoding::Gray] {
                let l = Layout::square(3, 3, 2, scheme, enc);
                let spec = TransposeSpec::symmetric(l);
                assert_eq!(
                    spec.classify(),
                    CommPattern::PairwiseExchange,
                    "scheme={scheme:?} enc={enc:?}"
                );
                // I = R_b = R_a.
                assert_eq!(spec.intersection(), spec.r_before());
                assert_eq!(spec.r_before(), spec.r_after());
            }
        }
    }

    #[test]
    fn pairwise_node_map_is_tr() {
        // Binary square layout: node (x_r||x_c) sends to (x_c||x_r).
        let l = Layout::square(3, 3, 2, Assignment::Consecutive, Encoding::Binary);
        let spec = TransposeSpec::symmetric(l);
        for (u, v) in spec.before.elements() {
            let s = spec.src(u, v).bits();
            let d = spec.dst(u, v).bits();
            let (hi, lo) = cubeaddr::split(s, 2);
            assert_eq!(d, cubeaddr::concat(lo, hi, 2));
        }
    }

    #[test]
    fn vector_transpose_is_local() {
        // A 1 × Q matrix (p = 0) partitioned by columns transposes with no
        // data movement when A^T is viewed through the relabeled layout.
        let l = Layout::one_dim(0, 4, Direction::Cols, 2, Assignment::Cyclic, Encoding::Binary);
        let after = l.relabeled();
        let spec = TransposeSpec::with_after(l, after);
        assert_eq!(spec.classify(), CommPattern::Local);
        for (u, v) in spec.before.elements() {
            assert_eq!(spec.src(u, v), spec.dst(u, v));
        }
    }

    #[test]
    fn mixed_assignment_all_to_all_when_disjoint() {
        // §6: consecutive rows / cyclic columns with q-n_c ≥ n_r and
        // p-n_r ≥ n_c gives I = ∅, all-to-all.
        let before = Layout::two_dim(
            4,
            4,
            (1, Assignment::Consecutive, Encoding::Binary),
            (1, Assignment::Cyclic, Encoding::Binary),
        );
        let spec = TransposeSpec::symmetric(before);
        assert!(spec.intersection().is_empty());
        assert_eq!(spec.classify(), CommPattern::AllToAll);
    }

    #[test]
    fn some_to_all_when_sizes_differ() {
        // Before: only 2^1 processors hold data (1D over 1 dim);
        // after: 2^3 processors. k = 2 splitting steps, l = 1.
        let before =
            Layout::one_dim(2, 4, Direction::Cols, 1, Assignment::Cyclic, Encoding::Binary);
        // A^T is 2^4 × 2^2: partition its rows over 3 dims.
        let after =
            Layout::one_dim(4, 2, Direction::Rows, 3, Assignment::Consecutive, Encoding::Binary);
        let spec = TransposeSpec::with_after(before, after);
        match spec.classify() {
            CommPattern::SomeToAll { k, l, splitting } => {
                assert_eq!(k, 2);
                assert_eq!(l, 1);
                assert!(splitting);
            }
            other => panic!("expected some-to-all, got {other:?}"),
        }
    }

    #[test]
    fn traffic_conserves_elements() {
        let l = Layout::square(3, 3, 1, Assignment::Cyclic, Encoding::Gray);
        let spec = TransposeSpec::symmetric(l);
        let total: usize = spec.traffic_matrix().iter().flatten().sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn moves_cover_all_elements() {
        let l = Layout::square(2, 2, 1, Assignment::Consecutive, Encoding::Binary);
        let spec = TransposeSpec::symmetric(l);
        let moves: Vec<_> = spec.moves().collect();
        assert_eq!(moves.len(), 16);
        for mv in moves {
            assert_eq!(spec.after.element_at(mv.dst, mv.dst_local), (mv.v, mv.u));
        }
    }
}

//! A matrix distributed over the nodes of a cube according to a [`Layout`].
//!
//! `DistMatrix` is the data container shared by the schedule simulator and
//! the SPMD runtime: per-node flat buffers indexed by the layout's local
//! (virtual-processor) address. Elements are generic `Copy` values; tests
//! and the verification harness use `u64` element *labels* `w = (u || v)`
//! so that any misrouted element is immediately identifiable.

use crate::layout::{Layout, Placement};
use crate::separable::PlaceTables;
use cubeaddr::NodeId;

/// A `2^p × 2^q` matrix stored as one flat buffer per cube node.
#[derive(Clone, PartialEq, Debug)]
pub struct DistMatrix<T> {
    layout: Layout,
    /// `buffers[node][local]`.
    buffers: Vec<Vec<T>>,
}

impl<T: Copy + Default> DistMatrix<T> {
    /// Allocates a distributed matrix of default-valued elements.
    pub fn zeroed(layout: Layout) -> Self {
        let nodes = layout.num_nodes();
        let per = layout.elems_per_node();
        DistMatrix { layout, buffers: vec![vec![T::default(); per]; nodes] }
    }
}

impl<T: Copy> DistMatrix<T> {
    /// Builds the matrix by evaluating `f(u, v)` for every element, in
    /// row-major order, and placing it per the layout.
    pub fn from_fn(layout: Layout, mut f: impl FnMut(u64, u64) -> T) -> Self {
        let tables = PlaceTables::new(&layout);
        // Element (0, 0) doubles as the fill value: a layout is a
        // bijection, so every other slot is overwritten below.
        let first = f(0, 0);
        let mut buffers = vec![vec![first; layout.elems_per_node()]; layout.num_nodes()];
        for (u, row) in tables.rows.iter().enumerate() {
            for (v, col) in tables.cols.iter().enumerate().skip(usize::from(u == 0)) {
                let pl = row.with(*col);
                buffers[pl.node.index()][pl.local as usize] = f(u as u64, v as u64);
            }
        }
        DistMatrix { layout, buffers }
    }

    /// The layout governing this matrix.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    fn at(&self, pl: Placement) -> T {
        self.buffers[pl.node.index()][pl.local as usize]
    }

    /// Element access through the layout map.
    #[track_caller]
    pub fn get(&self, u: u64, v: u64) -> T {
        self.at(self.layout.place(u, v))
    }

    /// Mutable element access through the layout map.
    #[track_caller]
    pub fn set(&mut self, u: u64, v: u64, value: T) {
        let pl = self.layout.place(u, v);
        self.buffers[pl.node.index()][pl.local as usize] = value;
    }

    /// Borrow of one node's local buffer.
    pub fn node(&self, node: NodeId) -> &[T] {
        &self.buffers[node.index()]
    }

    /// Mutable borrow of one node's local buffer.
    pub fn node_mut(&mut self, node: NodeId) -> &mut [T] {
        &mut self.buffers[node.index()]
    }

    /// Consumes the matrix into its per-node buffers (node order).
    pub fn into_buffers(self) -> Vec<Vec<T>> {
        self.buffers
    }

    /// Reassembles from per-node buffers under a (possibly different)
    /// layout.
    ///
    /// # Panics
    /// If the buffer shape does not match the layout.
    #[track_caller]
    pub fn from_buffers(layout: Layout, buffers: Vec<Vec<T>>) -> Self {
        assert_eq!(buffers.len(), layout.num_nodes());
        for b in &buffers {
            assert_eq!(b.len(), layout.elems_per_node());
        }
        DistMatrix { layout, buffers }
    }

    /// Gathers into a dense row-major `P × Q` matrix (test/verification
    /// helper).
    pub fn gather(&self) -> Vec<Vec<T>> {
        let tables = PlaceTables::new(&self.layout);
        tables
            .rows
            .iter()
            .map(|row| tables.cols.iter().map(|col| self.at(row.with(*col))).collect())
            .collect()
    }
}

/// Builds the canonical *label matrix* whose element `(u, v)` carries the
/// value `w = (u << q) | v`. Transposition correctness is then the
/// statement that after the algorithm, node/local position
/// `after.place(v, u)` holds label `(u << q) | v`.
pub fn label_matrix(layout: Layout) -> DistMatrix<u64> {
    let q = layout.q();
    DistMatrix::from_fn(layout, |u, v| (u << q) | v)
}

/// Checks that `m` holds the transpose of the label matrix built on
/// `before`: element `(v, u)` of `m` must carry label `(u << before.q) | v`.
///
/// Returns the first offending `(u, v, found)` triple, or `None` when the
/// transpose is correct.
///
/// # Panics
/// If `m` is not a `2^q × 2^p` matrix for the `2^p × 2^q` layout `before`.
#[track_caller]
pub fn check_transposed_labels(before: &Layout, m: &DistMatrix<u64>) -> Option<(u64, u64, u64)> {
    let (p, q) = (before.p(), before.q());
    assert_eq!((m.layout.p(), m.layout.q()), (q, p), "result is not shaped as the transpose");
    // Indexed by the (u, v) of `before`: rows[u] is what `m`'s column u
    // contributes.
    let tables = PlaceTables::new(&m.layout).transposed();
    for (u, row) in tables.rows.iter().enumerate() {
        for (v, col) in tables.cols.iter().enumerate() {
            let found = m.at(row.with(*col));
            let (u, v) = (u as u64, v as u64);
            if found != (u << q) | v {
                return Some((u, v, found));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{Assignment, Direction, Encoding};

    fn sample_layout() -> Layout {
        Layout::square(2, 2, 1, Assignment::Consecutive, Encoding::Binary)
    }

    #[test]
    fn from_fn_and_get() {
        let m = DistMatrix::from_fn(sample_layout(), |u, v| 10 * u + v);
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(m.get(u, v), 10 * u + v);
            }
        }
    }

    #[test]
    fn gather_is_row_major() {
        let m = DistMatrix::from_fn(sample_layout(), |u, v| (u, v));
        let g = m.gather();
        assert_eq!(g[3][1], (3, 1));
        assert_eq!(g.len(), 4);
        assert_eq!(g[0].len(), 4);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = DistMatrix::<u64>::zeroed(sample_layout());
        m.set(2, 3, 99);
        assert_eq!(m.get(2, 3), 99);
        assert_eq!(m.get(3, 2), 0);
    }

    #[test]
    #[should_panic(expected = "element (4, 0) is outside the 2^2 × 2^2 matrix")]
    fn get_rejects_an_index_out_of_range() {
        label_matrix(sample_layout()).get(4, 0);
    }

    #[test]
    #[should_panic(expected = "element (1, 7) is outside the 2^2 × 2^2 matrix")]
    fn set_rejects_an_index_out_of_range() {
        DistMatrix::<u64>::zeroed(sample_layout()).set(1, 7, 9);
    }

    #[test]
    #[should_panic(expected = "not shaped as the transpose")]
    fn check_transposed_rejects_a_wrong_shape() {
        let wide = Layout::one_dim(1, 3, Direction::Cols, 1, Assignment::Cyclic, Encoding::Binary);
        check_transposed_labels(&wide, &label_matrix(wide.clone()));
    }

    #[test]
    fn label_matrix_places_w() {
        let l = Layout::one_dim(2, 3, Direction::Cols, 2, Assignment::Cyclic, Encoding::Binary);
        let m = label_matrix(l);
        assert_eq!(m.get(0b10, 0b011), 0b10_011);
    }

    #[test]
    fn check_transposed_detects_errors() {
        let before = sample_layout();
        let after = before.swapped_shape();
        // Correct transpose: element (v,u) of result = label (u||v).
        let good = DistMatrix::from_fn(after.clone(), |r, c| (c << 2) | r);
        assert_eq!(check_transposed_labels(&before, &good), None);
        // Identity (not transposed) must be detected.
        let bad = label_matrix(after);
        assert!(check_transposed_labels(&before, &bad).is_some());
    }

    #[test]
    fn buffers_roundtrip() {
        let m = label_matrix(sample_layout());
        let l = m.layout().clone();
        let copy = DistMatrix::from_buffers(l, m.clone().into_buffers());
        assert_eq!(copy, m);
    }
}

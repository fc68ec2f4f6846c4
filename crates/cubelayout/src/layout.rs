//! The layout map: matrix element `(u, v)` → (processor, local address).

use crate::field::SubField;
use crate::scheme::{Assignment, Direction, Encoding};
use crate::separable::Part;
use cubeaddr::{split, DimSet, NodeId};

/// Where a matrix element lives: the owning processor and the local
/// storage offset inside it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Placement {
    /// Owning node of the cube.
    pub node: NodeId,
    /// Local (virtual-processor) address within the node, in
    /// `0 .. elems_per_node`.
    pub local: u64,
}

/// A complete layout of a `2^p × 2^q` matrix on a `2^n`-node Boolean cube
/// (with `n = row_field.width() + col_field.width()`).
///
/// ```
/// use cubelayout::{Assignment, Encoding, Layout};
/// // An 8×8 matrix on 4 processors, 2×2 consecutive blocks.
/// let layout = Layout::square(3, 3, 1, Assignment::Consecutive, Encoding::Binary);
/// let pl = layout.place(5, 2); // element (5, 2)
/// assert_eq!(pl.node.bits(), 0b10); // lower-left processor block
/// assert_eq!(layout.element_at(pl.node, pl.local), (5, 2));
/// ```
///
/// The node address is `(row_proc || col_proc)` with the column part in
/// the low-order `n_c` cube dimensions, matching the paper's
/// `x = (x_r || x_c)` convention. The local address is
/// `(u_virtual || v_virtual)` with the virtual column bits low, i.e. local
/// storage is a row-major `2^{p-n_r} × 2^{q-n_c}` array of the node's
/// elements.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Layout {
    p: u32,
    q: u32,
    row: SubField,
    col: SubField,
}

impl Layout {
    /// General constructor from explicit per-direction subfields.
    ///
    /// # Panics
    /// If a field references index bits outside its direction's width.
    #[track_caller]
    pub fn new(p: u32, q: u32, row: SubField, col: SubField) -> Self {
        cubeaddr::check_dims(p + q);
        assert!(
            row.dims().union(DimSet::all(p)) == DimSet::all(p),
            "row field out of range for a {p}-bit row index"
        );
        assert!(
            col.dims().union(DimSet::all(q)) == DimSet::all(q),
            "column field out of range for a {q}-bit column index"
        );
        Layout { p, q, row, col }
    }

    /// One-dimensional partitioning (Definition 6): all `n` processor
    /// dimensions taken from one direction's index.
    #[track_caller]
    pub fn one_dim(
        p: u32,
        q: u32,
        dir: Direction,
        n: u32,
        scheme: Assignment,
        encoding: Encoding,
    ) -> Self {
        match dir {
            Direction::Rows => {
                Layout::new(p, q, SubField::assigned(scheme, p, n, encoding), SubField::empty())
            }
            Direction::Cols => {
                Layout::new(p, q, SubField::empty(), SubField::assigned(scheme, q, n, encoding))
            }
        }
    }

    /// Two-dimensional partitioning with `2^{n_r}` row and `2^{n_c}` column
    /// partitions and a common scheme/encoding choice per direction.
    #[track_caller]
    pub fn two_dim(
        p: u32,
        q: u32,
        (n_r, row_scheme, row_enc): (u32, Assignment, Encoding),
        (n_c, col_scheme, col_enc): (u32, Assignment, Encoding),
    ) -> Self {
        Layout::new(
            p,
            q,
            SubField::assigned(row_scheme, p, n_r, row_enc),
            SubField::assigned(col_scheme, q, n_c, col_enc),
        )
    }

    /// Square two-dimensional partitioning with identical scheme and
    /// encoding for rows and columns — the "communication only between
    /// distinct source/destination pairs" case of §6.1.
    #[track_caller]
    pub fn square(p: u32, q: u32, n_half: u32, scheme: Assignment, encoding: Encoding) -> Self {
        Layout::two_dim(p, q, (n_half, scheme, encoding), (n_half, scheme, encoding))
    }

    /// The banded-matrix combined assignment of §2: a `2^p × 2^q` array
    /// of band data on a `2^{2n_c}`-node cube, with blocks of
    /// `2^{q-n_c} × 2^{q-n_c}` elements per node and blocks assigned
    /// *cyclically* with respect to the row addresses — the row field is
    /// the contiguous run `u_{q-1} … u_{q-n_c}` sitting *inside* the row
    /// index, splitting it into a consecutive part below and a cyclic
    /// part above:
    ///
    /// ```text
    /// (u_{p-1} … u_q │ u_{q-1} … u_{q-n_c} │ u_{q-n_c-1} … u_0 │ v_{q-1} … v_{q-n_c} │ v_{q-n_c-1} … v_0)
    ///       vp                 rp                  vp                   rp                    vp
    /// ```
    #[track_caller]
    pub fn banded(p: u32, q: u32, n_c: u32) -> Self {
        assert!(p >= q && q >= n_c, "banded layout needs p ≥ q ≥ n_c");
        Layout::new(
            p,
            q,
            SubField::contiguous_at(q - n_c, n_c, p, Encoding::Binary),
            SubField::assigned(Assignment::Consecutive, q, n_c, Encoding::Binary),
        )
    }

    /// The banded assignment with `S = 2^s` concurrent block rows (§2's
    /// second worked field): the `s` highest row bits form a second real
    /// field, so the row dimensions used for real processors split into
    /// two runs (`s + n_c` row dimensions in total).
    #[track_caller]
    pub fn banded_block_rows(p: u32, q: u32, n_c: u32, s: u32) -> Self {
        assert!(p >= q + s && q >= n_c, "banded block-row layout needs p ≥ q + s ≥ n_c + s");
        let row = SubField::from_groups(vec![
            crate::field::FieldGroup::new(DimSet::range(p - s, p), Encoding::Binary),
            crate::field::FieldGroup::new(DimSet::range(q - n_c, q), Encoding::Binary),
        ]);
        Layout::new(
            p,
            q,
            row,
            SubField::assigned(Assignment::Consecutive, q, n_c, Encoding::Binary),
        )
    }

    /// Number of row-index bits (`P = 2^p` rows).
    pub fn p(&self) -> u32 {
        self.p
    }

    /// Number of column-index bits (`Q = 2^q` columns).
    pub fn q(&self) -> u32 {
        self.q
    }

    /// Total matrix address bits `m = p + q`.
    pub fn m(&self) -> u32 {
        self.p + self.q
    }

    /// Row-direction processor subfield.
    pub fn row_field(&self) -> &SubField {
        &self.row
    }

    /// Column-direction processor subfield.
    pub fn col_field(&self) -> &SubField {
        &self.col
    }

    /// Processor dimensions taken from the row index (`n_r`).
    pub fn n_r(&self) -> u32 {
        self.row.width()
    }

    /// Processor dimensions taken from the column index (`n_c`).
    pub fn n_c(&self) -> u32 {
        self.col.width()
    }

    /// Cube dimension `n = n_r + n_c`.
    pub fn n(&self) -> u32 {
        self.n_r() + self.n_c()
    }

    /// Number of processors `N = 2^n`.
    pub fn num_nodes(&self) -> usize {
        cubeaddr::num_nodes(self.n())
    }

    /// Elements stored per node, `PQ / N = 2^{m-n}`.
    pub fn elems_per_node(&self) -> usize {
        1usize << (self.m() - self.n())
    }

    /// Local array extent in the row direction (`2^{p-n_r}`).
    pub fn local_rows(&self) -> usize {
        1usize << (self.p - self.n_r())
    }

    /// Local array extent in the column direction (`2^{q-n_c}`).
    pub fn local_cols(&self) -> usize {
        1usize << (self.q - self.n_c())
    }

    /// What row index `u` contributes to a placement: the row processor
    /// sub-address and the virtual row bits, each shifted to its position
    /// above the column part.
    pub(crate) fn row_part(&self, u: u64) -> Part {
        Part {
            node: self.row.to_proc(u) << self.n_c(),
            local: self.row.dims().complement(self.p).extract(u) << (self.q - self.n_c()),
        }
    }

    /// What column index `v` contributes to a placement (the low-order
    /// ends of the node and local addresses).
    pub(crate) fn col_part(&self, v: u64) -> Part {
        Part { node: self.col.to_proc(v), local: self.col.dims().complement(self.q).extract(v) }
    }

    /// Maps element `(u, v)` to its placement.
    ///
    /// # Panics
    /// If `(u, v)` is not an element of the `2^p × 2^q` matrix.
    #[inline]
    #[track_caller]
    pub fn place(&self, u: u64, v: u64) -> Placement {
        assert!(
            u < (1u64 << self.p) && v < (1u64 << self.q),
            "element ({u}, {v}) is outside the 2^{} × 2^{} matrix",
            self.p,
            self.q
        );
        self.row_part(u).with(self.col_part(v))
    }

    /// Inverse of [`Layout::place`]: which element lives at `(node, local)`.
    pub fn element_at(&self, node: NodeId, local: u64) -> (u64, u64) {
        let (row_proc, col_proc) = split(node.bits(), self.n_c());
        let (vrow, vcol) = split(local, self.q - self.n_c());
        let u = self.row.from_proc(row_proc) | self.row.dims().complement(self.p).deposit(vrow);
        let v = self.col.from_proc(col_proc) | self.col.dims().complement(self.q).deposit(vcol);
        (u, v)
    }

    /// The matrix-address dimensions (positions within `w = (u || v)`)
    /// used for real processor addresses — the paper's `R` set for this
    /// layout. Row-index dimensions sit at positions `q .. m`.
    pub fn real_dims_w(&self) -> DimSet {
        let row_in_w = DimSet(self.row.dims().0 << self.q);
        row_in_w.union(self.col.dims())
    }

    /// The *relabeling* layout of `A^T`: row and column fields swap roles
    /// along with the shape. Viewing the same storage as the transpose,
    /// `relabeled().place(v, u)` names the same element as `place(u, v)`
    /// up to a fixed rotation of the node- and local-address bit fields
    /// (the row part moves from the high to the low end); when either
    /// field is empty the correspondence is exact, which is why "a vector
    /// transposition requires no data movement" (§2).
    pub fn relabeled(&self) -> Layout {
        Layout { p: self.q, q: self.p, row: self.col.clone(), col: self.row.clone() }
    }

    /// The layout of `A^T` that applies *this layout's rule* to the
    /// transposed matrix: shape swaps to `2^q × 2^p` but the row field
    /// still partitions rows (now the old columns) and the column field
    /// still partitions columns. This is the canonical "same data
    /// structure after the transpose" target of the paper's Definition 1.
    ///
    /// # Panics
    /// If a field's index bits do not fit the swapped index width (always
    /// fine for `p = q`).
    #[track_caller]
    pub fn swapped_shape(&self) -> Layout {
        Layout::new(self.q, self.p, self.row.clone(), self.col.clone())
    }

    /// Iterates all `(u, v)` elements in row-major order.
    pub fn elements(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (p, q) = (self.p, self.q);
        (0..(1u64 << p)).flat_map(move |u| (0..(1u64 << q)).map(move |v| (u, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(layout: &Layout) {
        let mut seen = vec![false; 1usize << layout.m()];
        for (u, v) in layout.elements() {
            let pl = layout.place(u, v);
            assert!(pl.node.index() < layout.num_nodes());
            assert!((pl.local as usize) < layout.elems_per_node());
            let key = pl.node.index() * layout.elems_per_node() + pl.local as usize;
            assert!(!seen[key], "collision at (u={u}, v={v})");
            seen[key] = true;
            assert_eq!(layout.element_at(pl.node, pl.local), (u, v));
        }
        assert!(seen.iter().all(|&s| s), "placement not surjective");
    }

    #[test]
    fn one_dim_cyclic_cols_bijective() {
        let l = Layout::one_dim(3, 4, Direction::Cols, 2, Assignment::Cyclic, Encoding::Binary);
        assert_eq!(l.num_nodes(), 4);
        assert_eq!(l.elems_per_node(), 32);
        roundtrip(&l);
        // Column v goes to node v mod 4.
        for (u, v) in l.elements() {
            assert_eq!(l.place(u, v).node.bits(), v % 4);
        }
    }

    #[test]
    fn one_dim_consecutive_rows_bijective() {
        let l =
            Layout::one_dim(4, 3, Direction::Rows, 2, Assignment::Consecutive, Encoding::Binary);
        roundtrip(&l);
        // Row u goes to node floor(u / (P/N)).
        let rows_per_node = (1u64 << 4) / 4;
        for (u, v) in l.elements() {
            assert_eq!(l.place(u, v).node.bits(), u / rows_per_node);
        }
    }

    #[test]
    fn two_dim_consecutive_bijective() {
        let l = Layout::square(3, 3, 1, Assignment::Consecutive, Encoding::Binary);
        assert_eq!(l.n(), 2);
        roundtrip(&l);
        // Element (u,v) in partition (u >> 2, v >> 2).
        for (u, v) in l.elements() {
            let node = l.place(u, v).node.bits();
            assert_eq!(node >> 1, u >> 2);
            assert_eq!(node & 1, v >> 2);
        }
    }

    #[test]
    fn two_dim_cyclic_bijective() {
        let l = Layout::square(3, 3, 2, Assignment::Cyclic, Encoding::Binary);
        roundtrip(&l);
        for (u, v) in l.elements() {
            let node = l.place(u, v).node.bits();
            assert_eq!(node >> 2, u % 4);
            assert_eq!(node & 0b11, v % 4);
        }
    }

    #[test]
    fn gray_layouts_bijective() {
        for scheme in [Assignment::Cyclic, Assignment::Consecutive] {
            let l = Layout::square(3, 3, 1, scheme, Encoding::Gray);
            roundtrip(&l);
            let l1 = Layout::one_dim(3, 3, Direction::Rows, 3, scheme, Encoding::Gray);
            roundtrip(&l1);
        }
    }

    #[test]
    fn gray_consecutive_adjacent_blocks_on_neighbors() {
        // Consecutive Gray 1D row partitioning: block i and block i+1 land
        // on cube-neighbor processors.
        let l = Layout::one_dim(5, 2, Direction::Rows, 3, Assignment::Consecutive, Encoding::Gray);
        let rows_per_node = 1u64 << (5 - 3);
        for blk in 0..7u64 {
            let a = l.place(blk * rows_per_node, 0).node;
            let b = l.place((blk + 1) * rows_per_node, 0).node;
            assert!(a.is_neighbor(b), "blocks {blk},{} on non-neighbors", blk + 1);
        }
    }

    #[test]
    fn local_storage_is_row_major() {
        let l = Layout::square(3, 3, 1, Assignment::Consecutive, Encoding::Binary);
        // Within a node: local = vrow * local_cols + vcol.
        let pl = l.place(1, 2); // node (0,0); vrow=1, vcol=2.
        assert_eq!(pl.node, NodeId(0));
        assert_eq!(pl.local, l.local_cols() as u64 + 2);
    }

    #[test]
    fn real_dims_w_positions() {
        // p=q=3, 1D cyclic by columns with n=2: real dims are w-bits {0,1}.
        let l = Layout::one_dim(3, 3, Direction::Cols, 2, Assignment::Cyclic, Encoding::Binary);
        assert_eq!(l.real_dims_w(), DimSet::from_dims([0, 1]));
        // Consecutive by rows with n=2: row bits {2,1} of u = w-bits {5,4}... p=3
        // so high 2 row bits are u2,u1 → w positions 5,4.
        let l2 =
            Layout::one_dim(3, 3, Direction::Rows, 2, Assignment::Consecutive, Encoding::Binary);
        assert_eq!(l2.real_dims_w(), DimSet::from_dims([4, 5]));
        // 2D consecutive square: row bits u2 (w5), col bits v2 (w2).
        let l3 = Layout::square(3, 3, 1, Assignment::Consecutive, Encoding::Binary);
        assert_eq!(l3.real_dims_w(), DimSet::from_dims([2, 5]));
    }

    #[test]
    fn relabeled_swaps_fields_and_is_noop() {
        let l = Layout::two_dim(
            4,
            3,
            (2, Assignment::Consecutive, Encoding::Binary),
            (1, Assignment::Cyclic, Encoding::Gray),
        );
        let t = l.relabeled();
        assert_eq!(t.p(), 3);
        assert_eq!(t.q(), 4);
        assert_eq!(t.n_r(), 1);
        assert_eq!(t.n_c(), 2);
        roundtrip(&t);
        // Viewing storage as A^T: the mirrored element's placement is the
        // original one with the (row ‖ col) node and local fields rotated.
        for (u, v) in l.elements() {
            let orig = l.place(u, v);
            let rel = t.place(v, u);
            let (r, c) = cubeaddr::split(orig.node.bits(), l.n_c());
            assert_eq!(rel.node.bits(), cubeaddr::concat(c, r, t.n_c()));
            let (vr, vc) = cubeaddr::split(orig.local, l.q() - l.n_c());
            assert_eq!(rel.local, cubeaddr::concat(vc, vr, t.q() - t.n_c()));
        }
    }

    #[test]
    fn relabeled_exact_noop_for_one_dim() {
        // One empty field: exact physical no-op.
        let l = Layout::one_dim(0, 4, Direction::Cols, 2, Assignment::Cyclic, Encoding::Binary);
        let t = l.relabeled();
        for (u, v) in l.elements() {
            assert_eq!(t.place(v, u), l.place(u, v));
        }
    }

    #[test]
    fn swapped_shape_keeps_field_roles() {
        let l = Layout::square(3, 3, 1, Assignment::Cyclic, Encoding::Binary);
        let t = l.swapped_shape();
        assert_eq!((t.n_r(), t.n_c()), (1, 1));
        roundtrip(&t);
        // Transposing into it moves data: dst node swaps row/col proc parts.
        for (u, v) in l.elements() {
            let src = l.place(u, v).node.bits();
            let dst = t.place(v, u).node.bits();
            let (hi, lo) = cubeaddr::split(src, 1);
            assert_eq!(dst, cubeaddr::concat(lo, hi, 1));
        }
    }

    #[test]
    fn rectangular_matrix_supported() {
        let l =
            Layout::one_dim(2, 5, Direction::Cols, 3, Assignment::Consecutive, Encoding::Binary);
        roundtrip(&l);
        assert_eq!(l.local_rows(), 4);
        assert_eq!(l.local_cols(), 4);
    }

    #[test]
    #[should_panic(expected = "element (8, 1) is outside the 2^3 × 2^2 matrix")]
    fn place_rejects_a_row_index_out_of_range() {
        // Row 8 of an 8-row matrix would otherwise alias onto row 0's node.
        Layout::square(3, 2, 1, Assignment::Cyclic, Encoding::Binary).place(8, 1);
    }

    #[test]
    #[should_panic(expected = "element (0, 4) is outside the 2^3 × 2^2 matrix")]
    fn place_rejects_a_column_index_out_of_range() {
        Layout::square(3, 2, 1, Assignment::Cyclic, Encoding::Binary).place(0, 4);
    }

    #[test]
    #[should_panic]
    fn too_many_dims_rejected() {
        Layout::one_dim(2, 2, Direction::Rows, 3, Assignment::Cyclic, Encoding::Binary);
    }

    #[test]
    fn banded_layout_bijective_and_cyclic_in_blocks() {
        // p = 5, q = 3, n_c = 2: 2^4 = 16 processors, blocks of 2×2.
        let l = Layout::banded(5, 3, 2);
        assert_eq!(l.n(), 4);
        roundtrip(&l);
        // The row field sits at u_{q-1}..u_{q-n_c} = u2 u1: rows 8 apart
        // (bit 3 and above are virtual/cyclic) land on the same node.
        for (u, v) in l.elements() {
            if u + 8 < (1 << 5) {
                assert_eq!(l.place(u, v).node, l.place(u + 8, v).node);
            }
        }
        // Consecutive rows within a 2-row block share the node.
        assert_eq!(l.place(0, 0).node, l.place(1, 0).node);
        assert_ne!(l.place(0, 0).node, l.place(2, 0).node);
    }

    #[test]
    fn banded_block_rows_splits_row_field() {
        // p = 6, q = 3, n_c = 1, s = 2: 2^{2+1+1} = 16 processors; the
        // row real dims are {u5, u4} ∪ {u2}.
        let l = Layout::banded_block_rows(6, 3, 1, 2);
        assert_eq!(l.n_r(), 3);
        assert_eq!(l.n(), 4);
        assert_eq!(l.row_field().dims(), DimSet::from_dims([2, 4, 5]));
        roundtrip(&l);
    }

    #[test]
    #[should_panic(expected = "banded layout")]
    fn banded_rejects_wide_matrices() {
        let _ = Layout::banded(3, 5, 2);
    }
}

//! Separable placement: per-direction lookup tables for the layout maps.
//!
//! The paper's address field (§2, Tables 1–2) concatenates a row part and
//! a column part, so `Layout::place(u, v)` is the OR of a contribution
//! that depends only on `u` and one that depends only on `v`.
//! [`PlaceTables`] stores those contributions — `P` row entries and `Q`
//! column entries, built by the same `SubField::to_proc` /
//! `DimSet::extract` calls `place` makes — so a walk over all `PQ`
//! elements costs two loads and two ORs per element instead of a bit
//! loop, and every question about the *node-level* structure of a data
//! movement ([`MoveTables`]) is answered from the `P + Q` entries alone —
//! including how to cut it into node-pair blocks and land it in one copy
//! ([`BlockMoves`]).
//!
//! Tables are built per call and dropped: a `Layout` stays a four-field
//! value and nothing is cached.

use crate::dist::DistMatrix;
use crate::layout::{Layout, Placement};
use crate::pattern::ElementMove;
use cubeaddr::NodeId;

/// One index's contribution to a placement, already shifted into
/// position: a row part OR a column part is the element's placement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Part {
    pub node: u64,
    pub local: u64,
}

impl Part {
    /// The placement of the element whose other index contributes
    /// `other`.
    #[inline]
    pub fn with(self, other: Part) -> Placement {
        Placement { node: NodeId(self.node | other.node), local: self.local | other.local }
    }
}

/// The placement map of one layout, tabulated per direction.
pub(crate) struct PlaceTables {
    /// `rows[u]`: what row index `u` contributes.
    pub rows: Vec<Part>,
    /// `cols[v]`: what column index `v` contributes.
    pub cols: Vec<Part>,
}

impl PlaceTables {
    /// Tabulates `layout` in `O(P + Q)`.
    pub fn new(layout: &Layout) -> Self {
        PlaceTables {
            rows: (0..1u64 << layout.p()).map(|u| layout.row_part(u)).collect(),
            cols: (0..1u64 << layout.q()).map(|v| layout.col_part(v)).collect(),
        }
    }

    /// The same map indexed the other way round: `transposed().rows[i]`
    /// is what *column* index `i` contributes. Turns the tables of the
    /// layout of `A^T` into tables indexed by the `(u, v)` of `A`.
    pub fn transposed(self) -> Self {
        PlaceTables { rows: self.cols, cols: self.rows }
    }
}

/// An element-wise data movement between two layouts, both tabulated by
/// the element's `(u, v)` in the source matrix: element `(u, v)` leaves
/// `src.rows[u] | src.cols[v]` and arrives at `dst.rows[u] | dst.cols[v]`.
pub(crate) struct MoveTables {
    src: PlaceTables,
    dst: PlaceTables,
}

impl MoveTables {
    /// # Panics
    /// If the two sides do not tabulate the same `P × Q` index space.
    #[track_caller]
    pub fn new(src: PlaceTables, dst: PlaceTables) -> Self {
        assert_eq!(
            (src.rows.len(), src.cols.len()),
            (dst.rows.len(), dst.cols.len()),
            "source and destination layouts disagree on the matrix shape"
        );
        MoveTables { src, dst }
    }

    /// When every source node sends to exactly one destination node and
    /// the induced map on `0 .. n_nodes` is injective, that map.
    ///
    /// Over the full product of rows and columns the source → destination
    /// relation on nodes is a function iff the row part of the source
    /// determines the row-index part of the destination and likewise for
    /// columns (the parts occupy disjoint bit fields, so two elements
    /// share a source node iff they share both source parts). That is
    /// decided from the `P + Q` table entries; the map itself is then the
    /// product of the two per-direction functions.
    pub fn node_map(&self, n_nodes: usize) -> Option<Vec<NodeId>> {
        let (rows, cols) = self.groups();
        if !rows.is_function() || !cols.is_function() {
            return None;
        }
        let mut dst_of: Vec<Option<NodeId>> = vec![None; n_nodes];
        for &(sr, dr) in &rows.keys {
            for &(sc, dc) in &cols.keys {
                dst_of[(sr | sc) as usize] = Some(NodeId(dr | dc));
            }
        }
        let mut seen = vec![false; n_nodes];
        let mut map = Vec::with_capacity(n_nodes);
        for (s, d) in dst_of.into_iter().enumerate() {
            // A node holding no data maps to itself.
            let d = d.unwrap_or(NodeId(s as u64));
            if seen[d.index()] {
                return None;
            }
            seen[d.index()] = true;
            map.push(d);
        }
        Some(map)
    }

    /// `counts[s][d]`: how many elements move from node `s` to node `d` —
    /// the product of the per-direction group sizes.
    pub fn traffic(&self, src_nodes: usize, dst_nodes: usize) -> Vec<Vec<usize>> {
        let (rows, cols) = self.groups();
        let mut counts = vec![vec![0usize; dst_nodes]; src_nodes];
        for (r, &(sr, dr)) in rows.keys.iter().enumerate() {
            for (c, &(sc, dc)) in cols.keys.iter().enumerate() {
                counts[(sr | sc) as usize][(dr | dc) as usize] =
                    rows.members(r).len() * cols.members(c).len();
            }
        }
        counts
    }

    fn groups(&self) -> (Groups, Groups) {
        (Groups::new(&self.src.rows, &self.dst.rows), Groups::new(&self.src.cols, &self.dst.cols))
    }

    /// Every element's move, in row-major `(u, v)` order.
    pub fn into_moves(self) -> Moves {
        Moves { tables: self, u: 0, v: 0 }
    }

    /// The movement as node-pair blocks.
    pub fn block_moves(&self) -> BlockMoves {
        let (rows, cols) = self.groups();
        let mut blocks = Vec::with_capacity(rows.keys.len() * cols.keys.len());
        for (row, &(sr, dr)) in rows.keys.iter().enumerate() {
            for (col, &(sc, dc)) in cols.keys.iter().enumerate() {
                blocks.push(BlockRef { src: NodeId(sr | sc), dst: NodeId(dr | dc), row, col });
            }
        }
        blocks.sort_unstable_by_key(|b| (b.src, b.dst));
        BlockMoves { rows, cols, blocks }
    }
}

/// The indices of one direction grouped by `(source node part,
/// destination node part)`: group `g` has parts `keys[g]` and members
/// `starts[g] .. starts[g + 1]` of `src` / `dst`, indices ascending.
struct Groups {
    keys: Vec<(u64, u64)>,
    starts: Vec<usize>,
    /// The members' source and destination local parts.
    src: Vec<u64>,
    dst: Vec<u64>,
}

impl Groups {
    fn new(src: &[Part], dst: &[Part]) -> Self {
        let mut order: Vec<usize> = (0..src.len()).collect();
        // Stable: indices stay ascending inside a group.
        order.sort_by_key(|&i| (src[i].node, dst[i].node));
        let mut groups = Groups {
            keys: Vec::new(),
            starts: Vec::new(),
            src: Vec::with_capacity(src.len()),
            dst: Vec::with_capacity(src.len()),
        };
        for (at, &i) in order.iter().enumerate() {
            let key = (src[i].node, dst[i].node);
            if groups.keys.last() != Some(&key) {
                groups.keys.push(key);
                groups.starts.push(at);
            }
            groups.src.push(src[i].local);
            groups.dst.push(dst[i].local);
        }
        groups.starts.push(order.len());
        groups
    }

    fn members(&self, g: usize) -> std::ops::Range<usize> {
        self.starts[g]..self.starts[g + 1]
    }

    /// True when no source part is paired with two destination parts.
    fn is_function(&self) -> bool {
        self.keys.windows(2).all(|w| w[0].0 != w[1].0)
    }
}

/// One block of a [`BlockMoves`]: its end nodes and the row and column
/// groups whose product it is.
#[derive(Clone, Copy)]
struct BlockRef {
    src: NodeId,
    dst: NodeId,
    row: usize,
    col: usize,
}

/// An element-wise data movement between two separable layouts, cut into
/// node-pair blocks: what a communication plan charges ([`BlockMoves::blocks`])
/// and where every element goes ([`BlockMoves::copy`]).
///
/// The row parts and column parts of a placement occupy disjoint bit
/// fields on both sides, so the elements moving from node `a | c` to node
/// `b | e` are exactly the product `U(a, b) × V(c, e)` of the rows whose
/// source / destination row node parts are `(a, b)` and the columns whose
/// column node parts are `(c, e)`. A block's source and destination local
/// addresses are therefore the OR of one row-local list and one
/// column-local list, so a block needs neither a per-element address nor
/// a buffer: the data moves once, source address to destination address
/// ("implicitly by indirect addressing", §5). Built per call in
/// `O(P + Q)` plus one entry per non-empty block.
pub struct BlockMoves {
    rows: Groups,
    cols: Groups,
    /// Every non-empty block, ascending `(src, dst)`.
    blocks: Vec<BlockRef>,
}

impl BlockMoves {
    /// Every non-empty block as `(src, dst, elements)`, ascending
    /// `(src, dst)`: exactly the non-zero entries of the traffic matrix.
    /// The position in this sequence is the block's id.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = (NodeId, NodeId, usize)> + '_ {
        self.blocks.iter().map(|b| (b.src, b.dst, self.len(b)))
    }

    fn len(&self, b: &BlockRef) -> usize {
        self.rows.members(b.row).len() * self.cols.members(b.col).len()
    }

    /// Writes every element these moves carry from `m` (laid out by the
    /// source layout they were built from) into `out` (laid out by the
    /// destination layout), reading each straight from its source address.
    /// Slots no block covers are left as they are.
    ///
    /// Each node is written in the order of its own addresses rather than
    /// block by block. The direction that owns the destination's lowest
    /// local bit is the inner loop, run across all of the node's blocks
    /// that share one group of the other direction, so every write for
    /// one high-order local part is done before the next begins. One
    /// block's addresses alone can be strided: at 1024 × 1024 with cyclic
    /// rows on 64 nodes, each of a transpose block's 256 elements lands on
    /// its own cache line, 8 KiB from the next.
    pub fn copy<T: Copy>(&self, m: &DistMatrix<T>, out: &mut DistMatrix<T>) {
        let rows_low = self.rows.dst.iter().any(|&local| local & 1 == 1);
        let (outer, inner) =
            if rows_low { (&self.cols, &self.rows) } else { (&self.rows, &self.cols) };
        let groups = |id: usize| {
            let b = &self.blocks[id];
            if rows_low {
                (b.col, b.row)
            } else {
                (b.row, b.col)
            }
        };
        let mut order: Vec<usize> = (0..self.blocks.len()).collect();
        order.sort_unstable_by_key(|&id| (self.blocks[id].dst, groups(id)));
        for node in order.chunk_by(|&x, &y| self.blocks[x].dst == self.blocks[y].dst) {
            let to = out.node_mut(self.blocks[node[0]].dst);
            for run in node.chunk_by(|&x, &y| groups(x).0 == groups(y).0) {
                let o = outer.members(groups(run[0]).0);
                for (&od, &os) in outer.dst[o.clone()].iter().zip(&outer.src[o]) {
                    for &id in run {
                        let from = m.node(self.blocks[id].src);
                        let i = inner.members(groups(id).1);
                        for (&ld, &ls) in inner.dst[i.clone()].iter().zip(&inner.src[i]) {
                            to[(od | ld) as usize] = from[(os | ls) as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Row-major iterator over the element moves of a [`MoveTables`].
pub(crate) struct Moves {
    tables: MoveTables,
    u: usize,
    v: usize,
}

impl Iterator for Moves {
    type Item = ElementMove;

    #[inline]
    fn next(&mut self) -> Option<ElementMove> {
        let MoveTables { src, dst } = &self.tables;
        if self.v == src.cols.len() {
            self.v = 0;
            self.u += 1;
        }
        let (u, v) = (self.u, self.v);
        let (src_row, dst_row) = (*src.rows.get(u)?, dst.rows[u]);
        let from = src_row.with(src.cols[v]);
        let to = dst_row.with(dst.cols[v]);
        self.v += 1;
        Some(ElementMove {
            u: u as u64,
            v: v as u64,
            src: from.node,
            src_local: from.local,
            dst: to.node,
            dst_local: to.local,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (rows, cols) = (self.tables.src.rows.len(), self.tables.src.cols.len());
        let left = (rows * cols).saturating_sub(self.u * cols + self.v);
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts(nodes: &[u64]) -> Vec<Part> {
        nodes.iter().map(|&node| Part { node, local: 0 }).collect()
    }

    fn tables(rows: &[u64], cols: &[u64]) -> PlaceTables {
        PlaceTables { rows: parts(rows), cols: parts(cols) }
    }

    #[test]
    fn a_relation_is_rejected_even_when_one_choice_per_source_is_a_permutation() {
        // Source part 0 reaches destinations {0, 1}, source part 1 only 0:
        // keeping the last pair per source (0 → 1, 1 → 0) would look like a
        // permutation, so only the function check refuses it.
        let moves = MoveTables::new(tables(&[0, 0, 1, 1], &[0]), tables(&[0, 1, 0, 0], &[0]));
        assert_eq!(moves.node_map(2), None);
        assert_eq!(moves.traffic(2, 2), vec![vec![1, 1], vec![2, 0]]);
        // The same sources as a function: 0 → 1, 1 → 0.
        let moves = MoveTables::new(tables(&[0, 0, 1, 1], &[0]), tables(&[1, 1, 0, 0], &[0]));
        assert_eq!(moves.node_map(2), Some(vec![NodeId(1), NodeId(0)]));
    }

    #[test]
    #[should_panic(expected = "disagree on the matrix shape")]
    fn mismatched_shapes_are_refused() {
        let _ = MoveTables::new(tables(&[0, 0], &[0]), tables(&[0], &[0, 0]));
    }
}

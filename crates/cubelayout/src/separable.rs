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
//! movement ([`MoveTables`]) is answered from the `P + Q` entries alone.
//!
//! Tables are built per call and dropped: a `Layout` stays a four-field
//! value and nothing is cached.

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

/// The distinct `(source node part, destination node part)` pairs of one
/// direction, sorted, each with the number of indices that produce it.
fn pair_counts(src: &[Part], dst: &[Part]) -> Vec<(u64, u64, usize)> {
    let mut pairs: Vec<(u64, u64)> = src.iter().zip(dst).map(|(s, d)| (s.node, d.node)).collect();
    pairs.sort_unstable();
    let mut out: Vec<(u64, u64, usize)> = Vec::new();
    for (s, d) in pairs {
        match out.last_mut() {
            Some(last) if (last.0, last.1) == (s, d) => last.2 += 1,
            _ => out.push((s, d, 1)),
        }
    }
    out
}

/// True when no source part is paired with two destination parts.
fn is_function(sorted_pairs: &[(u64, u64, usize)]) -> bool {
    sorted_pairs.windows(2).all(|w| w[0].0 != w[1].0)
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
        let rows = pair_counts(&self.src.rows, &self.dst.rows);
        let cols = pair_counts(&self.src.cols, &self.dst.cols);
        if !is_function(&rows) || !is_function(&cols) {
            return None;
        }
        let mut dst_of: Vec<Option<NodeId>> = vec![None; n_nodes];
        for &(sr, dr, _) in &rows {
            for &(sc, dc, _) in &cols {
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
    /// the product of the per-direction pair counts.
    pub fn traffic(&self, src_nodes: usize, dst_nodes: usize) -> Vec<Vec<usize>> {
        let rows = pair_counts(&self.src.rows, &self.dst.rows);
        let cols = pair_counts(&self.src.cols, &self.dst.cols);
        let mut counts = vec![vec![0usize; dst_nodes]; src_nodes];
        for &(sr, dr, in_rows) in &rows {
            for &(sc, dc, in_cols) in &cols {
                counts[(sr | sc) as usize][(dr | dc) as usize] = in_rows * in_cols;
            }
        }
        counts
    }

    /// Every element's move, in row-major `(u, v)` order.
    pub fn into_moves(self) -> Moves {
        Moves { tables: self, u: 0, v: 0 }
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

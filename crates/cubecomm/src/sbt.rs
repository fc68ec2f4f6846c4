//! Spanning binomial trees (SBTs) and their rotations, reflections and
//! translations.
//!
//! The SBT rooted at node 0 of an `n`-cube contains every node; node `r`
//! (`r ≠ 0`) hangs below its parent `r` with the *highest* set bit
//! cleared, equivalently the children of `r` are `r | 2^i` for every
//! `i` above `r`'s highest set bit ("complementing leading zeroes"). Half
//! of all nodes sit in the root's subtree across the lowest dimension
//! (the child whose remaining address space is widest).
//!
//! * A tree rooted at `s` is the *translation* of the tree rooted at 0:
//!   every address XORed with `s`.
//! * A *rotated* SBT (Definition 8) relabels dimensions by a cyclic shift
//!   `sh^k`; `n` distinctly rotated SBTs give edge-disjoint concurrent
//!   routing for n-port one-to-all communication.
//! * A *reflected* SBT (Definition 9) bit-reverses the addresses —
//!   equivalently, complements trailing instead of leading zeroes.

use cubeaddr::{bit_reverse, mask, shuffle, unshuffle, NodeId};

/// A spanning binomial tree on an `n`-cube: root node, dimension rotation
/// `k`, and optional reflection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Sbt {
    n: u32,
    root: NodeId,
    rotation: u32,
    reflected: bool,
}

impl Sbt {
    /// The standard SBT rooted at `root`.
    pub fn new(n: u32, root: NodeId) -> Self {
        cubeaddr::check_dims(n);
        Sbt { n, root, rotation: 0, reflected: false }
    }

    /// A rotated SBT: logical dimension `j` lives on physical dimension
    /// `(j + k) mod n`.
    pub fn rotated(n: u32, root: NodeId, k: u32) -> Self {
        let mut t = Self::new(n, root);
        t.rotation = if n == 0 { 0 } else { k % n };
        t
    }

    /// A reflected SBT (addresses bit-reversed).
    pub fn reflected(n: u32, root: NodeId) -> Self {
        let mut t = Self::new(n, root);
        t.reflected = true;
        t
    }

    /// §3.1's `k` *optimally rotated* SBTs, for the `PQ/N = k < n`
    /// regime: trees rotated by multiples of `n/k`. `k = n` gives the `n`
    /// distinctly rotated SBTs of n-port one-to-all communication.
    ///
    /// # Panics
    /// Unless `k ≥ 1` divides `n`.
    #[track_caller]
    pub fn k_rotated(n: u32, root: NodeId, k: u32) -> Vec<Sbt> {
        assert!(k >= 1 && n.is_multiple_of(k), "optimal rotation needs k | n");
        (0..k).map(|i| Self::rotated(n, root, i * (n / k))).collect()
    }

    /// §3.1's `k = 2` alternative to rotation: the standard tree and its
    /// reflection. The paper credits it with a maximum edge load of
    /// `N/2 + 1` element transfers, against `N/2 + √(N/2)` for two
    /// rotated trees.
    ///
    /// # Panics
    /// On odd `n`, where the two trees would share a dimension in the
    /// middle step.
    #[track_caller]
    pub fn reflected_pair(n: u32, root: NodeId) -> [Sbt; 2] {
        assert!(n.is_multiple_of(2), "reflected pair needs an even cube dimension");
        [Self::new(n, root), Self::reflected(n, root)]
    }

    /// Cube dimension.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Maps a physical node address to its *logical* relative address in
    /// the canonical (root-0, unrotated, unreflected) tree.
    pub fn logical(&self, x: NodeId) -> u64 {
        self.to_logical(x)
    }

    /// Inverse of [`Sbt::logical`].
    pub fn physical(&self, logical: u64) -> NodeId {
        self.to_physical(logical)
    }

    fn to_logical(self, x: NodeId) -> u64 {
        let rel = x.bits() ^ self.root.bits();
        let rel = unshuffle(rel, self.rotation, self.n);
        if self.reflected {
            bit_reverse(rel, self.n)
        } else {
            rel
        }
    }

    /// Inverse of `to_logical`.
    fn to_physical(self, logical: u64) -> NodeId {
        let rel = if self.reflected { bit_reverse(logical, self.n) } else { logical };
        let rel = shuffle(rel, self.rotation, self.n);
        NodeId(rel ^ self.root.bits())
    }

    /// The physical dimension carrying logical dimension `j`.
    pub fn physical_dim(&self, j: u32) -> u32 {
        let j = if self.reflected { self.n - 1 - j } else { j };
        (j + self.rotation) % self.n
    }

    /// Parent of `x`, or `None` for the root.
    pub fn parent(&self, x: NodeId) -> Option<NodeId> {
        let l = self.to_logical(x);
        if l == 0 {
            return None;
        }
        let msb = 63 - l.leading_zeros();
        Some(self.to_physical(l & !(1u64 << msb)))
    }

    /// Children of `x`, in ascending logical-dimension order.
    pub fn children(&self, x: NodeId) -> Vec<NodeId> {
        let l = self.to_logical(x);
        let lo = if l == 0 { 0 } else { 64 - l.leading_zeros() };
        (lo..self.n).map(|i| self.to_physical(l | (1u64 << i))).collect()
    }

    /// Depth of `x` (number of edges to the root) — its logical weight.
    pub fn depth(&self, x: NodeId) -> u32 {
        self.to_logical(x).count_ones()
    }

    /// Number of nodes in the subtree rooted at `x` (including `x`):
    /// `2^(number of logical leading zeroes available)`.
    pub fn subtree_size(&self, x: NodeId) -> u64 {
        let l = self.to_logical(x);
        let lo = if l == 0 { 0 } else { 64 - l.leading_zeros() };
        1u64 << (self.n - lo)
    }

    /// True when `dst` lies in the subtree hanging below `x`'s logical
    /// dimension-`j` child position, i.e. `dst`'s logical address extends
    /// `x`'s with bit `j` set and higher bits free.
    pub fn in_subtree(&self, x: NodeId, dst: NodeId) -> bool {
        let lx = self.to_logical(x);
        let ld = self.to_logical(dst);
        let lo = if lx == 0 { 0 } else { 64 - lx.leading_zeros() };
        // dst's low bits must equal x's logical address.
        ld & mask(lo) == lx
    }

    /// The tree path from the root to `dst`, as the sequence of physical
    /// dimensions routed (lowest logical dimension first — the order the
    /// SBT builds addresses).
    pub fn path_dims(&self, dst: NodeId) -> Vec<u32> {
        let l = self.to_logical(dst);
        (0..self.n).filter(|&i| (l >> i) & 1 == 1).map(|i| self.physical_dim(i)).collect()
    }

    /// Iterates all nodes grouped by depth (BFS order): element `d` of the
    /// result holds the nodes at depth `d`.
    pub fn levels(&self) -> Vec<Vec<NodeId>> {
        let mut levels = vec![Vec::new(); self.n as usize + 1];
        for x in NodeId::all(self.n) {
            levels[self.depth(x) as usize].push(x);
        }
        levels
    }
}

/// The root a tree family shares, after checking it is a non-empty
/// family of trees on the `n`-cube with one root — the family check of
/// [`crate::plan::one_to_all_trees_plan`].
#[track_caller]
pub(crate) fn common_root(n: u32, trees: &[Sbt]) -> NodeId {
    assert!(!trees.is_empty(), "one_to_all_trees_plan needs at least one tree");
    let root = trees[0].root();
    for t in trees {
        assert_eq!(t.n(), n, "tree on the wrong cube");
        assert_eq!(t.root(), root, "trees must share the root");
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_tree_structure() {
        let t = Sbt::new(3, NodeId(0));
        // Children of the root are 1, 2, 4.
        assert_eq!(t.children(NodeId(0)), vec![NodeId(1), NodeId(2), NodeId(4)]);
        // Children of 1 (msb 0): 3, 5; of 2: 6; of 4: none.
        assert_eq!(t.children(NodeId(1)), vec![NodeId(3), NodeId(5)]);
        assert_eq!(t.children(NodeId(2)), vec![NodeId(6)]);
        assert_eq!(t.children(NodeId(4)), vec![]);
        assert_eq!(t.parent(NodeId(5)), Some(NodeId(1)));
        assert_eq!(t.parent(NodeId(0)), None);
    }

    #[test]
    fn parent_child_consistency() {
        for &tree in &[
            Sbt::new(4, NodeId(0b0110)),
            Sbt::rotated(4, NodeId(3), 2),
            Sbt::reflected(4, NodeId(9)),
        ] {
            for x in NodeId::all(4) {
                for c in tree.children(x) {
                    assert_eq!(tree.parent(c), Some(x), "tree {tree:?} child {c:?}");
                    assert!(x.is_neighbor(c), "non-neighbor edge in {tree:?}");
                }
                if let Some(p) = tree.parent(x) {
                    assert!(tree.children(p).contains(&x));
                    assert_eq!(tree.depth(x), tree.depth(p) + 1);
                }
            }
        }
    }

    #[test]
    fn spans_all_nodes() {
        let t = Sbt::rotated(5, NodeId(7), 3);
        let total: usize = t.levels().iter().map(|l| l.len()).sum();
        assert_eq!(total, 32);
        // Every non-root has a parent chain to the root.
        for x in NodeId::all(5) {
            let mut cur = x;
            let mut hops = 0;
            while let Some(p) = t.parent(cur) {
                cur = p;
                hops += 1;
                assert!(hops <= 5);
            }
            assert_eq!(cur, t.root());
        }
    }

    #[test]
    fn half_the_nodes_in_top_subtree() {
        // "Half of the nodes of a SBT are in one of the subtrees of the
        // root node": the child across the lowest logical dimension keeps
        // all higher address bits free.
        let t = Sbt::new(5, NodeId(0));
        let kids = t.children(NodeId(0));
        assert_eq!(t.subtree_size(kids[0]), 16);
        // Subtree sizes halve: 16, 8, 4, 2, 1.
        let sizes: Vec<u64> = kids.iter().map(|&c| t.subtree_size(c)).collect();
        assert_eq!(sizes, vec![16, 8, 4, 2, 1]);
        assert_eq!(t.subtree_size(NodeId(0)), 32);
    }

    #[test]
    fn subtree_membership() {
        let t = Sbt::new(4, NodeId(0));
        // Subtree of node 1 = all odd logical addresses.
        for x in NodeId::all(4) {
            assert_eq!(t.in_subtree(NodeId(1), x), x.bits() & 1 == 1);
        }
        assert!(t.in_subtree(NodeId(0), NodeId(13)));
    }

    #[test]
    fn path_dims_reach_destination() {
        for &tree in
            &[Sbt::new(4, NodeId(5)), Sbt::rotated(4, NodeId(0), 1), Sbt::reflected(4, NodeId(2))]
        {
            for dst in NodeId::all(4) {
                let mut cur = tree.root();
                for d in tree.path_dims(dst) {
                    cur = cur.neighbor(d);
                }
                assert_eq!(cur, dst, "path fails in {tree:?}");
                assert_eq!(tree.path_dims(dst).len() as u32, tree.depth(dst));
            }
        }
    }

    #[test]
    fn rotations_permute_dimension_usage() {
        // The n rotated trees use distinct physical dimensions for the same
        // logical step — the basis of conflict-free concurrent routing.
        let n = 5;
        for j in 0..n {
            let dims: Vec<u32> =
                (0..n).map(|k| Sbt::rotated(n, NodeId(0), k).physical_dim(j)).collect();
            let mut sorted = dims.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len() as u32, n, "logical dim {j}: {dims:?}");
        }
    }

    #[test]
    fn reflection_complements_trailing_zeros() {
        // In the reflected tree rooted at 0, the root's children are
        // reached through the *low* bits first: children of logical 0 in
        // physical space are 2^(n-1), 2^(n-2), ..., matching "complementing
        // trailing zeroes" of the reversed addresses.
        let t = Sbt::reflected(3, NodeId(0));
        let kids = t.children(NodeId(0));
        assert_eq!(kids.len(), 3);
        for k in kids {
            assert_eq!(t.parent(k), Some(NodeId(0)));
        }
        // Node with logical msb set ↔ physical bit 0 set.
        assert_eq!(t.depth(NodeId(0b001)), 1);
    }

    #[test]
    #[should_panic(expected = "optimal rotation needs k | n")]
    fn k_rotated_requires_divisor() {
        let _ = Sbt::k_rotated(6, NodeId(0), 4);
    }

    #[test]
    #[should_panic(expected = "reflected pair needs an even cube dimension")]
    fn reflected_pair_requires_even_cube() {
        let _ = Sbt::reflected_pair(5, NodeId(0));
    }
}

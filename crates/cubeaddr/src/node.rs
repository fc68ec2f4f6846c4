//! Node addresses on a Boolean *n*-cube.
//!
//! A Boolean *n*-cube has `N = 2^n` nodes. Node `x` is connected to the `n`
//! nodes whose addresses differ from `x` in exactly one bit (paper
//! Definition 5). The diameter is `n` and the number of (undirected) links
//! is `n·N/2`.

use crate::{check_dims, hamming, mask};

/// Address of a node in a Boolean *n*-cube.
///
/// A `NodeId` is an *n*-bit binary string. The type does not carry `n`
/// itself — the cube dimension is supplied by the structures that own node
/// collections — but every operation that needs `n` takes it explicitly and
/// debug-asserts that the address fits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u64);

impl NodeId {
    /// The node with all-zero address (conventional root for spanning
    /// trees).
    pub const ZERO: NodeId = NodeId(0);

    /// Creates a node id, checking that it fits an `n`-dimensional cube.
    #[inline]
    #[track_caller]
    pub fn new(addr: u64, n: u32) -> Self {
        check_dims(n);
        assert_eq!(addr & !mask(n), 0, "address {addr:#b} out of range for an {n}-cube");
        NodeId(addr)
    }

    /// The raw address bits.
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// The neighbor across dimension `d` (bit `d` complemented).
    #[inline]
    pub fn neighbor(self, d: u32) -> NodeId {
        NodeId(self.0 ^ (1 << d))
    }

    /// Value of address bit `d`.
    #[inline]
    pub fn bit(self, d: u32) -> bool {
        (self.0 >> d) & 1 == 1
    }

    /// Hamming distance to `other` — the length of a shortest path in the
    /// cube.
    #[inline]
    pub fn distance(self, other: NodeId) -> u32 {
        hamming(self.0, other.0)
    }

    /// True when `other` is a cube neighbor (distance exactly one).
    #[inline]
    pub fn is_neighbor(self, other: NodeId) -> bool {
        (self.0 ^ other.0).count_ones() == 1
    }

    /// Iterator over all `n` neighbors, in ascending dimension order.
    pub fn neighbors(self, n: u32) -> impl Iterator<Item = NodeId> {
        (0..n).map(move |d| self.neighbor(d))
    }

    /// Iterator over every node of an `n`-cube in address order.
    pub fn all(n: u32) -> impl Iterator<Item = NodeId> {
        (0..crate::num_nodes(n) as u64).map(NodeId)
    }

    /// Index usable for array storage (`usize` form of the address).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NodeId({:#b})", self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(v: u64) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_relation() {
        let x = NodeId::new(0b1010, 4);
        assert_eq!(x.neighbor(0), NodeId(0b1011));
        assert_eq!(x.neighbor(3), NodeId(0b0010));
        assert!(x.is_neighbor(x.neighbor(2)));
        assert!(!x.is_neighbor(x));
        assert!(!x.is_neighbor(NodeId(0b0110)));
    }

    #[test]
    fn neighbor_involution() {
        for x in NodeId::all(5) {
            for d in 0..5 {
                assert_eq!(x.neighbor(d).neighbor(d), x);
            }
        }
    }

    #[test]
    fn all_nodes_have_n_neighbors() {
        let n = 4;
        for x in NodeId::all(n) {
            let nbrs: Vec<_> = x.neighbors(n).collect();
            assert_eq!(nbrs.len(), n as usize);
            for y in &nbrs {
                assert_eq!(x.distance(*y), 1);
            }
        }
    }

    #[test]
    #[should_panic]
    fn new_rejects_out_of_range() {
        NodeId::new(0b10000, 4);
    }
}

//! Some-to-all and all-to-some personalized communication (paper §3.3,
//! Theorem 1, Table 3).
//!
//! When the real-processor dimension sets before and after a
//! rearrangement are disjoint but of different sizes
//! (`|R_b| ≠ |R_a|`, `I = ∅`), the operation decomposes into
//! `k = ||R_b| - |R_a||` steps of one-to-all (splitting) or all-to-one
//! (accumulation) personalized communication and
//! `l = min(|R_b|, |R_a|)` steps of all-to-all personalized
//! communication. Theorem 1: the steps commute, and the transfer time is
//! minimized by splitting *first* (some-to-all) or accumulating *last*
//! (all-to-some).
//!
//! Both phases are realized with the standard exchange kernel
//! ([`exchange_over_dims`]) — a splitting step *is* an exchange step in
//! which only the data-holding half of each pair has anything to send.

use crate::block::{blocks_from, Block, BlockMsg};
use crate::exchange::{exchange_over_dims, BufferPolicy};
use cubeaddr::{DimSet, NodeId};
use cubesim::SimNet;

/// Some-to-all personalized communication: the `2^l` *source* nodes
/// (those whose `k_dims` bits are all zero) each hold one block per node
/// of the cube; afterwards every node holds its blocks.
///
/// `blocks[i][dst]` is the payload from the `i`-th source (sources
/// enumerated in ascending node order) to node `dst`. The dimension sets
/// must partition the cube (`l_dims ∪ k_dims = {0..n}`, disjoint).
///
/// Splitting (over `k_dims`) runs first, per Theorem 1.
pub fn some_to_all<T>(
    net: &mut SimNet<BlockMsg<T>>,
    l_dims: DimSet,
    k_dims: DimSet,
    blocks: Vec<Vec<Vec<T>>>,
    policy: BufferPolicy,
) -> Vec<Vec<Block<T>>> {
    let held = seed_sources(net, l_dims, k_dims, blocks);
    let dims = phase_order(l_dims, k_dims, true);
    exchange_over_dims(net, held, &dims, policy)
}

/// The same operation with the phases in the *suboptimal* order
/// (all-to-all first), for demonstrating Theorem 1's claim.
pub fn some_to_all_suboptimal<T>(
    net: &mut SimNet<BlockMsg<T>>,
    l_dims: DimSet,
    k_dims: DimSet,
    blocks: Vec<Vec<Vec<T>>>,
    policy: BufferPolicy,
) -> Vec<Vec<Block<T>>> {
    let held = seed_sources(net, l_dims, k_dims, blocks);
    let dims = phase_order(l_dims, k_dims, false);
    exchange_over_dims(net, held, &dims, policy)
}

/// All-to-some personalized communication: every node holds one block per
/// *destination* node (destinations = nodes with zero `k_dims` bits);
/// accumulation over `k_dims` runs last, per Theorem 1.
///
/// `blocks[src][j]` is the payload for the `j`-th destination.
pub fn all_to_some<T>(
    net: &mut SimNet<BlockMsg<T>>,
    l_dims: DimSet,
    k_dims: DimSet,
    blocks: Vec<Vec<Vec<T>>>,
    policy: BufferPolicy,
) -> Vec<Vec<Block<T>>> {
    let num = net.num_nodes();
    check_partition(net, l_dims, k_dims);
    assert_eq!(blocks.len(), num);
    let dsts: Vec<NodeId> = subcube_nodes(net.n(), k_dims);
    let held: Vec<Vec<Block<T>>> = blocks
        .into_iter()
        .enumerate()
        .map(|(s, per_dst)| {
            assert_eq!(per_dst.len(), dsts.len(), "one block per destination node");
            per_dst
                .into_iter()
                .zip(&dsts)
                .filter(|(data, _)| !data.is_empty())
                .map(|(data, &d)| Block::new(NodeId(s as u64), d, data))
                .collect()
        })
        .collect();
    // All-to-all over l first, accumulation over k last.
    let mut dims: Vec<u32> = l_dims.iter_desc().collect();
    dims.extend(k_dims.iter_desc());
    exchange_over_dims(net, held, &dims, policy)
}

/// Nodes of the subcube where all `k_dims` bits are zero, ascending.
pub(crate) fn subcube_nodes(n: u32, k_dims: DimSet) -> Vec<NodeId> {
    NodeId::all(n).filter(|x| x.bits() & k_dims.0 == 0).collect()
}

#[track_caller]
fn check_partition<T>(net: &SimNet<BlockMsg<T>>, l_dims: DimSet, k_dims: DimSet) {
    assert!(l_dims.is_disjoint(k_dims), "l and k dimension sets overlap");
    assert_eq!(l_dims.union(k_dims), DimSet::all(net.n()), "l ∪ k must cover the cube dimensions");
}

#[track_caller]
fn seed_sources<T>(
    net: &SimNet<BlockMsg<T>>,
    l_dims: DimSet,
    k_dims: DimSet,
    blocks: Vec<Vec<Vec<T>>>,
) -> Vec<Vec<Block<T>>> {
    check_partition(net, l_dims, k_dims);
    let num = net.num_nodes();
    let sources = subcube_nodes(net.n(), k_dims);
    assert_eq!(blocks.len(), sources.len(), "one block set per source node");
    let mut held: Vec<Vec<Block<T>>> = (0..num).map(|_| Vec::new()).collect();
    for (src, per_dst) in sources.iter().zip(blocks) {
        assert_eq!(per_dst.len(), num, "one (possibly empty) block per destination");
        held[src.index()] = blocks_from(*src, per_dst);
    }
    held
}

pub(crate) fn phase_order(l_dims: DimSet, k_dims: DimSet, split_first: bool) -> Vec<u32> {
    let mut dims: Vec<u32> = Vec::new();
    if split_first {
        dims.extend(k_dims.iter_desc());
        dims.extend(l_dims.iter_desc());
    } else {
        dims.extend(l_dims.iter_desc());
        dims.extend(k_dims.iter_desc());
    }
    dims
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::{MachineParams, PortMode};

    /// blocks[i][dst] with b elements each.
    fn source_blocks(n_sources: usize, num: usize, b: usize) -> Vec<Vec<Vec<u64>>> {
        (0..n_sources as u64)
            .map(|i| (0..num as u64).map(|d| vec![i * 1000 + d; b]).collect())
            .collect()
    }

    fn check(result: &[Vec<Block<u64>>], n_sources: usize, b: usize) {
        for (d, blks) in result.iter().enumerate() {
            assert_eq!(blks.len(), n_sources, "node {d}");
            for blk in blks {
                assert_eq!(blk.dst.index(), d);
                assert_eq!(blk.data.len(), b);
            }
        }
    }

    #[test]
    fn some_to_all_delivers() {
        // n = 4, l = 2 (dims {0,1}), k = 2 (dims {2,3}): 4 sources.
        let n = 4;
        let (l, k) = (DimSet::from_dims([0, 1]), DimSet::from_dims([2, 3]));
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let result = some_to_all(&mut net, l, k, source_blocks(4, 16, 2), BufferPolicy::Ideal);
        check(&result, 4, 2);
        let r = net.finalize();
        assert_eq!(r.rounds, 4); // k + l steps.
    }

    #[test]
    fn all_to_some_delivers() {
        let n = 3;
        let (l, k) = (DimSet::from_dims([0]), DimSet::from_dims([1, 2]));
        // 2 destinations (nodes 0 and 1); every node sends to both.
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let blocks = source_blocks(8, 2, 3);
        let result = all_to_some(&mut net, l, k, blocks, BufferPolicy::Ideal);
        net.finalize();
        // Destination nodes got 8 blocks each; others none.
        assert_eq!(result[0].len(), 8);
        assert_eq!(result[1].len(), 8);
        for (d, got) in result.iter().enumerate().skip(2) {
            assert!(got.is_empty(), "node {d} should end empty");
        }
    }

    #[test]
    fn theorem1_split_first_is_faster() {
        // Splitting first moves the personalized halves early, so later
        // all-to-all steps transfer less data per exchange than if the
        // whole aggregate bounced around first.
        let n = 4;
        let (l, k) = (DimSet::from_dims([0, 1]), DimSet::from_dims([2, 3]));
        let run = |optimal: bool| {
            let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
            let blocks = source_blocks(4, 16, 4);
            let _ = if optimal {
                some_to_all(&mut net, l, k, blocks, BufferPolicy::Ideal)
            } else {
                some_to_all_suboptimal(&mut net, l, k, blocks, BufferPolicy::Ideal)
            };
            net.finalize()
        };
        let good = run(true);
        let bad = run(false);
        assert_eq!(good.rounds, bad.rounds);
        assert!(
            good.transfer_time < bad.transfer_time,
            "theorem 1 violated: split-first {} vs all-to-all-first {}",
            good.transfer_time,
            bad.transfer_time
        );
    }

    #[test]
    fn degenerate_k_zero_is_all_to_all() {
        let n = 2;
        let (l, k) = (DimSet::all(2), DimSet::EMPTY);
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let result = some_to_all(&mut net, l, k, source_blocks(4, 4, 1), BufferPolicy::Ideal);
        check(&result, 4, 1);
        assert_eq!(net.finalize().rounds, 2);
    }

    #[test]
    fn degenerate_l_zero_is_one_to_all() {
        let n = 3;
        let (l, k) = (DimSet::EMPTY, DimSet::all(3));
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let result = some_to_all(&mut net, l, k, source_blocks(1, 8, 2), BufferPolicy::Ideal);
        check(&result, 1, 2);
        assert_eq!(net.finalize().rounds, 3);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_dim_sets_rejected() {
        let mut net: SimNet<BlockMsg<u64>> = SimNet::new(2, MachineParams::unit(PortMode::OnePort));
        let _ = some_to_all(
            &mut net,
            DimSet::from_dims([0, 1]),
            DimSet::from_dims([1]),
            vec![],
            BufferPolicy::Ideal,
        );
    }
}

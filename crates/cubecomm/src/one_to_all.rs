//! One-to-all personalized communication (paper §3.1).
//!
//! The source node holds a distinct block for every node of the cube;
//! afterwards each node holds its block.
//!
//! * [`one_to_all_sbt`] — spanning-binomial-tree routing with "all data
//!   for a subtree at once" scheduling, the one-port algorithm with
//!   `T_min = (1 - 1/N)·PQ·t_c + n·τ` for `B_m ≥ PQ/2`.
//! * [`one_to_all_rotated_sbts`] — the data of every destination split
//!   into `n` equal parts routed over `n` distinctly rotated SBTs
//!   concurrently (n-port), with
//!   `T_min = (1/n)(1 - 1/N)·PQ·t_c + n·τ` — the same order as the lower
//!   bound.

use crate::block::{blocks_from, Block, BlockMsg};
use crate::exec;
use crate::plan::skeleton;
use crate::sbt::{common_root, Sbt};
use cubeaddr::NodeId;
use cubesim::SimNet;

/// Validates the per-destination payload list.
#[track_caller]
fn check_blocks<T>(net: &SimNet<BlockMsg<T>>, blocks: &[Vec<T>]) {
    assert_eq!(blocks.len(), net.num_nodes(), "need exactly one block per destination node");
}

/// The concatenated payload each node holds (empty where nothing was
/// sent), blocks in the given order.
pub(crate) fn payload_per_node<T>(held: Vec<Vec<Block<T>>>) -> Vec<Vec<T>> {
    held.into_iter().map(|blks| blks.into_iter().flat_map(|b| b.data).collect()).collect()
}

/// One-to-all personalized communication from `root` by SBT routing,
/// one-port legal (each round uses a single dimension everywhere): in
/// round `j` the nodes whose logical address uses only bits below `j`
/// each send, all at once, the data for the subtree reached through
/// logical dimension `j`.
///
/// `blocks[d]` is the payload for physical node `d`; the return value is
/// the payload each node ends up holding (`result[d] == blocks[d]`,
/// physically routed through the cube).
pub fn one_to_all_sbt<T>(
    net: &mut SimNet<BlockMsg<T>>,
    root: NodeId,
    blocks: Vec<Vec<T>>,
) -> Vec<Vec<T>> {
    check_blocks(net, &blocks);
    let payloads = blocks_from(root, blocks);
    let metas = exec::metas_at_src(&payloads);
    let rounds = skeleton::sbt_rounds(net.n(), &metas, &Sbt::new(net.n(), root));
    payload_per_node(exec::execute(net, &metas, &rounds, payloads))
}

/// One-to-all personalized communication from `root` over an arbitrary
/// family of spanning binomial trees running concurrently (n-port).
/// Every destination's block is split into `trees.len()` near-equal
/// parts, one per tree; the family must use pairwise distinct physical
/// dimensions in every logical step (true for distinct rotations and for
/// rotation/reflection pairs on even cubes), or the link-contention check
/// aborts.
pub fn one_to_all_trees<T>(
    net: &mut SimNet<BlockMsg<T>>,
    blocks: Vec<Vec<T>>,
    trees: &[Sbt],
) -> Vec<Vec<T>> {
    check_blocks(net, &blocks);
    let root = common_root(net.n(), trees);
    // One block per non-empty (destination, tree) slice, destination-major
    // — so a node's blocks, in id order, are its payload in tree order.
    let mut payloads = Vec::new();
    let mut tree_of: Vec<u32> = Vec::new();
    for (d, data) in blocks.into_iter().enumerate() {
        for (k, part) in split_even(data, trees.len()).into_iter().enumerate() {
            if !part.is_empty() {
                tree_of.push(k as u32);
                payloads.push(Block::new(root, NodeId(d as u64), part));
            }
        }
    }
    let metas = exec::metas_at_src(&payloads);
    let rounds = skeleton::trees_rounds(net.n(), &metas, trees, &tree_of);
    payload_per_node(exec::execute(net, &metas, &rounds, payloads))
}

/// One-to-all personalized communication from `root` over `n` distinctly
/// rotated SBTs concurrently (n-port):
/// `T_min = (1/n)(1 - 1/N)·PQ·t_c + n·τ`.
pub fn one_to_all_rotated_sbts<T>(
    net: &mut SimNet<BlockMsg<T>>,
    root: NodeId,
    blocks: Vec<Vec<T>>,
) -> Vec<Vec<T>> {
    let n = net.n();
    if n == 0 {
        return blocks;
    }
    let trees: Vec<Sbt> = (0..n).map(|k| Sbt::rotated(n, root, k)).collect();
    one_to_all_trees(net, blocks, &trees)
}

/// One-to-all over `k < n` *optimally rotated* SBTs (§3.1, the
/// `PQ/N = k < n` regime): trees rotated by multiples of `n/k`.
///
/// # Panics
/// Unless `k` divides `n`.
#[track_caller]
pub fn one_to_all_k_rotated_sbts<T>(
    net: &mut SimNet<BlockMsg<T>>,
    root: NodeId,
    blocks: Vec<Vec<T>>,
    k: u32,
) -> Vec<Vec<T>> {
    let n = net.n();
    assert!(k >= 1 && n.is_multiple_of(k), "optimal rotation needs k | n");
    let trees: Vec<Sbt> = (0..k).map(|i| Sbt::rotated(n, root, i * (n / k))).collect();
    one_to_all_trees(net, blocks, &trees)
}

/// One-to-all over a *reflected and rotated* SBT pair (§3.1's `k = 2`
/// alternative): the standard tree plus its reflection. For `k = 2` the
/// paper credits reflection with a maximum edge load of `N/2 + 1`
/// element transfers versus `N/2 + √(N/2)` for rotation.
/// # Panics
/// On odd `n` (the two trees would share a dimension in the middle
/// step).
#[track_caller]
pub fn one_to_all_reflected_pair<T>(
    net: &mut SimNet<BlockMsg<T>>,
    root: NodeId,
    blocks: Vec<Vec<T>>,
) -> Vec<Vec<T>> {
    let n = net.n();
    assert!(n.is_multiple_of(2), "reflected pair needs an even cube dimension");
    let trees = [Sbt::new(n, root), Sbt::reflected(n, root)];
    one_to_all_trees(net, blocks, &trees)
}

/// Splits `data` into `parts` consecutive slices with sizes as equal as
/// possible (first slices get the remainder).
pub(crate) fn split_even<T>(mut data: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let total = data.len();
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut rest = data.split_off(0); // take ownership as a queue
    for k in 0..parts {
        let take = base + usize::from(k < extra);
        let tail = rest.split_off(take.min(rest.len()));
        out.push(rest);
        rest = tail;
    }
    debug_assert!(rest.is_empty());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::{MachineParams, PortMode};

    fn payloads(n: u32, per: usize) -> Vec<Vec<u64>> {
        (0..(1u64 << n)).map(|d| (0..per as u64).map(|i| d * 1000 + i).collect()).collect()
    }

    #[test]
    fn sbt_delivers_every_block() {
        for root in [0u64, 5] {
            let n = 3;
            let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
            let got = one_to_all_sbt(&mut net, NodeId(root), payloads(n, 4));
            assert_eq!(got, payloads(n, 4));
            net.finalize();
        }
    }

    #[test]
    fn sbt_time_matches_formula() {
        // Unit model, B_m = ∞: T = n·τ + (1 - 1/N)·PQ·t_c with PQ = N·b.
        let n = 4;
        let b = 8usize;
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let _ = one_to_all_sbt(&mut net, NodeId(0), payloads(n, b));
        let r = net.finalize();
        let pq = (b << n) as f64;
        let expect = n as f64 + (1.0 - 1.0 / (1 << n) as f64) * pq;
        assert_eq!(r.rounds, n as usize);
        assert!((r.time - expect).abs() < 1e-9, "time {} vs {}", r.time, expect);
    }

    #[test]
    fn sbt_respects_one_port() {
        // Would panic inside SimNet otherwise; also check the round count.
        let n = 5;
        let mut net = SimNet::new(n, MachineParams::intel_ipsc());
        let _ = one_to_all_sbt(&mut net, NodeId(17), payloads(n, 2));
        assert_eq!(net.finalize().rounds, 5);
    }

    #[test]
    fn rotated_sbts_deliver_every_block() {
        for root in [0u64, 6] {
            let n = 3;
            let mut net = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
            let got = one_to_all_rotated_sbts(&mut net, NodeId(root), payloads(n, 7));
            assert_eq!(got, payloads(n, 7));
            net.finalize();
        }
    }

    #[test]
    fn rotated_sbts_speedup_about_n() {
        // n-port transfer time is 1/n of the one-port SBT's.
        let n = 4;
        let b = 64usize;
        let mut net1 = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let _ = one_to_all_sbt(&mut net1, NodeId(0), payloads(n, b));
        let r1 = net1.finalize();
        let mut net2 = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
        let _ = one_to_all_rotated_sbts(&mut net2, NodeId(0), payloads(n, b));
        let r2 = net2.finalize();
        let t1 = r1.transfer_time;
        let t2 = r2.transfer_time;
        assert!(
            (t2 - t1 / n as f64).abs() <= t1 * 0.02,
            "expected ~{}x transfer speedup: {t1} vs {t2}",
            n
        );
        assert_eq!(r2.rounds, n as usize);
    }

    #[test]
    fn rotated_sbts_exact_time() {
        // T = n·τ + (1/n)(1 - 1/N)·PQ·t_c when n divides every block.
        let n = 4;
        let b = 8usize; // divisible by n=4? 8/4 = 2 ✓
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
        let _ = one_to_all_rotated_sbts(&mut net, NodeId(0), payloads(n, b));
        let r = net.finalize();
        let pq = (b << n) as f64;
        let expect = n as f64 + (1.0 / n as f64) * (1.0 - 1.0 / 16.0) * pq;
        assert!((r.time - expect).abs() < 1e-9, "time {} vs {}", r.time, expect);
    }

    #[test]
    fn split_even_sizes() {
        let parts = split_even((0..10).collect::<Vec<_>>(), 4);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        let flat: Vec<i32> = parts.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn split_even_small_data() {
        let parts = split_even(vec![1, 2], 5);
        assert_eq!(parts.iter().filter(|p| !p.is_empty()).count(), 2);
        assert_eq!(parts.len(), 5);
    }

    #[test]
    fn k_rotated_trees_deliver() {
        let n = 6;
        for k in [1u32, 2, 3, 6] {
            let mut net = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
            let got = one_to_all_k_rotated_sbts(&mut net, NodeId(0), payloads(n, k as usize), k);
            assert_eq!(got, payloads(n, k as usize), "k={k}");
            net.finalize();
        }
    }

    #[test]
    fn reflected_pair_delivers() {
        let n = 6;
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
        let got = one_to_all_reflected_pair(&mut net, NodeId(3), payloads(n, 2));
        assert_eq!(got, payloads(n, 2));
        net.finalize();
    }

    /// §3.1, k = 2 regime: the reflected pairing balances edge loads
    /// better than the optimally rotated pairing — the paper credits
    /// reflection with a maximum of N/2 + 1 element transfers over any
    /// edge versus N/2 + √(N/2) for rotation.
    #[test]
    fn k2_reflection_beats_rotation_on_edge_load() {
        let n = 6; // N = 64
        let big_n = cubeaddr::num_nodes(n) as u64;
        // One element per destination per tree (PQ/N = 2, k = 2).
        let blocks = payloads(n, 2);

        let mut net_rot = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
        let _ = one_to_all_k_rotated_sbts(&mut net_rot, NodeId(0), blocks.clone(), 2);
        let rot = net_rot.finalize();

        let mut net_ref = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
        let _ = one_to_all_reflected_pair(&mut net_ref, NodeId(0), blocks);
        let refl = net_ref.finalize();

        assert_eq!(
            refl.max_link_elems,
            big_n / 2 + 1,
            "reflection max edge load should be N/2 + 1"
        );
        assert!(
            rot.max_link_elems > refl.max_link_elems,
            "rotation load {} should exceed reflection load {}",
            rot.max_link_elems,
            refl.max_link_elems
        );
    }

    #[test]
    #[should_panic(expected = "k | n")]
    fn k_rotated_requires_divisor() {
        let mut net: SimNet<BlockMsg<u64>> =
            SimNet::new(6, MachineParams::unit(PortMode::AllPorts));
        let _ = one_to_all_k_rotated_sbts(&mut net, NodeId(0), payloads(6, 4), 4);
    }

    #[test]
    fn empty_blocks_skipped() {
        // Virtual elements need not be communicated: zero-length blocks
        // cost nothing and arrive as empty.
        let n = 2;
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let blocks = vec![vec![1u64], vec![], vec![3], vec![]];
        let got = one_to_all_sbt(&mut net, NodeId(0), blocks.clone());
        assert_eq!(got, blocks);
        let r = net.finalize();
        assert_eq!(r.total_elems, 1); // only dst 2's block moved (dst 0 stays).
    }
}

//! Spanning balanced *n*-tree (SBnT) routing (paper §3.1–3.2, §5).
//!
//! The SBnT rooted at a node splits the other `N - 1` nodes into `n`
//! nearly equal subtrees, one per port: the message for relative address
//! `j` leaves on port `base(j)` (the rotation that minimizes `j`), then
//! follows the 1-bits of the remaining relative address cyclically to the
//! left. Used with all ports concurrently this balances load a factor of
//! `n/2` better than the SBT, which is what makes the n-port all-to-all
//! time `T_min ≈ PQ/2N·t_c + n·τ` achievable.

use crate::block::{blocks_from, Block, BlockMsg};
use crate::exec;
use crate::one_to_all::payload_per_node;
use crate::plan::skeleton;
use cubeaddr::necklace::{base, nearest_one_left_cyclic};
use cubeaddr::NodeId;
use cubesim::SimNet;

/// The SBnT routing path from `src` to `dst`: the sequence of dimensions
/// crossed, starting with `base(src ⊕ dst)` and then following the set
/// bits of the relative address cyclically to the left (the paper's
/// forwarding rule).
pub fn sbnt_path_dims(src: NodeId, dst: NodeId, n: u32) -> Vec<u32> {
    let rel = src.bits() ^ dst.bits();
    if rel == 0 {
        return Vec::new();
    }
    let first = base(rel, n);
    debug_assert_eq!(rel >> first & 1, 1, "base must point at a set bit");
    let mut dims = vec![first];
    let mut remaining = rel ^ (1u64 << first);
    let mut cur = first;
    while remaining != 0 {
        let next = nearest_one_left_cyclic(remaining, cur, n)
            .expect("remaining bits nonzero but no next dimension");
        dims.push(next);
        remaining ^= 1u64 << next;
        cur = next;
    }
    dims
}

/// All-to-all personalized communication with n-port SBnT routing.
///
/// Every node routes its block for every other node along the SBnT path
/// rooted at itself (the trees at different roots are translations of
/// each other). Blocks advance one hop per round; all blocks queued at a
/// node for the same outgoing dimension travel as one message (one
/// start-up), so the whole operation completes in `max Hamming distance ≤
/// n` rounds with every link busy nearly every round.
///
/// `blocks[src][dst]` as in
/// [`all_to_all_exchange`](crate::exchange::all_to_all_exchange); returns
/// `result[dst]` with source-tagged blocks.
pub fn all_to_all_sbnt<T>(
    net: &mut SimNet<BlockMsg<T>>,
    blocks: Vec<Vec<Vec<T>>>,
) -> Vec<Vec<Block<T>>> {
    let num = net.num_nodes();
    assert_eq!(blocks.len(), num);
    let mut payloads = Vec::new();
    for (s, per_dst) in blocks.into_iter().enumerate() {
        assert_eq!(per_dst.len(), num);
        payloads.extend(blocks_from(NodeId(s as u64), per_dst));
    }
    route_sbnt(net, payloads)
}

/// Routes every block from its `src` along its SBnT path.
fn route_sbnt<T>(net: &mut SimNet<BlockMsg<T>>, payloads: Vec<Block<T>>) -> Vec<Vec<Block<T>>> {
    let metas = exec::metas_at_src(&payloads);
    let rounds = skeleton::sbnt_rounds(net.n(), &metas);
    exec::execute(net, &metas, &rounds, payloads)
}

/// One-to-all personalized communication with n-port SBnT routing
/// (§3.1): the root's blocks fan out over the `n` balanced subtrees, all
/// ports busy from the first round. Blocks queued at a node for the same
/// port travel as one message, so the spanning-tree depth bounds the
/// round count and the balanced port split keeps the root's links within
/// a factor of ~2 of `(1/n)(1 - 1/N)·PQ` elements each.
pub fn one_to_all_sbnt<T>(
    net: &mut SimNet<BlockMsg<T>>,
    root: NodeId,
    blocks: Vec<Vec<T>>,
) -> Vec<Vec<T>> {
    assert_eq!(blocks.len(), net.num_nodes(), "one block per destination");
    payload_per_node(route_sbnt(net, blocks_from(root, blocks)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubeaddr::hamming;
    use cubesim::{MachineParams, PortMode};

    #[test]
    fn path_reaches_destination_and_is_shortest() {
        let n = 5;
        for s in 0..(1u64 << n) {
            for d in 0..(1u64 << n) {
                let dims = sbnt_path_dims(NodeId(s), NodeId(d), n);
                assert_eq!(dims.len() as u32, hamming(s, d), "path not shortest");
                let mut cur = NodeId(s);
                for &dim in &dims {
                    cur = cur.neighbor(dim);
                }
                assert_eq!(cur, NodeId(d));
            }
        }
    }

    #[test]
    fn first_hop_is_base_port() {
        let n = 4;
        for d in 1..(1u64 << n) {
            let dims = sbnt_path_dims(NodeId(0), NodeId(d), n);
            assert_eq!(dims[0], cubeaddr::necklace::base(d, n));
        }
    }

    #[test]
    fn paths_balance_root_ports() {
        // The root's out-port histogram over all destinations is balanced
        // within a factor of 2 (n ≥ 3).
        let n = 6;
        let mut counts = vec![0usize; n as usize];
        for d in 1..(1u64 << n) {
            counts[sbnt_path_dims(NodeId(0), NodeId(d), n)[0] as usize] += 1;
        }
        let (mn, mx) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(mn > 0 && mx <= 2 * mn, "{counts:?}");
    }

    #[test]
    fn translation_invariance() {
        // Tree at root s = tree at 0 translated: path dims are a function
        // of src ⊕ dst only.
        let n = 4;
        for s in 0..(1u64 << n) {
            for d in 0..(1u64 << n) {
                assert_eq!(
                    sbnt_path_dims(NodeId(s), NodeId(d), n),
                    sbnt_path_dims(NodeId(0), NodeId(s ^ d), n)
                );
            }
        }
    }

    fn uniform_blocks(n: u32, b: usize) -> Vec<Vec<Vec<u64>>> {
        let num = cubeaddr::num_nodes(n);
        (0..num as u64).map(|s| (0..num as u64).map(|d| vec![s * 1000 + d; b]).collect()).collect()
    }

    #[test]
    fn all_to_all_delivers_everything() {
        let n = 3;
        let b = 2;
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
        let result = all_to_all_sbnt(&mut net, uniform_blocks(n, b));
        for (d, blks) in result.iter().enumerate() {
            assert_eq!(blks.len(), 1 << n);
            for blk in blks {
                assert_eq!(blk.dst.index(), d);
                assert_eq!(blk.data, vec![blk.src.bits() * 1000 + d as u64; b]);
            }
        }
        net.finalize();
    }

    #[test]
    fn completes_in_n_rounds() {
        let n = 5;
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
        let _ = all_to_all_sbnt(&mut net, uniform_blocks(n, 1));
        let r = net.finalize();
        assert_eq!(r.rounds, n as usize);
    }

    #[test]
    fn n_port_time_beats_one_port_exchange() {
        // For large blocks the SBnT all-to-all transfer time approaches
        // PQ/2N·t_c versus the exchange algorithm's n·PQ/2N·t_c.
        let n = 4;
        let b = 64;
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
        let _ = all_to_all_sbnt(&mut net, uniform_blocks(n, b));
        let r = net.finalize();
        let num = (1 << n) as f64;
        let pq = (b * (1 << n) * (1 << n)) as f64;
        let one_port_transfer = n as f64 * pq / (2.0 * num);
        // Within a factor of 2 of the n-port bound, and clearly below the
        // one-port cost.
        assert!(
            r.transfer_time < one_port_transfer / 2.0,
            "{} vs {}",
            r.transfer_time,
            one_port_transfer
        );
        assert!(r.transfer_time >= pq / (2.0 * num) - 1e-9);
    }

    #[test]
    fn one_to_all_sbnt_delivers() {
        let n = 4;
        let blocks: Vec<Vec<u64>> =
            (0..(1u64 << n)).map(|d| (0..3).map(|i| d * 10 + i).collect()).collect();
        for root in [0u64, 9] {
            let mut net = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
            let got = one_to_all_sbnt(&mut net, NodeId(root), blocks.clone());
            assert_eq!(got, blocks, "root {root}");
            net.finalize();
        }
    }

    #[test]
    fn one_to_all_sbnt_balances_root_ports() {
        // Compared with the SBT (whose heaviest subtree holds half the
        // data), the SBnT splits the root's outflow nearly evenly: the
        // heaviest link carries ≲ 2/n of the total.
        let n = 5;
        let b = 8usize;
        let blocks: Vec<Vec<u64>> = (0..(1u64 << n)).map(|d| vec![d; b]).collect();
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
        let _ = one_to_all_sbnt(&mut net, NodeId(0), blocks);
        let r = net.finalize();
        let pq = (b << n) as u64;
        assert!(
            r.max_link_elems <= 2 * pq / n as u64,
            "max link load {} vs balanced bound {}",
            r.max_link_elems,
            2 * pq / n as u64
        );
        // Within a small factor of the n-port one-to-all optimum. (The
        // paper's reverse-breadth-first *packet* schedule keeps the root
        // streaming continuously; our level-batched forwarding loses a
        // further constant on the deep subtrees.)
        let params = MachineParams::unit(PortMode::AllPorts);
        let t_opt = cubemodel_one_to_all_min(pq, n, &params);
        assert!(r.time <= 3.0 * t_opt, "{} vs 3×{}", r.time, t_opt);
    }

    /// Local copy of the model formula to avoid a dev-dependency cycle.
    fn cubemodel_one_to_all_min(pq: u64, n: u32, m: &MachineParams) -> f64 {
        let big_n = cubeaddr::num_nodes(n) as u64;
        (1.0 / n as f64) * (1.0 - 1.0 / big_n as f64) * pq as f64 * m.t_c + n as f64 * m.tau
    }

    #[test]
    fn max_link_load_near_balanced_bound() {
        // Total element-hops spread over n·N directed links; the max link
        // load should be within 2× of PQ/2N.
        let n = 4;
        let b = 8;
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
        let _ = all_to_all_sbnt(&mut net, uniform_blocks(n, b));
        let r = net.finalize();
        let per_link_bound = (b * (1 << n)) as u64 / 2; // PQ/2N with PQ = b·N².
        assert!(
            r.max_link_elems <= 2 * per_link_bound,
            "max link load {} vs bound {per_link_bound}",
            r.max_link_elems
        );
    }
}

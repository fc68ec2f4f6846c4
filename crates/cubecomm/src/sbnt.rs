//! Spanning balanced *n*-tree (SBnT) routing (paper §3.1–3.2, §5).
//!
//! The SBnT rooted at a node splits the other `N - 1` nodes into `n`
//! nearly equal subtrees, one per port: the message for relative address
//! `j` leaves on port `base(j)` (the rotation that minimizes `j`), then
//! follows the 1-bits of the remaining relative address cyclically to the
//! left. Used with all ports concurrently this balances load a factor of
//! `n/2` better than the SBT, which is what makes the n-port all-to-all
//! time `T_min ≈ PQ/2N·t_c + n·τ` achievable.
//!
//! The algorithm is [`crate::plan::sbnt_plan`]; this module holds its
//! forwarding rule, [`sbnt_path_dims`], and [`all_to_all_sbnt`], which
//! runs [`crate::plan::all_to_all_sbnt_plan`] on payloads.

use crate::block::{Block, BlockMsg};
use crate::exec;
use crate::plan::all_to_all_sbnt_plan;
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

/// All-to-all personalized communication on payloads with n-port SBnT
/// routing: [`all_to_all_sbnt_plan`] of the payload sizes, run by
/// [`exec::execute`]. `blocks[src][dst]` is the payload from `src` to
/// `dst` (empty payloads are not sent); returns `result[dst]`, the
/// source-tagged blocks delivered to `dst`, sources ascending.
#[track_caller]
pub fn all_to_all_sbnt<T>(
    net: &mut SimNet<BlockMsg<T>>,
    blocks: Vec<Vec<Vec<T>>>,
) -> Vec<Vec<Block<T>>> {
    let sizes: Vec<Vec<u64>> =
        blocks.iter().map(|row| row.iter().map(|data| data.len() as u64).collect()).collect();
    let plan = all_to_all_sbnt_plan(net.n(), &sizes);
    let payloads = blocks.into_iter().enumerate().flat_map(|(s, row)| {
        let sent = row.into_iter().enumerate().filter(|(_, data)| !data.is_empty());
        sent.map(move |(d, data)| Block::new(NodeId(s as u64), NodeId(d as u64), data))
    });
    exec::execute(net, &plan, payloads.collect())
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
}

//! The standard exchange algorithm for all-to-all personalized
//! communication (paper §3.2, §8.1).
//!
//! One dimension is processed per step: every node holding blocks whose
//! destination differs from its own address in that dimension exchanges
//! them with its neighbor across the dimension. Scanning all `n` real
//! processor dimensions realizes all-to-all personalized communication in
//! `n` exchanges of `PQ/2N` elements each (one-port optimal within a
//! factor of 2); scanning a subset realizes the splitting/accumulation
//! phases of some-to-all communication.
//!
//! The per-step *send policy* models the Intel iPSC implementation choices
//! of §8.1: the data to exchange occupies `2^j` non-contiguous chunks of
//! the local array at step `j`, which may be sent individually
//! (unbuffered: more start-ups, no copy), gathered into a buffer (one
//! message, significant copy time), or — the optimum — gathered only when
//! a chunk is smaller than the break-even block size `B_copy = τ/t_copy`.

use crate::block::{blocks_from, Block, BlockMsg};
use crate::exec;
use crate::plan::skeleton;
use cubeaddr::NodeId;
use cubesim::SimNet;

/// Send policy for one exchange step (paper §8.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BufferPolicy {
    /// One message per step, no copy charged: the idealized model used in
    /// the complexity sections (equivalently: copy time ignored).
    Ideal,
    /// Every memory-contiguous chunk is its own message: no copy time,
    /// start-ups grow linearly in the number of chunks (≈ `N` total over
    /// a full all-to-all).
    Unbuffered,
    /// Chunks of at least `min_direct` elements are sent directly; the
    /// rest are gathered into one buffer (copy time charged per element)
    /// and sent as a single trailing message. `min_direct = B_copy`
    /// is the optimum of §8.1.
    Buffered {
        /// Minimum chunk size (elements) sent without buffering.
        min_direct: usize,
    },
}

/// Runs exchange steps over `dims` (in the given order) on an arbitrary
/// initial placement of blocks.
///
/// `held[x]` are the blocks initially at node `x`; on return, every block
/// has been routed to its destination and `result[x]` holds node `x`'s
/// incoming blocks. The dimension sequence must cover every bit in which
/// any block's source and destination differ.
///
/// Each step is one-port legal: a node only touches the step's dimension.
///
/// # Panics
/// If some block's destination is unreachable through `dims` (left
/// stranded), or on cost-model violations.
#[track_caller]
pub fn exchange_over_dims<T>(
    net: &mut SimNet<BlockMsg<T>>,
    held: Vec<Vec<Block<T>>>,
    dims: &[u32],
    policy: BufferPolicy,
) -> Vec<Vec<Block<T>>> {
    assert_eq!(held.len(), net.num_nodes());
    // Planned from where each block *is*, whatever its `src` tag says.
    let mut metas = Vec::new();
    let mut payloads = Vec::new();
    for (x, slot) in held.into_iter().enumerate() {
        for b in slot {
            metas.push(exec::meta_at(NodeId(x as u64), &b));
            payloads.push(b);
        }
    }
    let rounds = skeleton::exchange_rounds(net.n(), &metas, dims, policy);
    exec::execute(net, &metas, &rounds, payloads)
}

/// All-to-all personalized communication by the standard exchange
/// algorithm over all `n` dimensions, highest first.
///
/// `blocks[src][dst]` is the payload from `src` to `dst` (empty payloads
/// allowed — virtual elements are not communicated). Returns
/// `result[dst]` = the source-tagged blocks received (plus the diagonal
/// block, which never moves).
pub fn all_to_all_exchange<T>(
    net: &mut SimNet<BlockMsg<T>>,
    blocks: Vec<Vec<Vec<T>>>,
    policy: BufferPolicy,
) -> Vec<Vec<Block<T>>> {
    let n = net.n();
    assert_eq!(blocks.len(), net.num_nodes());
    let held: Vec<Vec<Block<T>>> = blocks
        .into_iter()
        .enumerate()
        .map(|(s, per_dst)| {
            assert_eq!(per_dst.len(), 1 << n, "need one (possibly empty) block per destination");
            blocks_from(NodeId(s as u64), per_dst)
        })
        .collect();
    let dims: Vec<u32> = (0..n).rev().collect();
    exchange_over_dims(net, held, &dims, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::{MachineParams, PortMode};

    /// blocks[src][dst] = [src*1000 + dst; b]
    fn uniform_blocks(n: u32, b: usize) -> Vec<Vec<Vec<u64>>> {
        let num = cubeaddr::num_nodes(n);
        (0..num as u64).map(|s| (0..num as u64).map(|d| vec![s * 1000 + d; b]).collect()).collect()
    }

    fn check_delivery(n: u32, b: usize, result: &[Vec<Block<u64>>]) {
        let num = cubeaddr::num_nodes(n);
        for (d, blks) in result.iter().enumerate() {
            assert_eq!(blks.len(), num, "node {d} should hold one block per source");
            let mut seen = vec![false; num];
            for blk in blks {
                assert_eq!(blk.dst.index(), d);
                assert_eq!(blk.data, vec![blk.src.bits() * 1000 + d as u64; b]);
                assert!(!seen[blk.src.index()]);
                seen[blk.src.index()] = true;
            }
        }
    }

    #[test]
    fn delivers_all_blocks_every_policy() {
        for policy in [
            BufferPolicy::Ideal,
            BufferPolicy::Unbuffered,
            BufferPolicy::Buffered { min_direct: 3 },
        ] {
            let n = 3;
            let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
            let result = all_to_all_exchange(&mut net, uniform_blocks(n, 2), policy);
            check_delivery(n, 2, &result);
            net.finalize();
        }
    }

    #[test]
    fn ideal_time_matches_formula() {
        // T = n(PQ/2N · t_c + τ) for B_m ≥ PQ/2N, unit model.
        let n = 4;
        let b = 4usize; // PQ/N² elements per block
        let num = cubeaddr::num_nodes(n);
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let _ = all_to_all_exchange(&mut net, uniform_blocks(n, b), BufferPolicy::Ideal);
        let r = net.finalize();
        let pq = (b * num * num) as f64;
        let expect = n as f64 * (pq / (2.0 * num as f64) + 1.0);
        assert_eq!(r.rounds, n as usize);
        assert!((r.time - expect).abs() < 1e-9, "{} vs {expect}", r.time);
    }

    #[test]
    fn unbuffered_startups_grow_linearly_in_n_nodes() {
        // Total sub-rounds over the run: Σ_{k=0}^{n-1} 2^k = N - 1.
        let n = 4;
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let _ = all_to_all_exchange(&mut net, uniform_blocks(n, 2), BufferPolicy::Unbuffered);
        let r = net.finalize();
        assert_eq!(r.rounds, (1 << n) - 1);
        assert_eq!(r.critical_startups, (1 << n) - 1);
    }

    #[test]
    fn unbuffered_transfer_volume_unchanged() {
        let n = 3;
        let b = 4;
        let run = |policy| {
            let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
            let _ = all_to_all_exchange(&mut net, uniform_blocks(n, b), policy);
            net.finalize()
        };
        let ideal = run(BufferPolicy::Ideal);
        let unbuf = run(BufferPolicy::Unbuffered);
        assert_eq!(ideal.critical_elems, unbuf.critical_elems);
        assert_eq!(ideal.total_elems, unbuf.total_elems);
    }

    #[test]
    fn buffered_charges_copy_only_for_small_chunks() {
        let n = 3;
        let b = 4; // chunk sizes at steps: 16, 8, 4 elements
        let params = MachineParams::unit(PortMode::OnePort).with_t_copy(1.0);
        // Threshold 8: the 4-element chunks of the last step are gathered.
        let mut net = SimNet::new(n, params);
        let result = all_to_all_exchange(
            &mut net,
            uniform_blocks(n, b),
            BufferPolicy::Buffered { min_direct: 8 },
        );
        check_delivery(n, b, &result);
        let r = net.finalize();
        // Last step: 4 chunks × 4 elements gathered = 16 elements copied.
        assert_eq!(r.max_node_copy_elems, 16);
        // Rounds: step0 = 1 direct; step1 = 2 direct; step2 = 1 gathered.
        assert_eq!(r.rounds, 4);
    }

    #[test]
    fn buffered_with_huge_threshold_equals_one_message_per_step() {
        let n = 3;
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort).with_t_copy(0.0));
        let _ = all_to_all_exchange(
            &mut net,
            uniform_blocks(n, 2),
            BufferPolicy::Buffered { min_direct: usize::MAX },
        );
        let r = net.finalize();
        assert_eq!(r.rounds, n as usize);
    }

    #[test]
    fn buffered_with_zero_threshold_equals_unbuffered() {
        let n = 3;
        let run = |policy| {
            let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
            let _ = all_to_all_exchange(&mut net, uniform_blocks(n, 2), policy);
            net.finalize()
        };
        let a = run(BufferPolicy::Unbuffered);
        let b = run(BufferPolicy::Buffered { min_direct: 0 });
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.time, b.time);
    }

    #[test]
    fn exchange_over_dim_subset_routes_within_subcubes() {
        // Blocks only differ in dims {0, 2}: scanning those two dims
        // suffices; dim 1 coordinates stay fixed.
        let n = 3;
        let num = cubeaddr::num_nodes(n);
        let held: Vec<Vec<Block<u64>>> = (0..num as u64)
            .map(|s| {
                (0..num as u64)
                    .filter(|d| (s ^ d) & 0b010 == 0)
                    .map(|d| Block::new(NodeId(s), NodeId(d), vec![s * 100 + d]))
                    .collect()
            })
            .collect();
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let result = exchange_over_dims(&mut net, held, &[2, 0], BufferPolicy::Ideal);
        for (x, blks) in result.iter().enumerate() {
            assert_eq!(blks.len(), 4);
            for b in blks {
                assert_eq!(b.dst.index(), x);
            }
        }
        net.finalize();
    }

    #[test]
    #[should_panic(expected = "stranded")]
    fn uncovered_dimension_detected() {
        let held: Vec<Vec<Block<u64>>> = vec![
            vec![Block::new(NodeId(0), NodeId(3), vec![7])],
            Vec::new(),
            Vec::new(),
            Vec::new(),
        ];
        let mut net = SimNet::new(2, MachineParams::unit(PortMode::OnePort));
        let _ = exchange_over_dims(&mut net, held, &[0], BufferPolicy::Ideal);
    }

    #[test]
    fn diagonal_blocks_never_move() {
        let n = 2;
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let mut blocks = uniform_blocks(n, 1);
        // Only keep diagonal data.
        for (s, per_dst) in blocks.iter_mut().enumerate() {
            for (d, data) in per_dst.iter_mut().enumerate() {
                if s != d {
                    data.clear();
                }
            }
        }
        let result = all_to_all_exchange(&mut net, blocks, BufferPolicy::Ideal);
        let r = net.finalize();
        assert_eq!(r.total_elems, 0);
        assert_eq!(r.total_messages, 0);
        for (d, blks) in result.iter().enumerate() {
            assert_eq!(blks.len(), 1);
            assert_eq!(blks[0].src.index(), d);
        }
    }
}

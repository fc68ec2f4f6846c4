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
//!
//! The algorithm is [`crate::plan::exchange_plan`]. This module holds its
//! send policy and [`exchange_over_dims`], which runs that schedule on
//! payload blocks from wherever they are held.

use crate::block::{Block, BlockMsg};
use crate::exec;
use crate::plan::{skeleton, BlockMeta, CommSchedule};
use cubeaddr::NodeId;
use cubesim::SimNet;
use cubetopo::TopoSpec;

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
/// If `held` does not have one list per node of the net, if some
/// block's destination is unreachable through `dims` (left stranded),
/// or on cost-model violations.
#[track_caller]
pub fn exchange_over_dims<T>(
    net: &mut SimNet<BlockMsg<T>>,
    held: Vec<Vec<Block<T>>>,
    dims: &[u32],
    policy: BufferPolicy,
) -> Vec<Vec<Block<T>>> {
    assert!(
        held.len() == net.num_nodes(),
        "exchange_over_dims: {} holder lists for the {} nodes of the {}-cube",
        held.len(),
        net.num_nodes(),
        net.n()
    );
    // Planned from where each block *is*, whatever its `src` tag says.
    let mut metas = Vec::new();
    let mut payloads = Vec::new();
    for (x, slot) in held.into_iter().enumerate() {
        for b in slot {
            metas.push(BlockMeta { src: NodeId(x as u64), dst: b.dst, elems: b.data.len() as u64 });
            payloads.push(b);
        }
    }
    let (rounds, block_ids) = skeleton::exchange_rounds(net.n(), &metas, dims, policy);
    let plan = CommSchedule {
        name: "exchange_over_dims".into(),
        topo: TopoSpec::hypercube(net.n()),
        ports: net.params().ports,
        dimension_ordered: true,
        blocks: metas,
        block_ids,
        rounds,
    }
    .checked();
    exec::execute(net, &plan, payloads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::{MachineParams, PortMode};

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
    #[should_panic(expected = "exchange_over_dims: 4 holder lists for the 8 nodes of the 3-cube")]
    fn holder_lists_must_cover_the_cube() {
        let held: Vec<Vec<Block<u64>>> = vec![Vec::new(); 4];
        let mut net = SimNet::new(3, MachineParams::unit(PortMode::OnePort));
        let _ = exchange_over_dims(&mut net, held, &[0, 1, 2], BufferPolicy::Ideal);
    }
}

//! Factored schedule construction — the one copy of each algorithm's
//! control flow: the executor runs these rounds ([`crate::exec::run`])
//! and the router runs [`route_hops`]' log, so nothing here mirrors
//! anything.
//!
//! The original planners (preserved verbatim in [`super::reference`])
//! rebuilt every schedule by simulating every node: per-node `Vec`s of
//! held blocks, partitioned and re-scattered once per round, across all
//! `2^n` nodes — O(2^n) work and allocations per round even when only a
//! handful of nodes send. The paper's algorithms are node-symmetric by
//! design, so almost all of that work is redundant: a block's entire
//! trajectory is a function of its own addresses, not of the global
//! state.
//!
//! Every builder here is factored into the same two phases, both on
//! the calling thread:
//!
//! 1. **Skeleton (allocation-light).** The node-independent
//!    round structure is computed once, directly from block addresses:
//!    the exchange family moves a block at step `t` iff bit `dims[t]` of
//!    `src ⊕ dst` is set, and the holder is `src` relabeled by the
//!    already-exchanged dimension mask; SBT/rotated-tree blocks sit at
//!    logical node `l(dst) mod 2^j` in round `j` (instantiated
//!    per-physical-node through the tree's relabeling); SBnT paths
//!    depend only on the relative address `src ⊕ dst`, so each distinct
//!    relative address's path is computed once and shared. Scratch
//!    buffers (`buckets`, `touched`, keep/move lists) are hoisted out of
//!    the round loop and reused.
//! 2. **Instantiation (serial, deterministic).** Each round's
//!    [`PlanRound`] — where the allocation-heavy `PlannedMsg`/block-id
//!    vectors are materialized — is emitted as soon as its skeleton is
//!    known, in round order. Forking the rounds over threads was
//!    measured and never won (the table is in the module doc of
//!    `cubesim`'s `par`). Emitted schedules are byte-identical to
//!    [`super::reference`] (enforced by the `plan_construction` property
//!    tests).
//!
//! Store-and-forward routing (e-cube on the cube, direct routing on the
//! Swapped Dragonfly) cannot be factored — its round structure is a
//! contention simulation — so it exists once, [`route_hops`], generic
//! over [`MinimalRoute`]: intrusive FIFO slabs (`head`/`tail`/`next`
//! arrays, no per-lane `VecDeque`) and a live-lane bitmap, so a round
//! costs O(live lanes), not O(nodes · ports) full-lattice scans.

use super::{chunk_ids, BlockMeta, PlanRound, PlannedMsg};
use crate::exchange::BufferPolicy;
use crate::sbnt::sbnt_path_dims;
use crate::sbt::Sbt;
use cubeaddr::NodeId;
use cubetopo::MinimalRoute;

/// One exchange step's instantiated skeleton: the dimension crossed, its
/// position in the dimension sequence, and the senders with their block
/// runs (senders ascending, blocks in held order).
struct ExchangeStep<'a> {
    dim: u32,
    step_index: usize,
    /// `(node, start, end)` runs into `movers`, senders ascending.
    senders: &'a [(u64, u32, u32)],
    /// Moving block ids, grouped by sender.
    movers: &'a [u32],
}

/// Rounds of [`super::exchange_plan`] and of
/// [`crate::exchange::exchange_over_dims`]: dimension `dims[t]` is
/// exchanged at step `t`, under `policy`.
///
/// A block moves at step `t` iff bit `dims[t]` of `src ⊕ dst` is set and
/// the dimension has not been exchanged before; its holder is `src` with
/// every already-exchanged bit replaced by `dst`'s. The held order at
/// each node (which fixes block order inside a message) is maintained
/// as one global rank list: each step stably partitions it into keepers
/// then movers, whose restriction to any node is that node's list.
pub(crate) fn exchange_rounds(
    n: u32,
    blocks: &[BlockMeta],
    dims: &[u32],
    policy: BufferPolicy,
) -> Vec<PlanRound> {
    let num = cubeaddr::num_nodes(n);
    let mut rank: Vec<u32> = (0..blocks.len() as u32).collect();
    // Round-local scratch, hoisted and reused across steps.
    let mut keeps: Vec<u32> = Vec::with_capacity(blocks.len());
    let mut moved: Vec<u32> = Vec::with_capacity(blocks.len());
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); num];
    let mut touched: Vec<u64> = Vec::new();
    let mut movers: Vec<u32> = Vec::with_capacity(blocks.len());
    let mut senders: Vec<(u64, u32, u32)> = Vec::new();
    let mut seen = 0u64;
    let mut rounds: Vec<PlanRound> = Vec::with_capacity(dims.len());
    for (step_index, &j) in dims.iter().enumerate() {
        assert!(j < n, "exchange dimension {j} outside the {n}-cube");
        let bit = 1u64 << j;
        let fresh = seen & bit == 0;
        keeps.clear();
        moved.clear();
        for &id in &rank {
            let b = &blocks[id as usize];
            if fresh && (b.src.bits() ^ b.dst.bits()) & bit != 0 {
                let loc = (b.src.bits() & !seen) | (b.dst.bits() & seen);
                let slot = &mut buckets[loc as usize];
                if slot.is_empty() {
                    touched.push(loc);
                }
                slot.push(id);
                moved.push(id);
            } else {
                keeps.push(id);
            }
        }
        touched.sort_unstable();
        movers.clear();
        senders.clear();
        for &x in &touched {
            let slot = &mut buckets[x as usize];
            let start = movers.len() as u32;
            movers.extend_from_slice(slot);
            slot.clear();
            senders.push((x, start, movers.len() as u32));
        }
        touched.clear();
        let step = ExchangeStep { dim: j, step_index, senders: &senders, movers: &movers };
        rounds.extend(emit_exchange_step(&step, blocks, policy));
        // Keepers first, movers after — the arrival order at every node.
        rank.clear();
        rank.extend_from_slice(&keeps);
        rank.extend_from_slice(&moved);
        seen |= bit;
    }
    rounds
}

/// Materializes one exchange step's rounds under the send policy (paper
/// §8.1), senders only.
fn emit_exchange_step(
    step: &ExchangeStep,
    blocks: &[BlockMeta],
    policy: BufferPolicy,
) -> Vec<PlanRound> {
    let elems_of = |ids: &[u32]| -> u64 { ids.iter().map(|&i| blocks[i as usize].elems).sum() };
    let run = |&(_, s, e): &(u64, u32, u32)| &step.movers[s as usize..e as usize];
    match policy {
        BufferPolicy::Ideal => {
            // One round per step, sends or not: the step's round boundary
            // is paid either way.
            let msgs = step
                .senders
                .iter()
                .map(|sender| PlannedMsg {
                    src: NodeId(sender.0),
                    dim: step.dim,
                    blocks: run(sender).to_vec(),
                })
                .collect();
            vec![PlanRound { msgs, copies: Vec::new() }]
        }
        BufferPolicy::Unbuffered => {
            let chunked: Vec<(u64, Vec<Vec<u32>>)> = step
                .senders
                .iter()
                .map(|sender| (sender.0, chunk_ids(run(sender).to_vec(), step.step_index, blocks)))
                .collect();
            let max_chunks = chunked.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
            // One sub-round per chunk ordinal; a step nobody sends in
            // costs no rounds at all.
            (0..max_chunks)
                .map(|i| PlanRound {
                    msgs: chunked
                        .iter()
                        .filter(|(_, c)| i < c.len())
                        .map(|(x, c)| PlannedMsg {
                            src: NodeId(*x),
                            dim: step.dim,
                            blocks: c[i].clone(),
                        })
                        .collect(),
                    copies: Vec::new(),
                })
                .collect()
        }
        BufferPolicy::Buffered { min_direct } => {
            // (direct chunks, gathered ids) per sender.
            let split: Vec<(u64, Vec<Vec<u32>>, Vec<u32>)> = step
                .senders
                .iter()
                .map(|sender| {
                    let mut direct = Vec::new();
                    let mut gathered = Vec::new();
                    for chunk in chunk_ids(run(sender).to_vec(), step.step_index, blocks) {
                        if elems_of(&chunk) >= min_direct as u64 {
                            direct.push(chunk);
                        } else {
                            gathered.extend(chunk);
                        }
                    }
                    (sender.0, direct, gathered)
                })
                .collect();
            let max_direct = split.iter().map(|(_, d, _)| d.len()).max().unwrap_or(0);
            let mut rounds: Vec<PlanRound> = (0..max_direct)
                .map(|i| PlanRound {
                    msgs: split
                        .iter()
                        .filter(|(_, direct, _)| i < direct.len())
                        .map(|(x, direct, _)| PlannedMsg {
                            src: NodeId(*x),
                            dim: step.dim,
                            blocks: direct[i].clone(),
                        })
                        .collect(),
                    copies: Vec::new(),
                })
                .collect();
            if split.iter().any(|(_, _, g)| !g.is_empty()) {
                let mut round = PlanRound::default();
                for (x, _, gathered) in &split {
                    if !gathered.is_empty() {
                        round.copies.push((NodeId(*x), elems_of(gathered)));
                        round.msgs.push(PlannedMsg {
                            src: NodeId(*x),
                            dim: step.dim,
                            blocks: gathered.clone(),
                        });
                    }
                }
                rounds.push(round);
            }
            rounds
        }
    }
}

/// Rounds of [`super::one_to_all_sbt_plan`]: in round `j` the block for
/// logical destination `l` sits at logical node `l mod 2^j` and is sent
/// iff bit `j` of `l` is set. The logical structure is the skeleton; the
/// tree's `physical`/`physical_dim` relabeling instantiates it.
pub(crate) fn sbt_rounds(n: u32, blocks: &[BlockMeta], tree: &Sbt) -> Vec<PlanRound> {
    let logical: Vec<u64> = blocks.iter().map(|b| tree.logical(b.dst)).collect();
    let mut rounds = Vec::with_capacity(n as usize);
    for j in 0..n {
        let dim = tree.physical_dim(j);
        let mut round = PlanRound::default();
        // Movers in id order (= held order: all blocks share the root
        // history), grouped by their logical holder.
        let mut movers: Vec<(u64, u32)> = (0..blocks.len() as u32)
            .filter(|&id| logical[id as usize] >> j & 1 == 1)
            .map(|id| (logical[id as usize] & cubeaddr::mask(j), id))
            .collect();
        movers.sort_by_key(|&(lx, _)| lx);
        emit_grouped(&mut round, &movers, |lx| (tree.physical(lx), dim));
        rounds.push(round);
    }
    rounds
}

/// Rounds of [`super::one_to_all_trees_plan`]: the SBT skeleton of
/// [`sbt_rounds`], once per tree per round, messages in tree-major
/// order. `tree_of[id]` is the tree routing block `id`.
pub(crate) fn trees_rounds(
    n: u32,
    blocks: &[BlockMeta],
    trees: &[Sbt],
    tree_of: &[u32],
) -> Vec<PlanRound> {
    // Per-tree id lists (ascending) and logical destinations, computed
    // once and shared by every round.
    let mut ids_by_tree: Vec<Vec<u32>> = vec![Vec::new(); trees.len()];
    let mut logical: Vec<u64> = Vec::with_capacity(blocks.len());
    for (id, (b, &k)) in blocks.iter().zip(tree_of).enumerate() {
        ids_by_tree[k as usize].push(id as u32);
        logical.push(trees[k as usize].logical(b.dst));
    }
    let mut rounds = Vec::with_capacity(n as usize);
    for j in 0..n {
        let mut round = PlanRound::default();
        for (tree, ids) in trees.iter().zip(&ids_by_tree) {
            let dim = tree.physical_dim(j);
            let mut movers: Vec<(u64, u32)> = ids
                .iter()
                .filter(|&&id| logical[id as usize] >> j & 1 == 1)
                .map(|&id| (logical[id as usize] & cubeaddr::mask(j), id))
                .collect();
            movers.sort_by_key(|&(lx, _)| lx);
            emit_grouped(&mut round, &movers, |lx| (tree.physical(lx), dim));
        }
        rounds.push(round);
    }
    rounds
}

/// Appends one message per `(logical holder)` group of `movers` (sorted
/// by holder, ids in held order within a group) to `round`.
fn emit_grouped(
    round: &mut PlanRound,
    movers: &[(u64, u32)],
    src_dim: impl Fn(u64) -> (NodeId, u32),
) {
    let mut i = 0;
    while i < movers.len() {
        let lx = movers[i].0;
        let start = i;
        while i < movers.len() && movers[i].0 == lx {
            i += 1;
        }
        let (src, dim) = src_dim(lx);
        round.msgs.push(PlannedMsg {
            src,
            dim,
            blocks: movers[start..i].iter().map(|&(_, id)| id).collect(),
        });
    }
}

/// Rounds of [`super::sbnt_plan`]. The skeleton is the path
/// table: SBnT paths depend only on the relative address `src ⊕ dst`
/// (trees at different roots are translations of each other), so each
/// distinct relative address's path is computed once and shared by all
/// `2^n` source nodes.
pub(crate) fn sbnt_rounds(n: u32, blocks: &[BlockMeta]) -> Vec<PlanRound> {
    let num = cubeaddr::num_nodes(n);
    let mut path_of_rel: Vec<Vec<u32>> = vec![Vec::new(); num];
    let mut rel_of: Vec<u64> = Vec::with_capacity(blocks.len());
    let mut cur: Vec<u64> = Vec::with_capacity(blocks.len());
    let mut pos: Vec<u32> = vec![0; blocks.len()];
    let mut rank: Vec<u32> = Vec::new();
    for (id, b) in blocks.iter().enumerate() {
        let rel = b.src.bits() ^ b.dst.bits();
        rel_of.push(rel);
        cur.push(b.src.bits());
        if rel != 0 {
            rank.push(id as u32);
            if path_of_rel[rel as usize].is_empty() {
                path_of_rel[rel as usize] = sbnt_path_dims(b.src, b.dst, n);
            }
        }
    }
    // The dimension block `id` crosses next (its path at its position).
    fn next_dim(path_of_rel: &[Vec<u32>], rel_of: &[u64], pos: &[u32], id: u32) -> u32 {
        path_of_rel[rel_of[id as usize] as usize][pos[id as usize] as usize]
    }
    let mut rounds: Vec<PlanRound> = Vec::new();
    while !rank.is_empty() {
        // Pending order at every node is the restriction of one global
        // rank; grouping by (node, dim) is a stable sort of it.
        let key = |id: u32| (cur[id as usize], next_dim(&path_of_rel, &rel_of, &pos, id));
        rank.sort_by_key(|&id| key(id));
        let mut round = PlanRound::default();
        let mut i = 0;
        while i < rank.len() {
            let (x, dim) = key(rank[i]);
            let start = i;
            while i < rank.len() && key(rank[i]) == (x, dim) {
                i += 1;
            }
            round.msgs.push(PlannedMsg { src: NodeId(x), dim, blocks: rank[start..i].to_vec() });
        }
        rounds.push(round);
        for &id in &rank {
            let d = next_dim(&path_of_rel, &rel_of, &pos, id);
            cur[id as usize] ^= 1u64 << d;
            pos[id as usize] += 1;
        }
        rank.retain(|&id| {
            (pos[id as usize] as usize) < path_of_rel[rel_of[id as usize] as usize].len()
        });
    }
    rounds
}

/// "Empty" sentinel for the intrusive lane FIFOs (block ids are `u32`
/// and `check_blocks` caps the id space below `u32::MAX`).
const NONE: u32 = u32::MAX;

/// Appends `id` to the lane's FIFO, marking the lane live if it was
/// empty.
fn lane_push(
    head: &mut [u32],
    tail: &mut [u32],
    next: &mut [u32],
    live: &mut [u64],
    lane: usize,
    id: u32,
) {
    next[id as usize] = NONE;
    if tail[lane] == NONE {
        head[lane] = id;
        live[lane / 64] |= 1u64 << (lane % 64);
    } else {
        next[tail[lane] as usize] = id;
    }
    tail[lane] = id;
}

/// One round-delimited hop log of [`route_hops`]: `(sender, port, block
/// id)` records in send order, and the round bounds into them (round `r`
/// is `hops[bounds[r]..bounds[r + 1]]`).
pub(crate) type HopLog = (Vec<(u64, u32, u32)>, Vec<usize>);

/// The contention simulation of minimal-path store-and-forward routing
/// on `topo`: one message per directed link per round, FIFO per link.
/// [`route_rounds`] materializes its log as a plan and
/// [`crate::graph::graph_route`] charges it hop by hop, so the FIFO
/// discipline exists once. One lane per directed link
/// (`node * ports + port`), each an intrusive FIFO (a block sits in at
/// most one queue, so one `next` slot per block suffices), and a
/// live-lane bitmap whose ascending scan stages nodes ascending, ports
/// ascending; sends are committed port-major, and a landed block joins
/// its next lane in send order.
pub(crate) fn route_hops<G: MinimalRoute>(topo: &G, blocks: &[BlockMeta]) -> HopLog {
    assert!(blocks.len() < NONE as usize, "block id space exhausted");
    let ports = topo.ports() as usize;
    let lanes = topo.num_nodes() * ports;
    let mut head = vec![NONE; lanes];
    let mut tail = vec![NONE; lanes];
    let mut next = vec![NONE; blocks.len()];
    let mut live = vec![0u64; lanes.div_ceil(64)];
    let mut in_flight = 0usize;
    for (id, b) in blocks.iter().enumerate() {
        if let Some(p) = topo.next_port(b.src.bits(), b.dst.bits()) {
            let lane = b.src.index() * ports + p as usize;
            lane_push(&mut head, &mut tail, &mut next, &mut live, lane, id as u32);
            in_flight += 1;
        }
    }
    // The whole simulation allocates nothing per hop.
    let mut hops: Vec<(u64, u32, u32)> = Vec::new();
    let mut bounds: Vec<usize> = vec![0];
    let mut commit: Vec<Vec<(u64, u32)>> = vec![Vec::new(); ports];
    while in_flight > 0 {
        // Stage: pop the head of every live lane, lanes ascending
        // (node-major, port-minor).
        for (w, word) in live.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let lane = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let id = head[lane];
                head[lane] = next[id as usize];
                if head[lane] == NONE {
                    tail[lane] = NONE;
                    *word &= !(1u64 << (lane % 64));
                }
                commit[lane % ports].push(((lane / ports) as u64, id));
            }
        }
        // Commit port-major — the send order.
        for (p, staged) in commit.iter_mut().enumerate() {
            for (src, id) in staged.drain(..) {
                hops.push((src, p as u32, id));
            }
        }
        // Land in send order: retire arrivals, requeue the rest on the
        // next port of their route.
        for &(src, p, id) in &hops[bounds[bounds.len() - 1]..] {
            let land = topo.neighbor(src, p).expect("minimal routes cross wired ports only");
            match topo.next_port(land, blocks[id as usize].dst.bits()) {
                None => in_flight -= 1,
                Some(np) => {
                    let lane = land as usize * ports + np as usize;
                    lane_push(&mut head, &mut tail, &mut next, &mut live, lane, id);
                }
            }
        }
        bounds.push(hops.len());
    }
    (hops, bounds)
}

/// Rounds of [`super::ecube_route_plan`] and
/// [`super::dragonfly_direct_plan`]: [`route_hops`]' log, one
/// single-block message per hop.
pub(super) fn route_rounds<G: MinimalRoute>(topo: &G, blocks: &[BlockMeta]) -> Vec<PlanRound> {
    let (hops, bounds) = route_hops(topo, blocks);
    bounds
        .windows(2)
        .map(|w| PlanRound {
            msgs: hops[w[0]..w[1]]
                .iter()
                .map(|&(src, dim, id)| PlannedMsg { src: NodeId(src), dim, blocks: vec![id] })
                .collect(),
            copies: Vec::new(),
        })
        .collect()
}

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
//!    [`PlanRound`] is emitted as soon as its skeleton is known: one
//!    message list per round, each message's block ids appended to the
//!    plan's one arena (no list per message). Rounds come in order, their
//!    messages ascending by channel
//!    (`src · ports + dim`): the order `cubecheck`'s fold walks without
//!    sorting, produced by the grouping each builder already does
//!    (no extra per-round sort). Forking the rounds over threads was
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
//! costs O(live lanes), not O(nodes · ports) full-lattice scans. Its hop
//! log is sized up front by the routes' lengths and its id column is the
//! plan's arena, so a routing plan allocates a fixed number of vectors
//! plus one message list per round.

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
    movers: &'a mut [u32],
}

/// A builder's output: its rounds, and the block-id arena their
/// messages' ranges index (laid out in schedule order).
pub(crate) type Rounds = (Vec<PlanRound>, Vec<u32>);

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
) -> Rounds {
    let num = cubeaddr::num_nodes(n);
    let mut rank: Vec<u32> = (0..blocks.len() as u32).collect();
    // Round-local scratch, hoisted and reused across steps.
    let mut keeps: Vec<u32> = Vec::with_capacity(blocks.len());
    let mut moved: Vec<u32> = Vec::with_capacity(blocks.len());
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); num];
    let mut touched: Vec<u64> = Vec::new();
    let mut movers: Vec<u32> = Vec::with_capacity(blocks.len());
    let mut senders: Vec<(u64, u32, u32)> = Vec::new();
    let mut chunks = ChunkScratch::default();
    let mut seen = 0u64;
    let mut rounds: Vec<PlanRound> = Vec::with_capacity(dims.len());
    let mut ids: Vec<u32> = Vec::new();
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
        let step = ExchangeStep { dim: j, step_index, senders: &senders, movers: &mut movers };
        emit_exchange_step(step, blocks, policy, &mut chunks, &mut rounds, &mut ids);
        // Keepers first, movers after — the arrival order at every node.
        rank.clear();
        rank.extend_from_slice(&keeps);
        rank.extend_from_slice(&moved);
        seen |= bit;
    }
    (rounds, ids)
}

/// One step's chunk split under a chunking policy, reused across steps:
/// per sender, its direct chunks (ranges of the step's movers) and its
/// gathered ids.
#[derive(Default)]
struct ChunkScratch {
    /// `(node, direct start, direct end, gathered start, gathered end)`
    /// per sender, ranges into `direct` and `gathered`.
    split: Vec<(u64, usize, usize, usize, usize)>,
    /// Direct chunks as `(start, end)` ranges of the step's movers.
    direct: Vec<(usize, usize)>,
    gathered: Vec<u32>,
}

/// Materializes one exchange step's rounds under the send policy (paper
/// §8.1), senders only, appending them to `rounds` and their ids to the
/// arena `ids`. The chunking policies sort each sender's run of movers
/// in place into chunk order.
fn emit_exchange_step(
    step: ExchangeStep,
    blocks: &[BlockMeta],
    policy: BufferPolicy,
    scratch: &mut ChunkScratch,
    rounds: &mut Vec<PlanRound>,
    ids: &mut Vec<u32>,
) {
    let elems_of = |ids: &[u32]| -> u64 { ids.iter().map(|&i| blocks[i as usize].elems).sum() };
    let min_direct = match policy {
        BufferPolicy::Ideal => {
            // One round per step, sends or not: the step's round boundary
            // is paid either way.
            let msgs = step
                .senders
                .iter()
                .map(|&(x, s, e)| {
                    let run = &step.movers[s as usize..e as usize];
                    PlannedMsg::push(ids, NodeId(x), step.dim, run.iter().copied())
                })
                .collect();
            rounds.push(PlanRound { msgs, copies: Vec::new() });
            return;
        }
        // Unbuffered sends every chunk directly: a threshold no chunk
        // falls short of.
        BufferPolicy::Unbuffered => 0,
        BufferPolicy::Buffered { min_direct } => min_direct as u64,
    };
    let ChunkScratch { split, direct, gathered } = scratch;
    split.clear();
    direct.clear();
    gathered.clear();
    for &(x, s, e) in step.senders {
        let (s, e) = (s as usize, e as usize);
        let run = &mut step.movers[s..e];
        let per = chunk_ids(run, step.step_index, blocks);
        let (d0, g0) = (direct.len(), gathered.len());
        for (k, chunk) in run.chunks(per).enumerate() {
            if elems_of(chunk) >= min_direct {
                direct.push((s + k * per, s + k * per + chunk.len()));
            } else {
                gathered.extend_from_slice(chunk);
            }
        }
        split.push((x, d0, direct.len(), g0, gathered.len()));
    }
    let movers = &*step.movers;
    // One sub-round per direct chunk ordinal; a step nobody sends in
    // costs no rounds at all.
    let max_direct = split.iter().map(|&(_, d0, d1, ..)| d1 - d0).max().unwrap_or(0);
    for i in 0..max_direct {
        let msgs = split
            .iter()
            .filter(|&&(_, d0, d1, ..)| i < d1 - d0)
            .map(|&(x, d0, ..)| {
                let (a, b) = direct[d0 + i];
                PlannedMsg::push(ids, NodeId(x), step.dim, movers[a..b].iter().copied())
            })
            .collect();
        rounds.push(PlanRound { msgs, copies: Vec::new() });
    }
    if !gathered.is_empty() {
        let mut round = PlanRound::default();
        for &(x, .., g0, g1) in split.iter().filter(|&&(.., g0, g1)| g0 < g1) {
            let run = &gathered[g0..g1];
            round.copies.push((NodeId(x), elems_of(run)));
            round.msgs.push(PlannedMsg::push(ids, NodeId(x), step.dim, run.iter().copied()));
        }
        rounds.push(round);
    }
}

/// Rounds of [`super::one_to_all_sbt_plan`]: in round `j` the block for
/// logical destination `l` sits at logical node `l mod 2^j` and is sent
/// iff bit `j` of `l` is set. The logical structure is the skeleton; the
/// tree's `physical`/`physical_dim` relabeling instantiates it. Every
/// message of a round crosses the same dimension, so its senders
/// ascend.
pub(crate) fn sbt_rounds(n: u32, blocks: &[BlockMeta], tree: &Sbt) -> Rounds {
    let logical: Vec<u64> = blocks.iter().map(|b| tree.logical(b.dst)).collect();
    let mut rounds = Vec::with_capacity(n as usize);
    let mut ids = Vec::new();
    for j in 0..n {
        let dim = tree.physical_dim(j);
        let mut round = PlanRound::default();
        // Movers in id order (= held order: all blocks share the root
        // history), grouped by their physical holder.
        let mut movers: Vec<(u64, u32)> = (0..blocks.len() as u32)
            .filter(|&id| logical[id as usize] >> j & 1 == 1)
            .map(|id| (tree.physical(logical[id as usize] & cubeaddr::mask(j)).bits(), id))
            .collect();
        movers.sort_by_key(|&(x, _)| x);
        emit_grouped(&mut round, &mut ids, &movers, |x| (NodeId(x), dim));
        rounds.push(round);
    }
    (rounds, ids)
}

/// Rounds of [`super::one_to_all_trees_plan`]: the SBT skeleton of
/// [`sbt_rounds`], once per tree per round. A round's messages ascend
/// by `(sender, dimension)`; two trees that claim one link (contention
/// an execution refuses) keep one message each, in tree order.
/// `tree_of[id]` is the tree routing block `id`.
pub(crate) fn trees_rounds(n: u32, blocks: &[BlockMeta], trees: &[Sbt], tree_of: &[u32]) -> Rounds {
    let logical: Vec<u64> =
        blocks.iter().zip(tree_of).map(|(b, &k)| trees[k as usize].logical(b.dst)).collect();
    let mut rounds = Vec::with_capacity(n as usize);
    let mut ids = Vec::new();
    for j in 0..n {
        let dims: Vec<u32> = trees.iter().map(|t| t.physical_dim(j)).collect();
        let mut round = PlanRound::default();
        // Movers in id order, grouped by (physical holder, dimension,
        // tree).
        let mut movers: Vec<((u64, u32, u32), u32)> = (0..blocks.len() as u32)
            .filter(|&id| logical[id as usize] >> j & 1 == 1)
            .map(|id| {
                let k = tree_of[id as usize];
                let lx = logical[id as usize] & cubeaddr::mask(j);
                ((trees[k as usize].physical(lx).bits(), dims[k as usize], k), id)
            })
            .collect();
        movers.sort_by_key(|&(key, _)| key);
        emit_grouped(&mut round, &mut ids, &movers, |(x, dim, _)| (NodeId(x), dim));
        rounds.push(round);
    }
    (rounds, ids)
}

/// Appends one message per holder group of `movers` (sorted by their
/// group key, ids in held order within a group) to `round`, and its ids
/// to the arena `ids`.
fn emit_grouped<K: Copy + PartialEq>(
    round: &mut PlanRound,
    ids: &mut Vec<u32>,
    movers: &[(K, u32)],
    src_dim: impl Fn(K) -> (NodeId, u32),
) {
    for group in movers.chunk_by(|a, b| a.0 == b.0) {
        let (src, dim) = src_dim(group[0].0);
        round.msgs.push(PlannedMsg::push(ids, src, dim, group.iter().map(|&(_, id)| id)));
    }
}

/// Rounds of [`super::sbnt_plan`]. The skeleton is the path
/// table: SBnT paths depend only on the relative address `src ⊕ dst`
/// (trees at different roots are translations of each other), so each
/// distinct relative address's path is computed once and shared by all
/// `2^n` source nodes.
pub(crate) fn sbnt_rounds(n: u32, blocks: &[BlockMeta]) -> Rounds {
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
    let mut ids: Vec<u32> = Vec::new();
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
            let group = rank[start..i].iter().copied();
            round.msgs.push(PlannedMsg::push(&mut ids, NodeId(x), dim, group));
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
    (rounds, ids)
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

/// One hop log of [`route_hops`], in two columns: hop `i` is block
/// `ids[i]` leaving node `hops[i].0` over port `hops[i].1` in round
/// `hops[i].2`. Rounds ascend, each has at least one hop, and each
/// round's hops are in the [`HopOrder`] asked for.
pub(crate) struct HopLog {
    pub hops: Vec<(u64, u32, u32)>,
    pub ids: Vec<u32>,
}

/// The order of each round's records in a [`HopLog`]. Either order logs
/// the same hops; only the sequence inside a round differs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum HopOrder {
    /// Ascending channel (`sender · ports + port`): node-major,
    /// port-minor — the order every plan builder emits.
    Channel,
    /// Port-major, senders ascending per port: the order hops land in,
    /// and so the order a router delivers a round's arrivals in.
    Landing,
}

/// The contention simulation of minimal-path store-and-forward routing
/// on `topo`: one message per directed link per round, FIFO per link.
/// [`route_rounds`] materializes its log as a plan (in
/// [`HopOrder::Channel`]) and [`crate::graph::graph_route`] charges it
/// hop by hop (in [`HopOrder::Landing`]), so the FIFO discipline exists
/// once. One lane per directed link (`node * ports + port`), each an
/// intrusive FIFO (a block sits in at most one queue, so one `next`
/// slot per block suffices), and a live-lane bitmap whose ascending
/// scan stages the round's heads in channel order. Landing is
/// port-major whatever the log order: a landed block joins its next
/// lane in that order, which is the FIFO rule later rounds depend on.
pub(crate) fn route_hops<G: MinimalRoute>(
    topo: &G,
    blocks: &[BlockMeta],
    order: HopOrder,
) -> HopLog {
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
    // The log's columns at their exact size, the length of every route,
    // and the staging buffers at the most hops a round can make (one per
    // block in flight): the simulation allocates a fixed number of
    // times, nothing per hop and nothing per round.
    let total = blocks.iter().map(|b| topo.route_len(b.src.bits(), b.dst.bits())).sum();
    let (mut hops, mut ids) = (Vec::with_capacity(total), Vec::with_capacity(total));
    // A round's `(sender, port, block id)` hops in channel order, and the
    // same hops port-major.
    let mut staged: Vec<(u64, u32, u32)> = Vec::with_capacity(in_flight);
    let mut landing: Vec<(u64, u32, u32)> = vec![(0, 0, 0); in_flight];
    let mut starts = vec![0usize; ports + 1];
    let mut round = 0u32;
    while in_flight > 0 {
        // Stage: pop the head of every live lane, lanes ascending
        // (node-major, port-minor) — channel order.
        staged.clear();
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
                staged.push(((lane / ports) as u64, (lane % ports) as u32, id));
            }
        }
        // Port-major by a stable counting sort on the port, so each
        // port's senders still ascend.
        starts.fill(0);
        for &(_, p, _) in &staged {
            starts[p as usize + 1] += 1;
        }
        for p in 0..ports {
            starts[p + 1] += starts[p];
        }
        for &hop in &staged {
            let slot = &mut starts[hop.1 as usize];
            landing[*slot] = hop;
            *slot += 1;
        }
        let landing = &landing[..staged.len()];
        let log = if order == HopOrder::Channel { &staged[..] } else { landing };
        hops.extend(log.iter().map(|&(src, p, _)| (src, p, round)));
        ids.extend(log.iter().map(|&(.., id)| id));
        // Land port-major: retire arrivals, requeue the rest on the next
        // port of their route.
        for &(src, p, id) in landing {
            let land = topo.neighbor(src, p).expect("minimal routes cross wired ports only");
            match topo.next_port(land, blocks[id as usize].dst.bits()) {
                None => in_flight -= 1,
                Some(np) => {
                    let lane = land as usize * ports + np as usize;
                    lane_push(&mut head, &mut tail, &mut next, &mut live, lane, id);
                }
            }
        }
        round += 1;
    }
    HopLog { hops, ids }
}

/// Rounds of [`super::ecube_route_plan`] and
/// [`super::dragonfly_direct_plan`]: [`route_hops`]' log in channel
/// order, one single-block message per hop. The log's id column is the
/// arena: hop `i` is the message of ids `i..i + 1`.
pub(super) fn route_rounds<G: MinimalRoute>(topo: &G, blocks: &[BlockMeta]) -> Rounds {
    let HopLog { hops, ids } = route_hops(topo, blocks, HopOrder::Channel);
    let mut rounds = Vec::with_capacity(hops.last().map_or(0, |&(.., r)| r as usize + 1));
    let mut at = 0u32;
    for round in hops.chunk_by(|a, b| a.2 == b.2) {
        let msgs = round
            .iter()
            .map(|&(src, dim, _)| {
                at += 1;
                PlannedMsg { src: NodeId(src), dim, blocks: at - 1..at }
            })
            .collect();
        rounds.push(PlanRound { msgs, copies: Vec::new() });
    }
    (rounds, ids)
}

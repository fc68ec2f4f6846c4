//! The original, unfactored planners — kept as the executable
//! specification of the fast builders in the `skeleton` module.
//!
//! Each function here is the pre-optimization implementation, verbatim
//! but for two things: the SBT, tree and router twins list each round's
//! messages in channel order (`src · ports + dim`), the order every
//! builder emits; and each message's own id list, built as before, is
//! laid into the plan's one block-id arena at the end (`schedule`).
//! Each is a direct simulation of its engine's control flow over
//! per-node held lists (or, for the router, a full `2^n · n` queue
//! lattice). They are
//! O(2^n) per round and allocation-heavy, which is exactly why the
//! public builders no longer use them — but their output *defines*
//! correctness: the `plan_reference` property tests in
//! `crates/cubecomm/tests` require the fast builders to emit
//! byte-identical [`CommSchedule`]s, the same discipline
//! [`crate::ecube::reference::RefRouter`] applies to the flat router.

use super::{BlockMeta, CommSchedule};
use crate::exchange::BufferPolicy;
use crate::sbnt::sbnt_path_dims;
use crate::sbt::Sbt;
use cubeaddr::NodeId;
use cubesim::PortMode;
use std::collections::{BTreeMap, VecDeque};

/// A round as these planners build it: each message owns its id list.
#[derive(Default)]
struct PlanRound {
    msgs: Vec<PlannedMsg>,
    copies: Vec<(NodeId, u64)>,
}

struct PlannedMsg {
    src: NodeId,
    dim: u32,
    blocks: Vec<u32>,
}

/// The plan of `rounds` on the `n`-cube, every message's ids appended
/// to the arena in schedule order.
fn schedule(
    name: String,
    n: u32,
    ports: PortMode,
    dimension_ordered: bool,
    blocks: Vec<BlockMeta>,
    rounds: Vec<PlanRound>,
) -> CommSchedule {
    let mut block_ids = Vec::new();
    let rounds = rounds
        .into_iter()
        .map(|r| super::PlanRound {
            msgs: r
                .msgs
                .into_iter()
                .map(|m| super::PlannedMsg::push(&mut block_ids, m.src, m.dim, m.blocks))
                .collect(),
            copies: r.copies,
        })
        .collect();
    let topo = cubetopo::TopoSpec::hypercube(n);
    CommSchedule { name, topo, ports, dimension_ordered, blocks, block_ids, rounds }.checked()
}

/// [`super::chunk_ids`]' chunks, each its own list.
fn chunk_ids(mut ids: Vec<u32>, step_index: usize, blocks: &[BlockMeta]) -> Vec<Vec<u32>> {
    let per = super::chunk_ids(&mut ids, step_index, blocks);
    ids.chunks(per).map(<[u32]>::to_vec).collect()
}

/// Reference twin of [`super::exchange_plan`] (same input contract; the
/// caller validates blocks).
pub fn exchange_plan(
    n: u32,
    blocks: Vec<BlockMeta>,
    dims: &[u32],
    policy: BufferPolicy,
    ports: PortMode,
    name: impl Into<String>,
) -> CommSchedule {
    let num = cubeaddr::num_nodes(n);
    let mut held: Vec<Vec<u32>> = vec![Vec::new(); num];
    for (i, b) in blocks.iter().enumerate() {
        held[b.src.index()].push(i as u32);
    }
    let elems_of = |ids: &[u32]| -> u64 { ids.iter().map(|&i| blocks[i as usize].elems).sum() };
    let mut rounds: Vec<PlanRound> = Vec::new();
    for (step_index, &j) in dims.iter().enumerate() {
        // Partition each node's holdings into keep / send on the dst bit.
        let mut to_send: Vec<Vec<u32>> = Vec::with_capacity(num);
        for (x, slot) in held.iter_mut().enumerate() {
            let xbit = (x as u64 >> j) & 1;
            let (keep, send): (Vec<u32>, Vec<u32>) =
                slot.drain(..).partition(|&i| (blocks[i as usize].dst.bits() >> j) & 1 == xbit);
            *slot = keep;
            to_send.push(send);
        }
        match policy {
            BufferPolicy::Ideal => {
                // One round per dimension, sends or not: the engine
                // always pays the round boundary.
                let msgs = to_send
                    .iter()
                    .enumerate()
                    .filter(|(_, send)| !send.is_empty())
                    .map(|(x, send)| PlannedMsg {
                        src: NodeId(x as u64),
                        dim: j,
                        blocks: send.clone(),
                    })
                    .collect();
                rounds.push(PlanRound { msgs, copies: Vec::new() });
            }
            BufferPolicy::Unbuffered => {
                let chunked: Vec<Vec<Vec<u32>>> = to_send
                    .iter()
                    .map(|send| chunk_ids(send.clone(), step_index, &blocks))
                    .collect();
                let max_chunks = chunked.iter().map(Vec::len).max().unwrap_or(0);
                // One sub-round per chunk ordinal; a step nobody sends in
                // costs no rounds at all (max_chunks = 0).
                for i in 0..max_chunks {
                    let msgs = chunked
                        .iter()
                        .enumerate()
                        .filter(|(_, chunks)| i < chunks.len())
                        .map(|(x, chunks)| PlannedMsg {
                            src: NodeId(x as u64),
                            dim: j,
                            blocks: chunks[i].clone(),
                        })
                        .collect();
                    rounds.push(PlanRound { msgs, copies: Vec::new() });
                }
            }
            BufferPolicy::Buffered { min_direct } => {
                // (direct chunks, gathered ids) per node, as the engine
                // splits them.
                let split: Vec<(Vec<Vec<u32>>, Vec<u32>)> = to_send
                    .iter()
                    .map(|send| {
                        let mut direct = Vec::new();
                        let mut gathered = Vec::new();
                        for chunk in chunk_ids(send.clone(), step_index, &blocks) {
                            if elems_of(&chunk) >= min_direct as u64 {
                                direct.push(chunk);
                            } else {
                                gathered.extend(chunk);
                            }
                        }
                        (direct, gathered)
                    })
                    .collect();
                let max_direct = split.iter().map(|(d, _)| d.len()).max().unwrap_or(0);
                for i in 0..max_direct {
                    let msgs = split
                        .iter()
                        .enumerate()
                        .filter(|(_, (direct, _))| i < direct.len())
                        .map(|(x, (direct, _))| PlannedMsg {
                            src: NodeId(x as u64),
                            dim: j,
                            blocks: direct[i].clone(),
                        })
                        .collect();
                    rounds.push(PlanRound { msgs, copies: Vec::new() });
                }
                if split.iter().any(|(_, g)| !g.is_empty()) {
                    let mut round = PlanRound::default();
                    for (x, (_, gathered)) in split.iter().enumerate() {
                        if !gathered.is_empty() {
                            round.copies.push((NodeId(x as u64), elems_of(gathered)));
                            round.msgs.push(PlannedMsg {
                                src: NodeId(x as u64),
                                dim: j,
                                blocks: gathered.clone(),
                            });
                        }
                    }
                    rounds.push(round);
                }
            }
        }
        // The step's sends land at the dimension-j neighbor. (Within a
        // step the engine delivers per sub-round, but delivered blocks
        // never re-send in the same step, so moving them once at the end
        // plans identically.)
        for (x, send) in to_send.into_iter().enumerate() {
            held[x ^ (1usize << j)].extend(send);
        }
    }
    schedule(name.into(), n, ports, true, blocks, rounds)
}

/// Reference twin of [`super::one_to_all_sbt_plan`].
pub fn one_to_all_sbt_plan(n: u32, root: NodeId, sizes: &[u64]) -> CommSchedule {
    let num = cubeaddr::num_nodes(n);
    assert_eq!(sizes.len(), num, "one size per destination node");
    let tree = Sbt::new(n, root);
    let blocks: Vec<BlockMeta> = sizes
        .iter()
        .enumerate()
        .filter(|&(_, &e)| e > 0)
        .map(|(d, &elems)| BlockMeta { src: root, dst: NodeId(d as u64), elems })
        .collect();
    let mut held: Vec<Vec<u32>> = vec![Vec::new(); num];
    held[root.index()] = (0..blocks.len() as u32).collect();
    let mut rounds = Vec::new();
    for j in 0..n {
        let mut round = PlanRound::default();
        let dim = tree.physical_dim(j);
        for lx in 0..(1u64 << j) {
            let x = tree.physical(lx);
            let (keep, send): (Vec<u32>, Vec<u32>) = held[x.index()]
                .drain(..)
                .partition(|&i| (tree.logical(blocks[i as usize].dst) >> j) & 1 == 0);
            held[x.index()] = keep;
            if !send.is_empty() {
                held[x.neighbor(dim).index()].extend(&send);
                round.msgs.push(PlannedMsg { src: x, dim, blocks: send });
            }
        }
        round.msgs.sort_by_key(|m| m.src);
        rounds.push(round);
    }
    schedule(format!("one_to_all_sbt/n{n}/root{root}"), n, PortMode::OnePort, true, blocks, rounds)
}

/// Reference twin of [`super::one_to_all_trees_plan`].
pub fn one_to_all_trees_plan(n: u32, sizes: &[u64], trees: &[Sbt]) -> CommSchedule {
    let num = cubeaddr::num_nodes(n);
    assert_eq!(sizes.len(), num, "one size per destination node");
    assert!(!trees.is_empty());
    let root = trees[0].root();
    let k_trees = trees.len() as u64;
    // Block per (destination, tree) slice, mirroring split_even sizing.
    let mut blocks = Vec::new();
    let mut held: Vec<Vec<Vec<u32>>> = (0..trees.len()).map(|_| vec![Vec::new(); num]).collect();
    for (d, &total) in sizes.iter().enumerate() {
        let (base, extra) = (total / k_trees, total % k_trees);
        for k in 0..k_trees {
            let elems = base + u64::from(k < extra);
            if elems > 0 {
                held[k as usize][root.index()].push(blocks.len() as u32);
                blocks.push(BlockMeta { src: root, dst: NodeId(d as u64), elems });
            }
        }
    }
    let mut rounds = Vec::new();
    for j in 0..n {
        let mut round = PlanRound::default();
        for (k, tree) in trees.iter().enumerate() {
            let dim = tree.physical_dim(j);
            for lx in 0..(1u64 << j) {
                let x = tree.physical(lx);
                let (keep, send): (Vec<u32>, Vec<u32>) = held[k][x.index()]
                    .drain(..)
                    .partition(|&i| (tree.logical(blocks[i as usize].dst) >> j) & 1 == 0);
                held[k][x.index()] = keep;
                if !send.is_empty() {
                    held[k][x.neighbor(dim).index()].extend(&send);
                    round.msgs.push(PlannedMsg { src: x, dim, blocks: send });
                }
            }
        }
        round.msgs.sort_by_key(|m| (m.src, m.dim));
        rounds.push(round);
    }
    schedule(
        format!("one_to_all_trees/n{n}/root{root}/k{}", trees.len()),
        n,
        PortMode::AllPorts,
        false,
        blocks,
        rounds,
    )
}

/// Reference twin of [`super::all_to_all_sbnt_plan`].
pub fn all_to_all_sbnt_plan(n: u32, sizes: &[Vec<u64>]) -> CommSchedule {
    let num = cubeaddr::num_nodes(n);
    assert_eq!(sizes.len(), num, "one size row per source");
    struct InFlight {
        id: u32,
        dims: Vec<u32>,
        pos: usize,
    }
    let mut blocks = Vec::new();
    let mut pending: Vec<Vec<InFlight>> = (0..num).map(|_| Vec::new()).collect();
    for (s, per_dst) in sizes.iter().enumerate() {
        assert_eq!(per_dst.len(), num, "one (possibly zero) size per destination");
        for (d, &elems) in per_dst.iter().enumerate() {
            if elems == 0 {
                continue;
            }
            let (src, dst) = (NodeId(s as u64), NodeId(d as u64));
            let id = blocks.len() as u32;
            blocks.push(BlockMeta { src, dst, elems });
            if s != d {
                pending[s].push(InFlight { id, dims: sbnt_path_dims(src, dst, n), pos: 0 });
            }
        }
    }
    let mut rounds = Vec::new();
    while pending.iter().any(|p| !p.is_empty()) {
        let mut round = PlanRound::default();
        let mut hops: Vec<(NodeId, u32, Vec<InFlight>)> = Vec::new();
        for (x, slot) in pending.iter_mut().enumerate() {
            let mut by_dim: BTreeMap<u32, Vec<InFlight>> = BTreeMap::new();
            for f in slot.drain(..) {
                by_dim.entry(f.dims[f.pos]).or_default().push(f);
            }
            for (dim, group) in by_dim {
                hops.push((NodeId(x as u64), dim, group));
            }
        }
        for (x, dim, group) in &hops {
            round.msgs.push(PlannedMsg {
                src: *x,
                dim: *dim,
                blocks: group.iter().map(|f| f.id).collect(),
            });
        }
        rounds.push(round);
        for (x, dim, group) in hops {
            let land = x.neighbor(dim);
            for mut f in group {
                f.pos += 1;
                if f.pos < f.dims.len() {
                    pending[land.index()].push(f);
                }
            }
        }
    }
    schedule(format!("all_to_all_sbnt/n{n}"), n, PortMode::AllPorts, false, blocks, rounds)
}

/// Reference twin of [`super::ecube_route_plan`]: the full `2^n · n`
/// queue lattice, scanned whole every round.
pub fn ecube_route_plan(n: u32, msgs: &[(NodeId, NodeId, u64)]) -> CommSchedule {
    let num = cubeaddr::num_nodes(n);
    let nd = n as usize;
    // One FIFO per (node, dim); only paths' nodes ever queue, but the
    // flat lattice keeps the planner simple — empty VecDeques do not
    // allocate.
    let mut queues: Vec<VecDeque<u32>> = (0..num * nd.max(1)).map(|_| VecDeque::new()).collect();
    let mut blocks = Vec::new();
    let mut in_flight = 0usize;
    for &(src, dst, elems) in msgs {
        if elems == 0 {
            continue;
        }
        let id = blocks.len() as u32;
        blocks.push(BlockMeta { src, dst, elems });
        let diff = src.bits() ^ dst.bits();
        if diff != 0 {
            queues[src.index() * nd + diff.trailing_zeros() as usize].push_back(id);
            in_flight += 1;
        }
    }
    let mut rounds = Vec::new();
    // Per-dimension commit buffers: heads pop lanes-ascending then
    // dims-ascending — the plan's message order — and land
    // dimension-major, the router's delivery order.
    let mut commit: Vec<Vec<(NodeId, u32)>> = (0..nd).map(|_| Vec::new()).collect();
    while in_flight > 0 {
        let mut round = PlanRound::default();
        for x in 0..num {
            for d in 0..nd {
                if let Some(&id) = queues[x * nd + d].front() {
                    queues[x * nd + d].pop_front();
                    commit[d].push((NodeId(x as u64), id));
                    round.msgs.push(PlannedMsg {
                        src: NodeId(x as u64),
                        dim: d as u32,
                        blocks: vec![id],
                    });
                }
            }
        }
        rounds.push(round);
        // Land dimension-major: retire arrivals, requeue the rest on
        // their next e-cube dimension.
        for (d, staged) in commit.iter_mut().enumerate() {
            for (src, id) in staged.drain(..) {
                let land = src.neighbor(d as u32);
                let diff = land.bits() ^ blocks[id as usize].dst.bits();
                if diff == 0 {
                    in_flight -= 1;
                } else {
                    queues[land.index() * nd + diff.trailing_zeros() as usize].push_back(id);
                }
            }
        }
    }
    schedule(format!("ecube_route/n{n}"), n, PortMode::AllPorts, true, blocks, rounds)
}

//! The schedule executor: runs planned rounds on a [`SimNet`], charging
//! every planned message and landing every block once.
//!
//! Every block algorithm of this crate (exchange, SBT and tree families,
//! SBnT) is a [`crate::plan`] builder, and running it is handing the
//! plan to this module — the round structure the static checkers
//! analyse is the one that runs, because there is no other.
//! [`run`] owns the per-round protocol (charge every planned message
//! with [`SimNet::charge`] and every planned copy, finish the round) and
//! the bookkeeping that turns a wrong schedule into a diagnostic instead
//! of misplaced data: it knows where every block is, so a block with an
//! endpoint off the net panics before the first round, a message naming
//! a block its sender does not hold, or naming a block twice in a round,
//! panics before that message is charged, and a block that ends anywhere
//! but its destination panics before anything is returned. [`run`] walks
//! the metadata only: a mover that can place its data itself
//! (`cubetranspose`'s one-dimensional transposes, `relayout` and
//! arbitrary permutation) runs its plan with it and then writes its
//! output once from its input. [`execute`] adds the payloads, one per
//! plan block in id order: they are checked against their planned
//! blocks up front, so what the net is charged is what lands, and after
//! the last round each one moves once, from the input to its
//! destination's list. What the net itself enforces (wired links, one
//! message per link per round, port discipline, nonempty messages) it
//! still enforces.

use crate::block::{Block, BlockMsg};
use crate::plan::{check_endpoints, CommSchedule};
use cubeaddr::NodeId;
use cubesim::{Payload, SimNet};
use cubetopo::Topology;

/// Runs `plan`'s rounds on `net` without payloads: charges every
/// planned message and copy and tracks where each block is. Block `id`
/// is `plan.blocks[id]` and starts at its `src`; a message's ids are
/// read from the plan's arena ([`CommSchedule::ids`]). The plan's own
/// topology, port mode and name are not consulted: the net is the
/// machine.
///
/// # Panics
/// Naming the block, if an endpoint is not a node of the net; with the
/// round index, the block as `id: src -> dst` and the node, if a message
/// names a block its sender does not hold or a block already named that
/// round; with the block and the node it is stranded at, if a block ends
/// short of its destination; and on the net's own legality checks.
#[track_caller]
pub fn run<P: Payload, G: Topology>(net: &mut SimNet<P, G>, plan: &CommSchedule) {
    let (blocks, rounds) = (&plan.blocks, &plan.rounds);
    check_endpoints(net.topology(), blocks);
    let mut at: Vec<NodeId> = blocks.iter().map(|b| b.src).collect();
    // The 1-based index of the last round that named each block.
    let mut named = vec![0usize; blocks.len()];
    for (r, round) in rounds.iter().enumerate() {
        for msg in &round.msgs {
            let mut elems = 0;
            let ids = plan.ids(msg);
            for &id in ids {
                let (i, b) = (id as usize, &blocks[id as usize]);
                assert!(
                    named[i] != r + 1,
                    "round {r}: block {id}: {} -> {} is named twice; the second sender is node {}",
                    b.src,
                    b.dst,
                    msg.src
                );
                assert!(
                    at[i] == msg.src,
                    "round {r}: node {} sends block {id}: {} -> {}, which is at node {}",
                    msg.src,
                    b.src,
                    b.dst,
                    at[i]
                );
                named[i] = r + 1;
                elems += b.elems;
            }
            net.charge(msg.src, msg.dim, elems as usize);
            let far = NodeId(net.topology().neighbor(msg.src.bits(), msg.dim).expect("charged"));
            for &id in ids {
                at[id as usize] = far;
            }
        }
        for &(node, elems) in &round.copies {
            net.local_copy(node, elems as usize);
        }
        net.finish_round();
    }
    if let Some(id) = blocks.iter().zip(&at).position(|(b, &x)| x != b.dst) {
        let mut dims: Vec<u32> = rounds.iter().flat_map(|r| &r.msgs).map(|m| m.dim).collect();
        dims.sort_unstable();
        dims.dedup();
        let b = &blocks[id];
        panic!(
            "block {id}: {} -> {} stranded at node {} after {} rounds: \
             the schedule's dims {dims:?} do not cover it",
            b.src,
            b.dst,
            at[id],
            rounds.len()
        );
    }
}

/// [`run`]s `plan` on `net` and lands the payloads. `payloads[id]` is
/// the block `plan.blocks[id]` describes and starts at its `src` (its
/// own `src` tag is carried along untouched). Returns the blocks each
/// node ends up holding, in id order.
///
/// # Panics
/// Naming the id, if a payload's `dst` or length disagrees with its
/// planned block; and as [`run`] does.
#[track_caller]
pub fn execute<T, G: Topology>(
    net: &mut SimNet<BlockMsg<T>, G>,
    plan: &CommSchedule,
    payloads: Vec<Block<T>>,
) -> Vec<Vec<Block<T>>> {
    let blocks = &plan.blocks;
    assert_eq!(payloads.len(), blocks.len(), "one payload per planned block");
    for (id, (p, b)) in payloads.iter().zip(blocks).enumerate() {
        assert!(
            p.dst == b.dst && p.data.len() as u64 == b.elems,
            "payload {id}: {} elements for node {}, but block {id}: {} -> {} is planned with {}",
            p.data.len(),
            p.dst,
            b.src,
            b.dst,
            b.elems
        );
    }
    run(net, plan);
    let mut held: Vec<Vec<Block<T>>> = (0..net.num_nodes()).map(|_| Vec::new()).collect();
    for (block, b) in payloads.into_iter().zip(blocks) {
        held[b.dst.index()].push(block);
    }
    held
}

/// The report of [`run`]ning `plan` on a fresh net of its cube under
/// `params` — the cost of a planned algorithm, for tests that pin it.
#[cfg(test)]
pub(crate) fn report(
    plan: &crate::plan::CommSchedule,
    params: cubesim::MachineParams,
) -> cubesim::CommReport {
    let mut net: SimNet<u64, _> = SimNet::on_topology(plan.topo, params);
    run(&mut net, plan);
    net.finalize()
}

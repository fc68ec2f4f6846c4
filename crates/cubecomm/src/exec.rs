//! The schedule executor: runs planned rounds on a [`SimNet`], moving
//! real blocks.
//!
//! Every block engine of this crate (exchange, SBT and tree families,
//! SBnT) is "tag the payloads as [`BlockMeta`], build the rounds with the
//! planner's `skeleton`, [`execute`]" — the round structure the static
//! checkers analyse is the one that runs, because there is no other.
//! The executor owns the per-round protocol (send every planned message,
//! charge every planned copy, finish the round, take every delivery) and
//! the bookkeeping that turns a wrong schedule into a diagnostic instead
//! of misplaced data: it knows where every block is, so a message naming
//! a block its sender does not hold, or naming a block twice in a round,
//! panics before that round is sent, and a block that ends anywhere but
//! its destination panics before anything is returned. What the net
//! itself enforces (wired links, one message per link per round, port
//! discipline, nonempty messages) it still enforces.

use crate::block::{Block, BlockMsg};
use crate::plan::{BlockMeta, PlanRound};
use cubeaddr::NodeId;
use cubesim::SimNet;
use cubetopo::Topology;

/// The plan-side record of `block`, currently held at `holder`.
pub(crate) fn meta_at<T>(holder: NodeId, block: &Block<T>) -> BlockMeta {
    BlockMeta { src: holder, dst: block.dst, elems: block.data.len() as u64 }
}

/// [`meta_at`] for blocks that all start at their own `src`.
pub(crate) fn metas_at_src<T>(payloads: &[Block<T>]) -> Vec<BlockMeta> {
    payloads.iter().map(|b| meta_at(b.src, b)).collect()
}

/// Runs `rounds` on `net`. `payloads[id]` is the block `blocks[id]`
/// describes and starts at `blocks[id].src` (its own `src` tag is
/// carried along untouched). Returns the blocks each node ends up
/// holding, in id order.
///
/// # Panics
/// With the round index, the block as `id: src -> dst` and the node, if a
/// message names a block its sender does not hold or a block already
/// named that round; with the block and the node it is stranded at, if a
/// block ends short of its destination; and on the net's own legality
/// checks.
#[track_caller]
pub fn execute<T, G: Topology>(
    net: &mut SimNet<BlockMsg<T>, G>,
    blocks: &[BlockMeta],
    rounds: &[PlanRound],
    payloads: Vec<Block<T>>,
) -> Vec<Vec<Block<T>>> {
    assert_eq!(payloads.len(), blocks.len(), "one payload per planned block");
    let mut at: Vec<NodeId> = blocks.iter().map(|b| b.src).collect();
    // A block is `None` exactly while it is on the wire.
    let mut store: Vec<Option<Block<T>>> = payloads.into_iter().map(Some).collect();
    for (r, round) in rounds.iter().enumerate() {
        for msg in &round.msgs {
            let mut batch = Vec::with_capacity(msg.blocks.len());
            for &id in &msg.blocks {
                let (i, b) = (id as usize, &blocks[id as usize]);
                let Some(block) = store[i].take() else {
                    panic!(
                        "round {r}: block {id}: {} -> {} is named twice; the second sender is node {}",
                        b.src, b.dst, msg.src
                    );
                };
                assert!(
                    at[i] == msg.src,
                    "round {r}: node {} sends block {id}: {} -> {}, which is at node {}",
                    msg.src,
                    b.src,
                    b.dst,
                    at[i]
                );
                batch.push(block);
            }
            net.send(msg.src, msg.dim, BlockMsg(batch));
        }
        for &(node, elems) in &round.copies {
            net.local_copy(node, elems as usize);
        }
        net.finish_round();
        // Deliveries come back in send order: the i-th is `msgs[i]`.
        let mut sent = round.msgs.iter();
        net.drain_all_with(|node, _, BlockMsg(batch)| {
            let msg = sent.next().expect("one delivery per planned message");
            for (&id, block) in msg.blocks.iter().zip(batch) {
                at[id as usize] = node;
                store[id as usize] = Some(block);
            }
        });
    }
    let mut held: Vec<Vec<Block<T>>> = (0..net.num_nodes()).map(|_| Vec::new()).collect();
    for (id, (block, b)) in store.into_iter().zip(blocks).enumerate() {
        if at[id] != b.dst {
            let mut dims: Vec<u32> = rounds.iter().flat_map(|r| &r.msgs).map(|m| m.dim).collect();
            dims.sort_unstable();
            dims.dedup();
            panic!(
                "block {id}: {} -> {} stranded at node {} after {} rounds: \
                 the schedule's dims {dims:?} do not cover it",
                b.src,
                b.dst,
                at[id],
                rounds.len()
            );
        }
        held[at[id].index()].push(block.expect("every delivery was put back"));
    }
    held
}

//! Deliberately corrupted schedules through the executor: each
//! corruption must panic with the round, the block as `id: src -> dst`
//! and the node — the dynamic counterpart of
//! `crates/cubecheck/tests/corruption.rs`, for what only an execution
//! with payloads can see (who really holds a block).

use cubeaddr::NodeId;
use cubecomm::exec::execute;
use cubecomm::plan::{all_to_all_exchange_plan, CommSchedule};
use cubecomm::{Block, BlockMsg, BufferPolicy};
use cubesim::{MachineParams, PortMode, SimNet};

/// The 2-cube all-to-all exchange (two rounds, dims 1 then 0) and one
/// payload per planned block.
fn fixture() -> (CommSchedule, Vec<Block<u64>>) {
    let sizes = vec![vec![1u64; 4]; 4];
    let plan = all_to_all_exchange_plan(2, &sizes, BufferPolicy::Ideal, PortMode::OnePort);
    let payloads = plan
        .blocks
        .iter()
        .map(|b| Block::new(b.src, b.dst, vec![b.src.bits() * 10 + b.dst.bits()]))
        .collect();
    (plan, payloads)
}

fn run(plan: &CommSchedule, payloads: Vec<Block<u64>>) -> Vec<Vec<Block<u64>>> {
    let mut net: SimNet<BlockMsg<u64>> = SimNet::new(2, MachineParams::unit(PortMode::OnePort));
    let held = execute(&mut net, &plan.blocks, &plan.rounds, payloads);
    net.finalize();
    held
}

#[test]
fn uncorrupted_fixture_delivers() {
    let (plan, payloads) = fixture();
    for (x, blocks) in run(&plan, payloads).iter().enumerate() {
        let srcs: Vec<u64> = blocks.iter().map(|b| b.src.bits()).collect();
        assert_eq!(srcs, vec![0, 1, 2, 3], "node {x} holds one block per source, in id order");
        assert!(blocks
            .iter()
            .all(|b| b.dst.index() == x && b.data == [b.src.bits() * 10 + x as u64]));
    }
}

/// Dropping the last round leaves every block that still had dimension
/// 0 to cross one hop short.
#[test]
#[should_panic(
    expected = "block 1: 0 -> 1 stranded at node 0 after 1 rounds: the schedule's dims [1]"
)]
fn dropped_round_is_reported_as_stranded() {
    let (mut plan, payloads) = fixture();
    plan.rounds.pop();
    let _ = run(&plan, payloads);
}

/// Retargeting a message's sender: node 2 is told to send what node 0
/// holds.
#[test]
#[should_panic(expected = "round 0: node 2 sends block 2: 0 -> 2, which is at node 0")]
fn retargeted_sender_is_reported_before_the_round_is_sent() {
    let (mut plan, payloads) = fixture();
    let msg = plan.rounds[0].msgs.iter_mut().find(|m| m.src == NodeId(0)).unwrap();
    assert_eq!(msg.blocks, vec![2, 3]);
    msg.src = NodeId(2);
    let _ = run(&plan, payloads);
}

/// Naming one block in two messages of a round.
#[test]
#[should_panic(expected = "round 1: block 1: 0 -> 1 is named twice; the second sender is node 1")]
fn duplicated_block_id_is_reported() {
    let (mut plan, payloads) = fixture();
    let round = &mut plan.rounds[1];
    assert!(round.msgs[0].src == NodeId(0) && round.msgs[0].blocks.contains(&1));
    round.msgs[1].blocks.push(1);
    let _ = run(&plan, payloads);
}

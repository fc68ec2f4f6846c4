//! Deliberately corrupted schedules through the executor: each
//! corruption must panic with the round, the block as `id: src -> dst`
//! and the node — the dynamic counterpart of
//! `crates/cubecheck/tests/corruption.rs`, for what only an execution
//! with payloads can see (who really holds a block).

use cubeaddr::NodeId;
use cubecomm::exchange::exchange_over_dims;
use cubecomm::exec::execute;
use cubecomm::plan::{all_to_all_exchange_plan, sbnt_plan, BlockMeta, CommSchedule};
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
    let held = execute(&mut net, plan, payloads);
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
    assert_eq!(plan.block_ids[msg.blocks.start as usize..msg.blocks.end as usize], [2, 3]);
    msg.src = NodeId(2);
    let _ = run(&plan, payloads);
}

/// Naming one block in two messages of a round.
#[test]
#[should_panic(expected = "round 1: block 1: 0 -> 1 is named twice; the second sender is node 1")]
fn duplicated_block_id_is_reported() {
    let (mut plan, payloads) = fixture();
    let round = &plan.rounds[1];
    assert!(round.msgs[0].src == NodeId(0) && plan.ids(&round.msgs[0]).contains(&1));
    let mut grown = plan.ids(&round.msgs[1]).to_vec();
    grown.push(1);
    plan.rounds[1].msgs[1].blocks = plan.push_ids(&grown);
    let _ = run(&plan, payloads);
}

/// Payloads of 3 elements against a plan of 1-element blocks: the net
/// would be charged 48 elements for a 16-element plan, and the executor,
/// which charges the plan, would land the wrong payloads silently.
#[test]
#[should_panic(
    expected = "payload 0: 3 elements for node 0, but block 0: 0 -> 0 is planned with 1"
)]
fn payload_disagreeing_with_its_block_is_refused_up_front() {
    let (plan, payloads) = fixture();
    let payloads = payloads.into_iter().map(|b| Block::new(b.src, b.dst, vec![b.dst.bits(); 3]));
    let _ = run(&plan, payloads.collect());
}

/// A payload bound for another node than its planned block.
#[test]
#[should_panic(
    expected = "payload 5: 1 elements for node 3, but block 5: 1 -> 1 is planned with 1"
)]
fn payload_for_another_node_is_refused_up_front() {
    let (plan, mut payloads) = fixture();
    assert_eq!((plan.blocks[5].src, plan.blocks[5].dst), (NodeId(1), NodeId(1)));
    payloads[5].dst = NodeId(3);
    let _ = run(&plan, payloads);
}

/// A block bound for node 5 of a 2-cube is refused before the first
/// round by the exchange engine, and before any round is planned by the
/// SBnT planner, whichever end is off the net, in the same words.
#[test]
#[should_panic(expected = "block endpoints outside the 2-cube: block 1: 0 -> 5")]
fn exchange_refuses_a_destination_off_the_net() {
    let mut net: SimNet<BlockMsg<u64>> = SimNet::new(2, MachineParams::unit(PortMode::OnePort));
    let mut held = vec![Vec::new(); 4];
    held[0] =
        vec![Block::new(NodeId(0), NodeId(1), vec![1]), Block::new(NodeId(0), NodeId(5), vec![5])];
    let _ = exchange_over_dims(&mut net, held, &[1, 0], BufferPolicy::Ideal);
}

fn block(src: u64, dst: u64) -> BlockMeta {
    BlockMeta { src: NodeId(src), dst: NodeId(dst), elems: 1 }
}

#[test]
#[should_panic(expected = "block endpoints outside the 2-cube: block 0: 0 -> 5")]
fn sbnt_refuses_a_destination_off_the_net() {
    let _ = sbnt_plan(2, vec![block(0, 5)]);
}

#[test]
#[should_panic(expected = "block endpoints outside the 2-cube: block 1: 6 -> 0")]
fn sbnt_refuses_a_source_off_the_net() {
    let _ = sbnt_plan(2, vec![block(1, 0), block(6, 0)]);
}

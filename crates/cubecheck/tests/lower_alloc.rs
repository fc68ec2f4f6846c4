//! Allocation gates for the plan → lower path of the e-cube transpose.
//! `lower` allocates each vector of a lowering once, at its exact size,
//! and clones the plan's one block-id arena, so it makes the same small
//! number of allocations at n = 8 as at n = 10 — none per claim. The
//! plan build appends every message's ids to that arena as it emits, so
//! past one message list per round it too makes the same count at both
//! sizes — none per message.
//!
//! Counted on the test kit's counting allocator.

use cubecheck::lower;
use cubecheck::workloads::transpose_msgs;
use cubecomm::plan::ecube_route_plan;
use cubesim::MachineParams;
use cubetest::alloc::{Count, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The name, the block table, the claims and the id arena: four
/// allocations (the router plan charges no local copies), at n = 8
/// (1 024 claims) and at n = 10 (5 120).
#[test]
fn lowering_allocates_a_constant_count() {
    let params = MachineParams::connection_machine();
    let counts = [8, 10].map(|n| {
        let plan = ecube_route_plan(n, &transpose_msgs(n, 4));
        let (low, allocs) = Count::All.around(|| lower(&plan, &params));
        assert_eq!(low.claims.len() as u64, plan.total_messages());
        (low.claims.len(), allocs)
    });
    let [(small, at_8), (large, at_10)] = counts;
    assert_eq!(at_8, at_10, "{at_8} allocations for {small} claims, {at_10} for {large}");
    assert_eq!(at_8, 4, "lowering {small} claims");
}

/// The build of the same plans: the name, the block table, the router's
/// four lane arrays, its two log columns (sized by the routes' lengths),
/// its three staging buffers and the round list — twelve allocations —
/// plus each round's message list. The block ids are the log's id
/// column, the plan's one arena, so nothing is allocated per message:
/// past one per round, n = 8 (12 rounds, 1 024 messages) and n = 10
/// (21 rounds, 5 120 messages) make the same count.
#[test]
fn ecube_plan_build_allocates_a_constant_count_past_its_rounds() {
    let counts = [8, 10].map(|n| {
        let msgs = transpose_msgs(n, 4);
        let (plan, allocs) = Count::All.around(|| ecube_route_plan(n, &msgs));
        (plan.total_messages(), allocs - plan.rounds.len())
    });
    let [(small, at_8), (large, at_10)] = counts;
    assert_eq!(at_8, at_10, "{at_8} allocations for {small} messages, {at_10} for {large}");
    assert_eq!(at_8, 12, "building {small} messages");
}

//! Allocation gates for the plan → lower path of the e-cube transpose.
//! `lower` allocates each vector of a lowering once, at its exact size,
//! and clones the plan's one block-id arena, so it makes the same small
//! number of allocations at n = 8 as at n = 10 — none per claim. The
//! plan build appends every message's ids to that arena as it emits, so
//! past one message list per round it too makes the same count at both
//! sizes — none per message.
//!
//! The counting global allocator follows `crates/core/src/local.rs`' test
//! module: a thread-local counter, armed around the call under test.
//! This file and that module are the workspace's only allowances for
//! the denied `unsafe_code` lint.
#![allow(unsafe_code)]

use cubecheck::lower;
use cubecheck::workloads::transpose_msgs;
use cubecomm::plan::ecube_route_plan;
use cubesim::MachineParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(allocations so far)` while this thread counts.
    static COUNTED: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: defers every allocation verbatim to `System`; the only
// addition is a side-effect-free counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: thread-local storage may itself allocate during
        // thread teardown.
        let _ = COUNTED.try_with(|c| c.set(c.get().map(|seen| seen + 1)));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNTED.with(|c| c.set(Some(0)));
    let out = f();
    (out, COUNTED.with(|c| c.take()).expect("counting was on"))
}

/// The name, the block table, the claims and the id arena: four
/// allocations (the router plan charges no local copies), at n = 8
/// (1 024 claims) and at n = 10 (5 120).
#[test]
fn lowering_allocates_a_constant_count() {
    let params = MachineParams::connection_machine();
    let counts = [8, 10].map(|n| {
        let plan = ecube_route_plan(n, &transpose_msgs(n, 4));
        let (low, allocs) = counted(|| lower(&plan, &params));
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
        let (plan, allocs) = counted(|| ecube_route_plan(n, &msgs));
        (plan.total_messages(), allocs - plan.rounds.len())
    });
    let [(small, at_8), (large, at_10)] = counts;
    assert_eq!(at_8, at_10, "{at_8} allocations for {small} messages, {at_10} for {large}");
    assert_eq!(at_8, 12, "building {small} messages");
}

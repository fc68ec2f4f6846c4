//! Allocation gate for `lower`: each vector of a lowering is allocated
//! once, at its exact size, and the claims' block ids go into one arena,
//! so lowering the e-cube transpose makes the same small number of
//! allocations at n = 8 as at n = 10 — none per claim.
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

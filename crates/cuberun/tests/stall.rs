//! End-to-end deadlock coverage: a deliberately deadlocked node program
//! must be *reported*, not hung on — and the report must name the
//! waiting nodes and the dim each waits on, because that is the part a
//! user debugging a real deadlock reads first.
//!
//! Every case runs under a stall timeout of 20 s and must be reported
//! in under half of it: a deadlock is decided at the sweep where
//! nothing moved, not by the clock.

use cuberun::{run_spmd, with_stall_timeout, with_workers, NodeCtx};
use cubetest::catch;
use std::time::{Duration, Instant};

const STALL: Duration = Duration::from_secs(20);

/// Runs `program` on an `n`-cube at `workers` workers under [`STALL`],
/// and returns its deadlock report after checking it came well before
/// the stall clock could have fired.
fn report<Fut>(workers: usize, n: u32, program: impl Fn(NodeCtx<u64>) -> Fut + Sync) -> String
where
    Fut: std::future::Future<Output = u64>,
{
    let start = Instant::now();
    let msg =
        catch(|| with_workers(workers, || with_stall_timeout(STALL, || run_spmd(n, program))))
            .expect_err("deadlocked program must not complete");
    assert!(start.elapsed() < STALL / 2, "workers={workers}: waited for the stall clock");
    assert!(msg.contains("SPMD scheduler stalled"), "workers={workers}: {msg}");
    assert!(msg.contains("deadlocked node program?"), "workers={workers}: {msg}");
    msg
}

/// Both nodes of a 1-cube receive on dim 0 and nobody ever sends: the
/// canonical deadlock. The report must name both parked nodes and the
/// dim.
fn deadlocked_pair_reports_parked_nodes(workers: usize) {
    let msg = report(workers, 1, |ctx| async move { ctx.recv(0).await });
    assert!(msg.contains("0/2 node programs completed"), "{msg}");
    assert!(msg.contains("2 waiting"), "{msg}");
    assert!(msg.contains("node 0 on dim 0"), "{msg}");
    assert!(msg.contains("node 1 on dim 0"), "{msg}");
}

#[test]
fn deadlocked_pair_is_reported_with_one_worker() {
    deadlocked_pair_reports_parked_nodes(1);
}

#[test]
fn deadlocked_pair_is_reported_with_two_workers() {
    deadlocked_pair_reports_parked_nodes(2);
}

#[test]
fn deadlocked_pair_is_reported_with_five_workers() {
    deadlocked_pair_reports_parked_nodes(5);
}

/// One-sided deadlock: node 1 sends and finishes, node 0 receives twice
/// but only one message ever arrives. The report must show the partial
/// completion and name only the stuck node.
#[test]
fn half_completed_run_names_only_the_stuck_node() {
    let program = |ctx: NodeCtx<u64>| async move {
        if ctx.id().bits() == 1 {
            ctx.send(0, 7);
            0
        } else {
            let first = ctx.recv(0).await;
            first + ctx.recv(0).await
        }
    };
    for workers in [1, 2, 5] {
        let msg = report(workers, 1, program);
        assert!(msg.contains("1/2 node programs completed"), "{msg}");
        assert!(msg.contains("node 0 on dim 0"), "{msg}");
        assert!(!msg.contains("node 1 on dim"), "{msg}");
    }
}

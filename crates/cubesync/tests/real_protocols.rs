//! Model-checks the *real* crates' concurrency protocols — not
//! miniature mirrors — by building the whole workspace against the
//! model backend (`RUSTFLAGS="--cfg cubesync_model"`) so every
//! `cubesync` facade call in `cubesim::par`, both `cuberun` doors and
//! `cubecomm`'s plan cache routes through the explorer.
//!
//! Compiled to nothing in the ordinary test pass: these are the CI
//! `model-check` step (`scripts/ci.sh`).
//!
//! Configs here are deliberately tiny (2 threads, 2 virtual nodes, one
//! cache key): the point is enumerating *interleavings* of the actual
//! protocol code, and small configs are where exhaustive or
//! near-exhaustive enumeration is affordable. Where the real scheduler
//! has too many visible operations to finish the DFS inside the
//! budget, the run reports `exhaustive: false` and the tail is
//! seeded-random sampled — still far beyond what stress testing
//! reaches, and every explored schedule checks the full invariant set
//! (deadlock, lost wakeup, livelock, panics, result determinism).
#![cfg(cubesync_model)]

use cubecomm::plan::cache::{PlanCache, PlanKey};
use cubecomm::plan::ecube_route_plan;
use cuberun::{NodeId, Outbox, RoundInbox, RoundProgram};
use cubesync::model::{check_with, Config};
use cubesync::sync::Arc;
use cubesync::thread;
use std::time::Duration;

/// A budget that keeps each test inside the CI wall-clock bound while
/// still exploring thousands of distinct interleavings of the real
/// code. Step budget is raised: one `run_spmd` execution crosses far
/// more visible operations than the protocol miniatures.
fn budget() -> Config {
    Config { max_schedules: 1_500, random_schedules: 50, max_steps: 500_000, ..Config::default() }
}

// ---------------------------------------------------------------------
// cubesim::par — ClaimCursor work claiming + sleeper park/wake.
// ---------------------------------------------------------------------

#[test]
fn par_map_two_threads_is_deterministic_and_deadlock_free() {
    let report = check_with(budget(), || {
        cubesim::par::with_threads(2, || cubesim::par::par_map(&[1u64, 2, 3], |x| x * 10))
    });
    assert!(report.schedules > 1, "multi-threaded body must have explored interleavings");
}

#[test]
fn par_map_uneven_work_still_returns_input_order() {
    // One expensive item: the claim cursor lets whichever worker is
    // free take the rest, but reassembly must stay positional.
    let report = check_with(budget(), || {
        cubesim::par::with_threads(2, || {
            cubesim::par::par_map(&[5u64, 1, 1, 1], |x| {
                let mut acc = 0u64;
                for i in 0..*x {
                    acc += i;
                }
                acc
            })
        })
    });
    assert!(report.schedules > 1);
}

// ---------------------------------------------------------------------
// cuberun's async door — sweeps over the batch mailbox: every active
// worker polls its nodes until none is ready, posts one batch per other
// active worker headed by its cross-worker sends and unfinished nodes,
// and decides from the summed headers whether the run is finished or
// the programs deadlocked. A worker that decided differently from the
// others would leave them waiting for its batch (a deadlock here) or
// end the run early (a missing result).
// ---------------------------------------------------------------------

#[test]
fn spmd_exchange_on_two_nodes_two_workers() {
    let report = check_with(budget(), || {
        cuberun::with_workers(2, || {
            cuberun::with_stall_timeout(Duration::from_secs(3600), || {
                // Results only: scheduler counters (parks/wakes)
                // legitimately vary by interleaving.
                let (results, _stats) = cuberun::run_spmd::<u64, u64, _, _>(1, |ctx| async move {
                    ctx.send(0, ctx.id().bits() + 100);
                    ctx.recv(0).await
                });
                results
            })
        })
    });
    assert!(report.schedules > 1);
}

#[test]
fn spmd_message_on_a_non_awaited_port_neither_wakes_nor_strands() {
    // n = 2, two workers: node 0 (worker 0's range) awaits port 0, then
    // port 1. Node 2 (worker 1's range) sends on port 1 in the first
    // sweep; node 1 sends on port 0 only once node 3's message reached
    // it across the workers. So the port-1 message lands, in the first
    // sweep's batch, in the inbox of a node parked on port 0: it must
    // stay there unwoken, and still be taken in a later sweep.
    let report = check_with(budget(), || {
        cuberun::with_workers(2, || {
            cuberun::with_stall_timeout(Duration::from_secs(3600), || {
                let (results, _stats) = cuberun::run_spmd::<u64, u64, _, _>(2, |ctx| async move {
                    match ctx.id().bits() {
                        0 => 10 * ctx.recv(0).await + ctx.recv(1).await,
                        1 => {
                            let got = ctx.recv(1).await;
                            ctx.send(0, got);
                            0
                        }
                        2 => {
                            ctx.send(1, 2);
                            0
                        }
                        _ => {
                            ctx.send(1, 4);
                            0
                        }
                    }
                });
                assert_eq!(results[0], 42);
                results
            })
        })
    });
    assert!(report.schedules > 1);
}

#[test]
fn spmd_dimension_scan_with_an_empty_home_range() {
    // 4 nodes on 3 workers: home ranges of 2, so worker 2 has no node.
    // It neither posts nor is waited for, in any sweep or at the end.
    // Dimension 0 stays inside the home ranges, dimension 1 crosses
    // them.
    let report = check_with(budget(), || {
        cuberun::with_workers(3, || {
            cuberun::with_stall_timeout(Duration::from_secs(3600), || {
                let (results, _stats) = cuberun::run_spmd::<u64, u64, _, _>(2, |ctx| async move {
                    let mut acc = ctx.id().bits() + 1;
                    for d in 0..ctx.n() {
                        acc += ctx.exchange(d, acc).await;
                    }
                    acc
                });
                assert_eq!(results, [10; 4]);
                results
            })
        })
    });
    assert!(report.schedules > 1);
}

#[test]
fn spmd_cross_worker_send_reaches_a_parked_receiver() {
    // Node 0 (worker 0) only receives, node 1 (worker 1) only sends and
    // finishes in the first sweep: worker 1's header says one message
    // moved, so neither worker may call the run deadlocked or finished
    // before node 0 has taken it.
    let report = check_with(budget(), || {
        cuberun::with_workers(2, || {
            cuberun::with_stall_timeout(Duration::from_secs(3600), || {
                let (results, _stats) = cuberun::run_spmd::<u64, u64, _, _>(1, |ctx| async move {
                    if ctx.id().bits() == 0 {
                        ctx.recv(0).await
                    } else {
                        ctx.send(0, 7);
                        0
                    }
                });
                assert_eq!(results, [7, 0]);
                results
            })
        })
    });
    assert!(report.schedules > 1);
}

#[test]
fn spmd_single_worker_cooperative_schedule_is_clean() {
    // One worker, two virtual nodes: the cooperative (non-preemptive)
    // path where a recv must suspend back to the worker loop rather
    // than block it.
    let report = check_with(budget(), || {
        cuberun::with_workers(1, || {
            cuberun::with_stall_timeout(Duration::from_secs(3600), || {
                let (results, _stats) = cuberun::run_spmd::<u64, u64, _, _>(1, |ctx| async move {
                    ctx.send(0, ctx.id().bits());
                    ctx.recv(0).await
                });
                results
            })
        })
    });
    assert!(report.schedules >= 1);
}

#[test]
fn spmd_cross_worker_relay_chain_on_two_workers() {
    // n = 2, two workers: nodes 0, 1 on worker 0 and 2, 3 on worker 1.
    // A token travels 0 → 2 → 3 → 1 → 0 over dims 1, 0, 1, 0. Two hops
    // cross the workers, so the run takes three sweeps, and in the last
    // two one worker has nothing to poll and sends nothing while the
    // other relays: only the sum of both headers shows that something
    // is still moving. No schedule may report a deadlock or end early.
    let report = check_with(budget(), || {
        cuberun::with_workers(2, || {
            cuberun::with_stall_timeout(Duration::from_secs(3600), || {
                let (results, _stats) = cuberun::run_spmd::<u64, u64, _, _>(2, |ctx| async move {
                    let (from, to) = match ctx.id().bits() {
                        0 => {
                            ctx.send(1, 1);
                            return ctx.recv(0).await;
                        }
                        1 | 2 => (1, 0),
                        _ => (0, 1),
                    };
                    let token = ctx.recv(from).await;
                    ctx.send(to, token + 1);
                    0
                });
                assert_eq!(results, [4, 0, 0, 0]);
                results
            })
        })
    });
    assert!(report.schedules > 1);
}

// ---------------------------------------------------------------------
// cuberun's round door — the per-round batch mailbox: every active
// worker posts one batch per other active worker per round, and waits
// on its own mailbox for the batches of the round it is in.
// ---------------------------------------------------------------------

/// Every node exchanges with its neighbor across dimension `round`, all
/// dimensions in turn, and folds what it gets order-sensitively — a
/// message taken a round early or late changes the result.
struct AllDims(u32);

impl RoundProgram<u64> for AllDims {
    type State = u64;
    type Out = u64;
    fn rounds(&self) -> u32 {
        self.0
    }
    fn init(&self, id: NodeId) -> u64 {
        id.bits() + 1
    }
    fn send(&self, round: u32, _id: NodeId, acc: &mut u64, out: &mut Outbox<'_, u64>) {
        out.send(round, *acc);
    }
    fn recv(&self, round: u32, _id: NodeId, acc: &mut u64, inbox: &mut RoundInbox<'_, u64>) {
        *acc = 10 * *acc + inbox.take(round).expect("the neighbor sent in this round");
    }
    fn finish(&self, _id: NodeId, acc: u64) -> u64 {
        acc
    }
}

/// `AllDims` on a 2-cube at `workers` workers, results only (parks and
/// wakes legitimately vary by interleaving).
fn rounds_on_a_two_cube(workers: usize) -> Vec<u64> {
    cuberun::with_workers(workers, || {
        cuberun::with_stall_timeout(Duration::from_secs(3600), || {
            let (results, _stats) = cuberun::run_rounds(2, &AllDims(2));
            assert_eq!(results, [154, 253, 352, 451]);
            results
        })
    })
}

#[test]
fn rounds_all_dims_on_two_workers() {
    // Round 0 (dim 0) stays inside the home ranges, round 1 (dim 1)
    // crosses them; both rounds post a batch each way. A worker can run
    // one round ahead of the other, so a mailbox holds batches of two
    // rounds at once in some schedules.
    let report = check_with(budget(), || rounds_on_a_two_cube(2));
    assert!(report.schedules > 1);
}

#[test]
fn rounds_with_an_empty_home_range() {
    // 4 nodes on 3 workers: home ranges of 2, so worker 2 has no node.
    // It must neither post nor be waited for.
    let report = check_with(budget(), || rounds_on_a_two_cube(3));
    assert!(report.schedules > 1);
}

// ---------------------------------------------------------------------
// cubecomm::plan::cache — racing get_or_build on one key.
// ---------------------------------------------------------------------

#[test]
fn plan_cache_racing_builders_agree_on_one_plan() {
    let report = check_with(budget(), || {
        let cache = Arc::new(PlanCache::new(4));
        let key = || PlanKey::new("model-probe", 2, 7);
        let tiny = || ecube_route_plan(2, &[(cubeaddr::NodeId(0), cubeaddr::NodeId(1), 1)]);
        let (a, b) = thread::scope(|s| {
            let cache2 = Arc::clone(&cache);
            let h = s.spawn(move || cache2.get_or_build(key(), tiny));
            let b = cache.get_or_build(key(), tiny);
            (h.join().expect("builder does not panic"), b)
        });
        assert!(
            cubesync::sync::Arc::ptr_eq(&a, &b),
            "racing builders must converge on one canonical plan"
        );
        // Hash the stats that must be schedule-independent: exactly one
        // entry, never an eviction. (Hit/miss split depends on the race.)
        let stats = cache.stats();
        (stats.entries, stats.evictions)
    });
    assert!(report.schedules > 1);
}

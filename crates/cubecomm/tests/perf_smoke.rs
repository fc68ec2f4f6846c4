//! Time-bounded performance smoke test for the schedule executor.
//!
//! Runs the full n = 10 all-to-all personalized exchange (1024 nodes,
//! ~one million blocks planned, then charged to `SimNet`) and fails if
//! it takes longer than a generous wall-clock bound. Ignored by default
//! so ordinary debug test runs stay fast; `scripts/ci.sh` runs it in
//! release mode with `--ignored`.

use cubecomm::exec;
use cubecomm::plan::all_to_all_exchange_plan;
use cubecomm::{BlockMsg, BufferPolicy};
use cubesim::{MachineParams, PortMode, SimNet};
use std::time::{Duration, Instant};

#[test]
#[ignore = "perf smoke; run in release via scripts/ci.sh"]
fn n10_all_to_all_completes_within_bound() {
    let n = 10u32;
    let num = 1usize << n;
    let sizes = vec![vec![1u64; num]; num];

    let mut net: SimNet<BlockMsg<u64>> =
        SimNet::new(n, MachineParams::intel_ipsc().with_ports(PortMode::AllPorts));
    let start = Instant::now();
    let plan = all_to_all_exchange_plan(n, &sizes, BufferPolicy::Ideal, PortMode::AllPorts);
    exec::run(&mut net, &plan);
    let report = net.finalize();
    let elapsed = start.elapsed();

    assert_eq!(report.rounds, n as usize);
    assert_eq!(plan.blocks.len(), num * num);
    // ~0.5 s on a modest core; the bound only catches order-of-magnitude
    // regressions (e.g. accidental per-round allocation or quadratic
    // bookkeeping), not scheduler jitter.
    assert!(elapsed < Duration::from_secs(30), "n=10 all-to-all took {elapsed:?}");
}

#[test]
#[ignore = "perf smoke; run in release via scripts/ci.sh"]
fn n12_router_transpose_completes_within_bound() {
    use cubeaddr::NodeId;
    use cubecomm::ecube::{ecube_route, RouteMsg};
    use cubecomm::Block;

    // The FIG16-18 workload one size below the headline: the
    // node-permutation transpose pattern on a 12-cube (4096 messages,
    // heavy link contention) through the router.
    let n = 12u32;
    let half = n / 2;
    let msgs: Vec<RouteMsg<u64>> = (0..(1u64 << n))
        .filter_map(|x| {
            let (hi, lo) = cubeaddr::split(x, half);
            let t = cubeaddr::concat(lo, hi, half);
            (t != x).then(|| RouteMsg { src: NodeId(x), dst: NodeId(t), data: vec![x; 4] })
        })
        .collect();

    let mut net: SimNet<Block<u64>> = SimNet::new(n, MachineParams::connection_machine());
    let start = Instant::now();
    let arrivals = ecube_route(&mut net, msgs);
    let report = net.finalize();
    let elapsed = start.elapsed();

    let delivered: usize = arrivals.iter().map(Vec::len).sum();
    assert_eq!(delivered, (1usize << n) - (1usize << half));
    assert!(report.rounds > 0);
    // ~3 ms on a modest core; the bound only catches order-of-magnitude
    // regressions (e.g. a return to full-lattice scans), not jitter.
    assert!(elapsed < Duration::from_secs(10), "n=12 router transpose took {elapsed:?}");
}

#[test]
#[ignore = "perf smoke; run in release via scripts/ci.sh"]
fn n12_warm_cache_fetch_beats_cold_build_10x() {
    use cubeaddr::NodeId;
    use cubecomm::plan::{ecube_route_plan, ecube_route_plan_cached, PlanCache};

    // The figure workload: node-permutation transpose flight plan on a
    // 12-cube. A warm cache hit must be at least 10x faster than the
    // cold construction it replaces — the wedge the ISSUE-6 cache exists
    // to provide. Medians over several trials keep scheduler jitter out.
    let n = 12u32;
    let half = n / 2;
    let msgs: Vec<(NodeId, NodeId, u64)> = (0..(1u64 << n))
        .filter_map(|x| {
            let (hi, lo) = cubeaddr::split(x, half);
            let t = cubeaddr::concat(lo, hi, half);
            (t != x).then_some((NodeId(x), NodeId(t), 4))
        })
        .collect();

    let median = |mut v: Vec<Duration>| -> Duration {
        v.sort();
        v[v.len() / 2]
    };
    let trials = 5;

    let cold = median(
        (0..trials)
            .map(|_| {
                let start = Instant::now();
                let plan = ecube_route_plan(n, &msgs);
                assert!(!plan.rounds.is_empty());
                start.elapsed()
            })
            .collect(),
    );

    let cache = PlanCache::new(4);
    let first = ecube_route_plan_cached(&cache, n, &msgs);
    let warm = median(
        (0..trials)
            .map(|_| {
                let start = Instant::now();
                let plan = ecube_route_plan_cached(&cache, n, &msgs);
                let elapsed = start.elapsed();
                assert!(cubesync::sync::Arc::ptr_eq(&plan, &first), "fetch must hit the cache");
                elapsed
            })
            .collect(),
    );

    assert_eq!(cache.stats().misses, 1);
    // Measured ~0.6-0.9 ms cold vs ~13 µs warm: ~48x. The hit
    // fingerprints the 4032-message input in word lanes and confirms it
    // against the stored input. The 10x bound only catches a broken cache
    // (rebuilds on hit) or a construction-cost regression, not jitter.
    assert!(
        warm * 10 <= cold,
        "warm cache fetch ({warm:?}) is not 10x faster than cold build ({cold:?})"
    );
}

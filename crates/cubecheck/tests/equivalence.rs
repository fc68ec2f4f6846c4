//! Plan ⇔ execution equivalence, on random schedules.
//!
//! For every planner, the lowered plan's per-round link claims must
//! coincide exactly — round counts, link sets, element counts,
//! message/packet totals — with the `CommReport` of a real execution
//! recorded under `record_links`: the cube's block plans run by
//! `exec::run`, the routing plans against the router. Every random plan
//! must also pass `check_all` cleanly: no false positives.

use cubeaddr::{DimSet, NodeId};
use cubecomm::ecube::{ecube_route, RouteMsg};
use cubecomm::exec;
use cubecomm::graph::graph_route;
use cubecomm::plan::{
    all_to_all_exchange_plan, all_to_all_sbnt_plan, dragonfly_direct_plan, ecube_route_plan,
    one_to_all_sbt_plan, one_to_all_trees_plan, some_to_all_plan, CommSchedule,
};
use cubecomm::sbt::Sbt;
use cubecomm::{Block, BlockMsg, BufferPolicy};
use cubesim::{CommReport, MachineParams, PortMode, SimNet};
use cubetopo::{SwappedDragonfly, Topology};
use proptest::prelude::*;

/// Deterministic pseudo-random size matrix (same hash as
/// `cubecomm/tests/props.rs`), zeros included.
fn random_sizes(n: u32, seed: u64, max_b: u64) -> Vec<Vec<u64>> {
    let num = 1usize << n;
    (0..num as u64)
        .map(|s| {
            (0..num as u64)
                .map(|d| {
                    let h =
                        (s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(d).wrapping_mul(seed | 1))
                            >> 33;
                    h % (max_b + 1)
                })
                .collect()
        })
        .collect()
}

/// Lowers `plan` against `params` and requires (a) zero diagnostics and
/// (b) exact agreement with the recorded execution.
fn assert_equivalent(plan: &CommSchedule, params: &MachineParams, report: &CommReport) {
    let low = cubecheck::lower(plan, params);
    let diags = cubecheck::check_all(&low, params);
    assert!(diags.is_empty(), "{}: {}", plan.name, diags[0]);
    let errs = cubecheck::cross_validate(&low, report);
    assert!(errs.is_empty(), "{}:\n{}", plan.name, errs.join("\n"));
}

/// Router input for a planner's `(src, dst, elems)` message list.
fn route_msgs(msgs: &[(NodeId, NodeId, u64)]) -> Vec<RouteMsg<u64>> {
    msgs.iter()
        .map(|&(src, dst, elems)| RouteMsg { src, dst, data: vec![src.bits(); elems as usize] })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The all-to-all exchange planner, under all three buffering
    /// policies.
    #[test]
    fn exchange_plan_equivalent(n in 1u32..5, seed in any::<u64>(), max_b in 0u64..6) {
        let sizes = random_sizes(n, seed, max_b);
        let params = MachineParams::unit(PortMode::OnePort).with_max_packet(3);
        for policy in [
            BufferPolicy::Ideal,
            BufferPolicy::Unbuffered,
            BufferPolicy::Buffered { min_direct: 2 },
        ] {
            let plan = all_to_all_exchange_plan(n, &sizes, policy, PortMode::OnePort);
            let mut net = SimNet::new(n, params.clone());
            net.record_links();
            exec::run::<BlockMsg<u64>, _>(&mut net, &plan.blocks, &plan.rounds);
            assert_equivalent(&plan, &params, &net.finalize());
        }
    }

    /// The all-to-all SBnT planner.
    #[test]
    fn sbnt_plan_equivalent(n in 1u32..5, seed in any::<u64>(), max_b in 0u64..6) {
        let sizes = random_sizes(n, seed, max_b);
        let params = MachineParams::unit(PortMode::AllPorts);
        let plan = all_to_all_sbnt_plan(n, &sizes);
        let mut net = SimNet::new(n, params.clone());
        net.record_links();
        exec::run::<BlockMsg<u64>, _>(&mut net, &plan.blocks, &plan.rounds);
        assert_equivalent(&plan, &params, &net.finalize());
    }

    /// The SBT and rotated-tree one-to-all planners.
    #[test]
    fn one_to_all_plans_equivalent(n in 1u32..5, root_raw in any::<u64>(), len in 0u64..6) {
        let root = NodeId(root_raw & cubeaddr::mask(n));
        let sizes: Vec<u64> = (0..(1u64 << n)).map(|d| (len + d) % 5).collect();

        let params = MachineParams::unit(PortMode::OnePort);
        let plan = one_to_all_sbt_plan(n, root, &sizes);
        let mut net = SimNet::new(n, params.clone());
        net.record_links();
        exec::run::<BlockMsg<u64>, _>(&mut net, &plan.blocks, &plan.rounds);
        assert_equivalent(&plan, &params, &net.finalize());

        let params = MachineParams::unit(PortMode::AllPorts);
        let trees: Vec<Sbt> = (0..n).map(|k| Sbt::rotated(n, root, k)).collect();
        if !trees.is_empty() {
            let plan = one_to_all_trees_plan(n, &sizes, &trees);
            let mut net = SimNet::new(n, params.clone());
            net.record_links();
            exec::run::<BlockMsg<u64>, _>(&mut net, &plan.blocks, &plan.rounds);
            assert_equivalent(&plan, &params, &net.finalize());
        }
    }

    /// The some-to-all planner, for random dimension splits.
    #[test]
    fn some_to_all_plan_equivalent(n in 1u32..5, mask_raw in any::<u64>(), seed in any::<u64>()) {
        let l_dims = DimSet(mask_raw & cubeaddr::mask(n));
        let k_dims = l_dims.complement(n);
        let sources = 1usize << l_dims.len();
        let num = 1usize << n;
        let sizes: Vec<Vec<u64>> = (0..sources as u64)
            .map(|i| (0..num as u64).map(|d| (i + d + seed) % 4).collect())
            .collect();
        let params = MachineParams::unit(PortMode::OnePort);
        let plan =
            some_to_all_plan(n, l_dims, k_dims, &sizes, BufferPolicy::Ideal, PortMode::OnePort);
        let mut net: SimNet<BlockMsg<u64>> = SimNet::new(n, params.clone());
        net.record_links();
        exec::run(&mut net, &plan.blocks, &plan.rounds);
        assert_equivalent(&plan, &params, &net.finalize());
    }

    /// The e-cube flight planner mirrors the router, including its
    /// contention serialization.
    #[test]
    fn ecube_plan_equivalent(n in 1u32..5, seed in any::<u64>(), count in 0usize..12) {
        let num = 1u64 << n;
        let msgs: Vec<(NodeId, NodeId, u64)> = (0..count as u64)
            .map(|i| {
                let h = i.wrapping_add(1).wrapping_mul(seed | 1);
                let src = (h >> 7) % num;
                let dst = (h >> 29) % num;
                let elems = (h >> 51) % 4; // zeros exercise the skip path
                (NodeId(src), NodeId(dst), elems)
            })
            .collect();
        let params = MachineParams::unit(PortMode::AllPorts);
        let plan = ecube_route_plan(n, &msgs);
        let mut net: SimNet<Block<u64>> = SimNet::new(n, params.clone());
        net.record_links();
        let _ = ecube_route(&mut net, route_msgs(&msgs));
        assert_equivalent(&plan, &params, &net.finalize());
    }
}

proptest! {
    // The only plan-vs-execution check the Dragonfly direct planner has
    // (it has no engine twin), over four machine shapes: more cases.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Dragonfly direct planner mirrors `graph_route` on a
    /// `SwappedDragonfly` net — local-global-local paths, gateway
    /// contention and all — on a few `D3(K,M)`.
    #[test]
    fn dragonfly_direct_plan_equivalent(
        shape in 0usize..4,
        seed in any::<u64>(),
        count in 0usize..24,
    ) {
        let (k, m) = [(1u32, 3u32), (2, 2), (2, 3), (3, 4)][shape];
        let topo = SwappedDragonfly::new(k, m);
        let num = topo.num_nodes() as u64;
        let mut msgs: Vec<(NodeId, NodeId, u64)> = (0..count as u64)
            .map(|i| {
                let h = i.wrapping_add(1).wrapping_mul(seed | 1);
                (NodeId((h >> 7) % num), NodeId((h >> 29) % num), (h >> 51) % 4)
            })
            .collect();
        // Whatever the seed drew, every set has a local and a
        // zero-element message: both must plan and route no hops.
        msgs.push((NodeId(seed % num), NodeId(seed % num), 2));
        msgs.push((NodeId(0), NodeId(num - 1), 0));
        let params = MachineParams::unit(PortMode::AllPorts);
        let plan = dragonfly_direct_plan(k, m, &msgs);
        let mut net: SimNet<Block<u64>, SwappedDragonfly> =
            SimNet::on_topology(topo, params.clone());
        net.record_links();
        let _ = graph_route(&mut net, route_msgs(&msgs));
        assert_equivalent(&plan, &params, &net.finalize());
    }
}

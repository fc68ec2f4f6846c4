//! The schedule fold against the replay it replaced.
//!
//! `cubecheck::run_schedule` computes a schedule's `CommReport` in one
//! pass over its sends and copies. The oracle here is the way it used to
//! be computed: the schedule replayed round by round on a `SimNet` of its
//! topology, with size-only payloads and link recording on. The two
//! reports must be equal as structs, their times bit for bit, and every
//! dynamic check must fail with the same message.

use cubeaddr::NodeId;
use cubecheck::run_schedule;
use cubecheck::workloads::{figure, transpose_msgs, workload_names};
use cubecomm::plan::{
    all_to_all_exchange_plan, dragonfly_direct_plan, dragonfly_swap_exchange_plan,
    ecube_route_plan, BlockMeta, CommSchedule, PlanRound, PlannedMsg,
};
use cubecomm::BufferPolicy;
use cubesim::{CommReport, MachineParams, Payload, PortMode, SimNet, TopoSpec};
use cubetopo::{SwappedDragonfly, Topology};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A payload that is nothing but its element count.
struct Elems(u64);

impl Payload for Elems {
    fn elems(&self) -> usize {
        self.0 as usize
    }
}

/// The oracle: every planned message sent as a size-only payload, every
/// planned copy charged, every round finished and every message received
/// at the far end of its link.
fn replay(schedule: &CommSchedule, params: &MachineParams) -> CommReport {
    let topo = schedule.topo;
    let mut net: SimNet<Elems, TopoSpec> = SimNet::on_topology(topo, params.clone());
    net.record_links();
    for round in &schedule.rounds {
        for msg in &round.msgs {
            net.send(msg.src, msg.dim, Elems(schedule.msg_elems(msg)));
        }
        for &(node, elems) in &round.copies {
            net.local_copy(node, elems as usize);
        }
        net.finish_round();
        for msg in &round.msgs {
            let (src, dim) = (msg.src.bits(), msg.dim);
            let far = topo.neighbor(src, dim).expect("sent");
            let got = net.recv(NodeId(far), topo.reverse_port(src, dim).expect("sent"));
            assert_eq!(got.0, schedule.msg_elems(msg), "a delivery off its link");
        }
    }
    net.finalize()
}

/// Fold and replay agree on the whole report, the times bit for bit.
fn assert_fold_is_replay(schedule: &CommSchedule, params: &MachineParams) -> CommReport {
    let (got, want) = (run_schedule(schedule, params), replay(schedule, params));
    let bits =
        |r: &CommReport| [r.time, r.startup_time, r.transfer_time, r.copy_time].map(f64::to_bits);
    assert_eq!(bits(&got), bits(&want), "{}: times differ in their bits", schedule.name);
    assert_eq!(got, want, "{}", schedule.name);
    got
}

/// The message a closure panics with.
fn panic_text(f: impl FnOnce() -> CommReport) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("no panic");
    match payload.downcast::<String>() {
        Ok(text) => *text,
        Err(payload) => payload.downcast::<&str>().map(|s| s.to_string()).expect("a text panic"),
    }
}

/// Deterministic pseudo-random size matrix (the hash of
/// `equivalence.rs`), zeros included.
fn random_sizes(num: usize, seed: u64, max_b: u64) -> Vec<Vec<u64>> {
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

/// One hand-built round: `(src, dim, elems)` messages and
/// `(node, elems)` copies.
type Round<'a> = (&'a [(u64, u32, u64)], &'a [(u64, u64)]);

/// A schedule over `topo` from hand-built rounds, one block per message.
fn schedule(topo: TopoSpec, rounds: &[Round], ports: PortMode) -> CommSchedule {
    let mut blocks = Vec::new();
    let rounds = rounds
        .iter()
        .map(|&(msgs, copies)| PlanRound {
            msgs: msgs
                .iter()
                .map(|&(src, dim, elems)| {
                    blocks.push(BlockMeta { src: NodeId(src), dst: NodeId(src), elems });
                    // Block `b` is arena entry `b`.
                    let id = blocks.len() as u32 - 1;
                    PlannedMsg { src: NodeId(src), dim, blocks: id..id + 1 }
                })
                .collect(),
            copies: copies.iter().map(|&(node, elems)| (NodeId(node), elems)).collect(),
        })
        .collect();
    CommSchedule {
        name: "hand-built".into(),
        topo,
        ports,
        dimension_ordered: false,
        block_ids: (0..blocks.len() as u32).collect(),
        blocks,
        rounds,
    }
}

#[test]
fn every_cubecheck_workload_folds_to_its_replay() {
    let mut count = 0;
    for name in workload_names() {
        for w in figure(name).unwrap() {
            let report = assert_fold_is_replay(&w.schedule, &w.params);
            assert_eq!(report.rounds, w.schedule.rounds.len(), "{}", w.name);
            count += 1;
        }
    }
    assert!(count >= 50, "only {count} workloads");
}

#[test]
fn the_fourteen_cube_plan_folds_to_its_replay() {
    // perfbench's cm14-plan workloads: four elements per processor.
    let plan = ecube_route_plan(14, &transpose_msgs(14, 4));
    let report = assert_fold_is_replay(&plan, &MachineParams::connection_machine());
    assert_eq!((report.total_messages, report.rounds, report.max_link_elems), (114_688, 71, 256));
}

#[test]
fn dragonfly_planners_fold_to_their_replay() {
    for (k, m) in [(1u32, 3u32), (2, 2), (2, 3), (3, 4)] {
        let d = SwappedDragonfly::new(k, m);
        let num = d.num_nodes();
        let msgs: Vec<(NodeId, NodeId, u64)> = (0..num as u64)
            .map(|x| (NodeId(x), NodeId((x * 7 + 3) % num as u64), 1 + x % 3))
            .collect();
        for params in [
            MachineParams::unit(PortMode::AllPorts).with_max_packet(2),
            MachineParams::intel_ipsc().with_ports(PortMode::AllPorts),
        ] {
            for plan in [
                dragonfly_swap_exchange_plan(k, m, &random_sizes(num, 7, 3)),
                dragonfly_direct_plan(k, m, &msgs),
            ] {
                assert_fold_is_replay(&plan, &params);
            }
        }
    }
}

#[test]
fn link_totals_past_u32_are_exact() {
    let big = u64::from(u32::MAX);
    let plan = schedule(
        TopoSpec::hypercube(1),
        &[(&[(0, 0, big), (1, 0, 1)], &[]), (&[(0, 0, 2)], &[])],
        PortMode::OnePort,
    );
    let report = assert_fold_is_replay(&plan, &MachineParams::unit(PortMode::OnePort));
    assert_eq!(report.max_link_elems, big + 2);
    assert_eq!(report.total_elems, big + 3);
}

#[test]
fn copies_of_one_node_add_up_within_a_round() {
    let plan = schedule(
        TopoSpec::hypercube(2),
        &[
            (&[(0, 1, 3), (2, 1, 1)], &[(3, 4), (1, 2), (3, 5), (0, 0)]),
            (&[], &[(2, 6)]),
            (&[(3, 0, 2)], &[]),
        ],
        PortMode::OnePort,
    );
    let params = MachineParams::intel_ipsc();
    let report = assert_fold_is_replay(&plan, &params);
    assert_eq!(report.max_node_copy_elems, 9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The buffered exchange charges copies; `B_m = 3` fragments its
    /// messages; the iPSC preset makes every time a sum of inexact f64s.
    #[test]
    fn buffered_exchange_plans_fold_to_their_replay(
        n in 1u32..6,
        seed in any::<u64>(),
        max_b in 0u64..7,
        min_direct in 1usize..5,
    ) {
        let sizes = random_sizes(1 << n, seed, max_b);
        let plan = all_to_all_exchange_plan(
            n,
            &sizes,
            BufferPolicy::Buffered { min_direct },
            PortMode::OnePort,
        );
        for params in [
            MachineParams::unit(PortMode::OnePort).with_max_packet(3).with_t_copy(0.5),
            MachineParams::intel_ipsc(),
        ] {
            assert_fold_is_replay(&plan, &params);
        }
    }
}

/// Every dynamic check fails the fold with the replay's message.
#[test]
fn checks_fail_with_the_replays_message() {
    let one = MachineParams::unit(PortMode::OnePort);
    let all = MachineParams::unit(PortMode::AllPorts);
    let cube = TopoSpec::hypercube(3);
    let d = SwappedDragonfly::new(2, 2);
    let cases: Vec<(&str, CommSchedule, &MachineParams)> = vec![
        ("node out of range", schedule(cube, &[(&[(9, 0, 1)], &[])], PortMode::AllPorts), &all),
        ("port out of range", schedule(cube, &[(&[(1, 3, 1)], &[])], PortMode::AllPorts), &all),
        (
            "unwired port",
            schedule(
                TopoSpec::dragonfly(2, 2),
                &[(&[(d.node_at(0, 0), 1, 1)], &[])],
                PortMode::AllPorts,
            ),
            &all,
        ),
        ("empty message", schedule(cube, &[(&[(1, 0, 0)], &[])], PortMode::AllPorts), &all),
        (
            "over u32 elements",
            schedule(cube, &[(&[(1, 0, 1 << 32)], &[])], PortMode::AllPorts),
            &all,
        ),
        (
            "link contention",
            schedule(cube, &[(&[(2, 1, 1), (5, 0, 3), (2, 1, 2)], &[])], PortMode::AllPorts),
            &all,
        ),
        (
            "one-port, in a later round",
            schedule(
                cube,
                &[(&[(0, 0, 1)], &[]), (&[(0, 0, 1), (0, 1, 1)], &[])],
                PortMode::OnePort,
            ),
            &one,
        ),
        (
            // Node 4 breaks the rule first in send order, node 0 first in
            // the order nodes are touched: the message names node 0 and
            // its whole port set.
            "one-port, named in touch order",
            schedule(
                cube,
                &[(&[(0, 0, 1), (4, 0, 1), (4, 1, 1), (0, 2, 1)], &[])],
                PortMode::OnePort,
            ),
            &one,
        ),
        ("copy node out of range", schedule(cube, &[(&[], &[(8, 1)])], PortMode::AllPorts), &all),
        ("too many links", schedule(TopoSpec::hypercube(28), &[], PortMode::AllPorts), &all),
    ];
    for (what, plan, params) in cases {
        let want = panic_text(|| replay(&plan, params));
        let got = panic_text(|| run_schedule(&plan, params));
        assert_eq!(got, want, "{what}");
    }
}

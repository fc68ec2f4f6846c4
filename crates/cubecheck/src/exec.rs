//! A schedule executor: replays a [`CommSchedule`] on a [`SimNet`] of
//! its own topology, payload-free.
//!
//! [`run_schedule`] drives the net round by round exactly as the
//! schedule dictates — every planned message becomes one send of a
//! size-only payload, every planned copy a [`SimNet::local_copy`]
//! charge — and returns the [`CommReport`] with link recording enabled.
//! The net dynamically enforces what it always enforces (real wired
//! links, port discipline, nonempty messages), so replaying a schedule
//! is itself a check; feeding the report to
//! [`crate::crossval::cross_validate`] against the schedule's own
//! lowering then closes the loop. The Dragonfly planner family, which
//! has no payload engine, is validated this way. The cube engines run
//! their plans with real blocks through [`cubecomm::exec::execute`],
//! which also tracks where every block is; this replay carries sizes
//! only, so the warm-cache path it dominates moves no payloads.

use cubecomm::plan::CommSchedule;
use cubesim::{CommReport, MachineParams, Payload, SimNet};
use cubetopo::TopoSpec;

/// A payload that is nothing but its element count.
#[derive(Clone, Copy, Debug)]
struct Elems(u64);

impl Payload for Elems {
    fn elems(&self) -> usize {
        self.0 as usize
    }
}

/// Replays `schedule` on a fresh net of its topology under `params`,
/// with link recording on, and returns the finalized report.
///
/// # Panics
/// If the schedule sends over nonexistent or unwired links, breaks the
/// one-port discipline while `params` claims one-port, or plans an
/// empty message — the net's own dynamic checks, which a schedule that
/// passes [`crate::rules::check_all`] never trips.
#[track_caller]
pub fn run_schedule(schedule: &CommSchedule, params: &MachineParams) -> CommReport {
    let mut net: SimNet<Elems, TopoSpec> = SimNet::on_topology(schedule.topo, params.clone());
    net.record_links();
    let mut scratch = Vec::new();
    for round in &schedule.rounds {
        for msg in &round.msgs {
            net.send(msg.src, msg.dim, Elems(schedule.msg_elems(msg)));
        }
        for &(node, elems) in &round.copies {
            net.local_copy(node, elems as usize);
        }
        net.finish_round();
        scratch.clear();
        net.drain_all(&mut scratch);
    }
    net.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossval::cross_validate;
    use crate::ir::lower;
    use crate::rules::check_all;
    use cubeaddr::NodeId;
    use cubecomm::plan::{
        all_to_all_exchange_plan, dragonfly_direct_plan, dragonfly_swap_exchange_plan,
        ecube_route_plan,
    };
    use cubecomm::BufferPolicy;
    use cubesim::{MachineParams, PortMode};
    use cubetopo::{SwappedDragonfly, Topology};

    fn all_to_all_sizes(num: usize, elems: u64) -> Vec<Vec<u64>> {
        (0..num).map(|s| (0..num).map(|t| if s == t { 0 } else { elems }).collect()).collect()
    }

    #[test]
    fn replaying_cube_plans_matches_their_lowering() {
        let params = MachineParams::unit(PortMode::OnePort);
        let sizes = all_to_all_sizes(8, 2);
        let plan = all_to_all_exchange_plan(3, &sizes, BufferPolicy::Ideal, PortMode::OnePort);
        let report = run_schedule(&plan, &params);
        let errs = cross_validate(&lower(&plan, &params), &report);
        assert!(errs.is_empty(), "{}", errs.join("\n"));

        let params = MachineParams::unit(PortMode::AllPorts);
        let plan = ecube_route_plan(3, &[(NodeId(0), NodeId(7), 3), (NodeId(5), NodeId(2), 1)]);
        let errs = cross_validate(&lower(&plan, &params), &run_schedule(&plan, &params));
        assert!(errs.is_empty(), "{}", errs.join("\n"));
    }

    #[test]
    fn dragonfly_plans_pass_all_rules_and_replay_cleanly() {
        let params = MachineParams::unit(PortMode::AllPorts);
        let d = SwappedDragonfly::new(2, 3);
        let sizes = all_to_all_sizes(d.num_nodes(), 2);
        let msgs: Vec<(NodeId, NodeId, u64)> = (0..d.num_nodes() as u64)
            .map(|x| (NodeId(x), NodeId((x * 7 + 3) % d.num_nodes() as u64), 2))
            .collect();
        for plan in [dragonfly_swap_exchange_plan(2, 3, &sizes), dragonfly_direct_plan(2, 3, &msgs)]
        {
            let low = lower(&plan, &params);
            let diags = check_all(&low, &params);
            assert!(diags.is_empty(), "{}: {}", plan.name, diags[0]);
            let errs = cross_validate(&low, &run_schedule(&plan, &params));
            assert!(errs.is_empty(), "{}: {}", plan.name, errs.join("\n"));
        }
    }

    #[test]
    #[should_panic(expected = "unwired port")]
    fn replay_rejects_unwired_links() {
        use cubecomm::plan::{BlockMeta, PlanRound, PlannedMsg};
        let d = SwappedDragonfly::new(2, 2);
        // Port 1 of node (0, 0) is group 0's swap fixed point: unwired.
        let plan = CommSchedule {
            name: "corrupt/unwired".into(),
            topo: TopoSpec::dragonfly(2, 2),
            ports: PortMode::AllPorts,
            dimension_ordered: false,
            blocks: vec![BlockMeta { src: NodeId(0), dst: NodeId(1), elems: 1 }],
            rounds: vec![PlanRound {
                msgs: vec![PlannedMsg { src: NodeId(d.node_at(0, 0)), dim: 1, blocks: vec![0] }],
                copies: vec![],
            }],
        };
        let _ = run_schedule(&plan, &MachineParams::unit(PortMode::AllPorts));
    }
}

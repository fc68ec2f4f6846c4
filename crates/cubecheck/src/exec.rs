//! The schedule executor: folds a [`CommSchedule`] into the
//! [`CommReport`] a run of it produces, without running it.
//!
//! The paper's §2 cost model charges each round its maxima over links,
//! so a report is a pure function of the schedule's
//! `(round, src, dim, elems)` sends and `(round, node, elems)` copies.
//! [`run_schedule`] makes one pass over them. Per round it packs each
//! message into a `channel << 32 | elems` key (`channel = src · ports +
//! dim`) and walks the keys once in channel order. Every
//! `cubecomm::plan` builder emits its rounds in that order, so the keys
//! of a built plan already ascend; only a hand-built (or corrupted)
//! schedule's keys are sorted. The walk yields the round's
//! [`CommReport::link_history`] in `(src, dim)` order, finds link
//! contention as two adjacent equal channels, and adds into the
//! per-link running totals behind `max_link_elems`, a
//! [`cubesim::LinkTotals`] like the one a [`cubesim::SimNet`] keeps. The
//! round's maxima close through [`cubesim::RoundCost`], the arithmetic a
//! [`cubesim::SimNet`] closes its rounds with, so the report's `f64`
//! sums are the simulator's bit for bit.
//!
//! The fold enforces what the simulator enforces, with the simulator's
//! messages: nodes and ports in range, wired links, nonempty messages
//! of at most `u32::MAX` elements, one message per directed link per
//! round, the one-port discipline when `params` claims it, and at most
//! `2^31 − 1` directed links. Folding a schedule is therefore itself a
//! check; feeding the report to [`crate::crossval::cross_validate`]
//! against the schedule's own lowering then closes the loop. The
//! Dragonfly planner family is validated this way. A cube plan runs
//! through [`cubecomm::exec::run`], which charges the same messages to a
//! [`cubesim::SimNet`] and tracks where every block is; the fold moves
//! nothing and keeps no net, which is what the warm-cache path needs.

use cubeaddr::NodeId;
use cubecomm::plan::CommSchedule;
use cubesim::{link_slots, CommReport, LinkEvent, LinkTotals, MachineParams, PortMode, RoundCost};
use cubetopo::Topology;

/// The report a run of `schedule` under `params` produces, link
/// history included (the report of a [`cubesim::SimNet`] with
/// [`record_links`](cubesim::SimNet::record_links) on, after every
/// planned message is sent and every planned copy charged).
///
/// # Panics
/// If the schedule names a node or port outside its topology, sends
/// over an unwired port, plans an empty message or one of more than
/// `u32::MAX` elements, sends twice over one directed link in a round,
/// or breaks the one-port discipline while `params` claims one-port;
/// or if the topology has more than `2^31 − 1` directed links. These
/// are the simulator's own dynamic checks, with its messages; a
/// schedule that passes [`crate::rules::check_all`] never trips them.
#[track_caller]
pub fn run_schedule(schedule: &CommSchedule, params: &MachineParams) -> CommReport {
    let topo = &schedule.topo;
    let links = link_slots(topo);
    let (nodes, ports) = (topo.num_nodes(), topo.ports());
    let check_node = |x: NodeId| {
        assert!(x.index() < nodes, "node {x} outside the {}", topo.label());
    };
    let mut totals = LinkTotals::new(links);
    // One-port only: per node, `(round + 1) << 6 | port` of the last
    // link it used.
    let mut port_stamps =
        if params.ports == PortMode::OnePort { vec![0u64; nodes] } else { Vec::new() };
    let (mut keys, mut copies) = (Vec::new(), Vec::new());
    let mut report = CommReport::default();
    for (r, round) in schedule.rounds.iter().enumerate() {
        let mut cost = RoundCost::default();
        let (mut ascending, mut port_clash) = (true, false);
        keys.clear();
        for msg in &round.msgs {
            let (src, dim) = (msg.src, msg.dim);
            check_node(src);
            assert!(dim < ports, "dimension {dim} outside the {}", topo.label());
            let elems = schedule.msg_elems(msg);
            assert!(elems > 0, "empty message from {src} on dim {dim}; skip empty sends");
            let dst = topo.neighbor(src.bits(), dim).unwrap_or_else(|| {
                panic!("send from {src} on unwired port {dim} of the {}", topo.label())
            });
            let elems = u32::try_from(elems).unwrap_or_else(|_| {
                panic!(
                    "message from {src} on dim {dim} carries {elems} elements, over the u32 limit"
                )
            });
            if !port_stamps.is_empty() {
                let rp = topo.reverse_port(src.bits(), dim).unwrap();
                port_clash |= stamp_port(&mut port_stamps, src.bits(), dim, r)
                    | stamp_port(&mut port_stamps, dst, rp, r);
            }
            cost.send(params, elems as usize);
            let key = (src.bits() * u64::from(ports) + u64::from(dim)) << 32 | u64::from(elems);
            ascending &= keys.last().is_none_or(|&last| last <= key);
            keys.push(key);
        }
        if !ascending {
            keys.sort_unstable();
        }
        let mut events = Vec::with_capacity(keys.len());
        let mut last_channel = u32::MAX;
        for &key in &keys {
            // A channel fits u32 (`link_slots`), whose division is cheaper.
            let (channel, elems) = ((key >> 32) as u32, key as u32);
            let (src, dim) = (channel / ports, channel % ports);
            if channel == last_channel {
                let dst = topo.neighbor(src.into(), dim).unwrap();
                panic!(
                    "link contention: directed link {src}--dim {dim}--> {dst} used twice in round {r}"
                );
            }
            last_channel = channel;
            events.push(LinkEvent { src: src.into(), dim, elems });
            report.max_link_elems = report.max_link_elems.max(totals.add(channel as usize, elems));
        }
        copies.clear();
        copies.extend(round.copies.iter().map(|&(node, elems)| {
            check_node(node);
            (node, elems as usize)
        }));
        copies.sort_unstable_by_key(|&(node, _)| node);
        for node in copies.chunk_by(|a, b| a.0 == b.0) {
            cost.copy(node.iter().map(|&(_, elems)| elems).sum());
        }
        if port_clash {
            one_port_violation(schedule, r);
        }
        cost.close(params, &mut report, false);
        report.link_history.push(events);
    }
    report
}

/// Records that `node` uses `port` in `round`; true if it already used
/// another port in that round.
#[inline]
fn stamp_port(stamps: &mut [u64], node: u64, port: u32, round: usize) -> bool {
    let stamp = (round as u64 + 1) << 6 | u64::from(port);
    let last = std::mem::replace(&mut stamps[node as usize], stamp);
    last >> 6 == stamp >> 6 && last != stamp
}

/// Panics with the simulator's one-port message for `round`: the first
/// node, in the order the round's sends first touch nodes, whose port
/// set has two members, named with its whole set.
#[cold]
#[track_caller]
fn one_port_violation(schedule: &CommSchedule, round: usize) -> ! {
    let topo = &schedule.topo;
    let mut masks = vec![0u64; topo.num_nodes()];
    let mut touched = Vec::new();
    for msg in &schedule.rounds[round].msgs {
        let src = msg.src.bits();
        let (dst, rp) = (topo.neighbor(src, msg.dim), topo.reverse_port(src, msg.dim));
        for (node, port) in [(src, msg.dim), (dst.unwrap(), rp.unwrap())] {
            if masks[node as usize] == 0 {
                touched.push(node);
            }
            masks[node as usize] |= 1 << port;
        }
    }
    let node = touched.into_iter().find(|&x| masks[x as usize].count_ones() > 1).unwrap();
    let mask = masks[node as usize];
    panic!("one-port violation: node {node} used dims {mask:#b} in round {round}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossval::cross_validate;
    use crate::ir::lower;
    use crate::rules::check_all;
    use cubecomm::plan::{
        all_to_all_exchange_plan, dragonfly_direct_plan, dragonfly_swap_exchange_plan,
        ecube_route_plan,
    };
    use cubecomm::BufferPolicy;
    use cubesim::{MachineParams, PortMode};
    use cubetest::ScheduleBuilder;
    use cubetopo::{SwappedDragonfly, TopoSpec};

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

    /// Builders emit each round in channel order, so the fold sorts
    /// only hand-built schedules' rounds. Reversing every round of
    /// every family's plan sends those rounds through it, and the
    /// report, link history and time bits included, must not move.
    #[test]
    fn reversing_every_round_leaves_the_report_unchanged() {
        use cubecomm::plan::{all_to_all_sbnt_plan, one_to_all_sbt_plan, one_to_all_trees_plan};
        use cubecomm::sbt::Sbt;
        let d = SwappedDragonfly::new(2, 3);
        let df_msgs: Vec<(NodeId, NodeId, u64)> = (0..d.num_nodes() as u64)
            .map(|x| (NodeId(x), NodeId((x * 7 + 3) % d.num_nodes() as u64), x % 3 + 1))
            .collect();
        let one_sizes: Vec<u64> = (0..16).map(|x| x % 5).collect();
        let rotated: Vec<Sbt> = (0..4).map(|k| Sbt::rotated(4, NodeId(5), k)).collect();
        let plans = [
            ecube_route_plan(4, &crate::workloads::transpose_msgs(4, 3)),
            all_to_all_exchange_plan(
                3,
                &all_to_all_sizes(8, 3),
                BufferPolicy::Buffered { min_direct: 4 },
                PortMode::OnePort,
            ),
            one_to_all_sbt_plan(4, NodeId(5), &one_sizes),
            one_to_all_trees_plan(4, &one_sizes, &rotated),
            all_to_all_sbnt_plan(3, &all_to_all_sizes(8, 2)),
            dragonfly_direct_plan(2, 3, &df_msgs),
            dragonfly_swap_exchange_plan(2, 3, &all_to_all_sizes(d.num_nodes(), 2)),
        ];
        for plan in &plans {
            let params = MachineParams::unit(plan.ports);
            let mut reversed = plan.clone();
            for round in &mut reversed.rounds {
                round.msgs.reverse();
                round.copies.reverse();
            }
            assert!(
                reversed.rounds.iter().any(|r| r.msgs.len() > 1),
                "{}: no round for the sort to reorder",
                plan.name
            );
            assert_eq!(
                run_schedule(&reversed, &params),
                run_schedule(plan, &params),
                "{}",
                plan.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "unwired port")]
    fn replay_rejects_unwired_links() {
        let d = SwappedDragonfly::new(2, 2);
        // Port 1 of node (0, 0) is group 0's swap fixed point: unwired.
        let plan =
            ScheduleBuilder::new("corrupt/unwired", TopoSpec::dragonfly(2, 2), PortMode::AllPorts)
                .blocks(&[(0, 1)])
                .round(&[(d.node_at(0, 0), 1, 0)])
                .build();
        let _ = run_schedule(&plan, &MachineParams::unit(PortMode::AllPorts));
    }

    /// Folds a one-round schedule of `(src, dim, elems)` messages on the
    /// `n`-cube under `ports`.
    fn fold_round(n: u32, msgs: &[(u64, u32, u64)], ports: PortMode) -> CommReport {
        let plan = ScheduleBuilder::new("corrupt", TopoSpec::hypercube(n), ports)
            .sized_round(msgs, &[])
            .build();
        run_schedule(&plan, &MachineParams::unit(ports))
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn fold_rejects_out_of_range_nodes() {
        fold_round(2, &[(7, 0, 1)], PortMode::OnePort);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn fold_rejects_out_of_range_ports() {
        fold_round(2, &[(0, 5, 1)], PortMode::OnePort);
    }

    #[test]
    #[should_panic(expected = "empty message")]
    fn fold_rejects_empty_messages() {
        fold_round(2, &[(0, 0, 0)], PortMode::OnePort);
    }

    #[test]
    #[should_panic(expected = "message from 1 on dim 0 carries 4294967296 elements")]
    fn fold_rejects_messages_beyond_u32() {
        fold_round(1, &[(1, 0, 1 << 32)], PortMode::OnePort);
    }

    #[test]
    #[should_panic(expected = "link contention")]
    fn fold_rejects_link_contention() {
        fold_round(2, &[(0, 0, 1), (0, 0, 2)], PortMode::AllPorts);
    }

    #[test]
    #[should_panic(expected = "one-port violation")]
    fn fold_rejects_one_port_violations() {
        fold_round(3, &[(0, 0, 1), (0, 1, 2)], PortMode::OnePort);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "28-cube: 268435456 nodes x 28 ports exceed the 32-bit link index")]
    fn fold_refuses_more_links_than_u32_indexes() {
        // Refused before the link totals are allocated.
        fold_round(28, &[], PortMode::AllPorts);
    }
}

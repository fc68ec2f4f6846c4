//! Cross-validation of a lowered schedule against a simulated run.
//!
//! The checkers are only worth trusting if the static plan is really the
//! schedule the engine executes. This module compares a [`Lowered`]
//! schedule with the [`CommReport`] of an execution recorded under
//! [`cubesim::SimNet::record_links`] (or of [`crate::run_schedule`]'s
//! fold): round counts, the exact `(src, dim, elems)` link set of every
//! round, the report's message / element / packet totals, its critical
//! path (Σ over rounds of the largest claim's packets and elements), the
//! busiest directed link's total and the largest per-node copy charge of
//! a round must all agree.

use crate::ir::Lowered;
use cubesim::CommReport;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Compares plan and execution; returns one human-readable line per
/// mismatch (empty = equivalent). The report must come from a run with
/// link recording enabled and must cover *only* the planned operation.
pub fn cross_validate(low: &Lowered, report: &CommReport) -> Vec<String> {
    let mut errs = Vec::new();
    if report.link_history.len() != report.rounds {
        errs.push(format!(
            "report has {} link-history rounds for {} rounds — was record_links enabled \
             before the run?",
            report.link_history.len(),
            report.rounds
        ));
        return errs;
    }
    if low.rounds != report.rounds {
        errs.push(format!("round count: plan has {}, execution ran {}", low.rounds, report.rounds));
    }
    // Per-round link sets, as sorted (src, dim, elems) triples.
    let rounds = low.rounds.min(report.rounds);
    let mut planned: Vec<Vec<(u64, u32, u64)>> = vec![Vec::new(); rounds];
    for c in &low.claims {
        if c.round < rounds {
            planned[c.round].push((c.src, c.dim, c.elems));
        }
    }
    for (r, plan_links) in planned.iter_mut().enumerate() {
        plan_links.sort_unstable();
        let mut run_links: Vec<(u64, u32, u64)> =
            report.link_history[r].iter().map(|e| (e.src, e.dim, u64::from(e.elems))).collect();
        run_links.sort_unstable();
        if *plan_links != run_links {
            let detail = plan_links
                .iter()
                .find(|l| !run_links.contains(l))
                .map(|&(s, d, e)| format!("plan-only link (src {s}, dim {d}, {e} elems)"))
                .or_else(|| {
                    run_links
                        .iter()
                        .find(|l| !plan_links.contains(l))
                        .map(|&(s, d, e)| format!("run-only link (src {s}, dim {d}, {e} elems)"))
                })
                .unwrap_or_else(|| "same links, different multiplicities".to_string());
            errs.push(format!(
                "round {r}: plan claims {} links, run used {} — first difference: {detail}",
                plan_links.len(),
                run_links.len()
            ));
        }
    }
    let (msgs, elems, packets) = (low.claims.len() as u64, low.total_elems(), low.total_packets());
    if msgs != report.total_messages {
        errs.push(format!("total messages: plan {} vs run {}", msgs, report.total_messages));
    }
    if elems != report.total_elems {
        errs.push(format!("total elems: plan {} vs run {}", elems, report.total_elems));
    }
    if packets != report.total_packets {
        errs.push(format!("total packets: plan {} vs run {}", packets, report.total_packets));
    }
    let peaks = Peaks::of(low, &planned);
    for (what, plan, run) in [
        ("critical start-ups", peaks.startups, report.critical_startups),
        ("critical elems", peaks.elems, report.critical_elems),
        ("max link elems", peaks.link_elems, report.max_link_elems),
        ("max node copy elems", peaks.copy_elems, report.max_node_copy_elems),
    ] {
        if plan != run {
            errs.push(format!("{what}: plan {plan} vs run {run}"));
        }
    }
    errs
}

/// What the cost model charges a lowered schedule beyond its totals.
struct Peaks {
    /// Σ over rounds of the round's largest claim's packets.
    startups: u64,
    /// Σ over rounds of the round's largest claim's elements.
    elems: u64,
    /// The largest per-directed-link total over the schedule.
    link_elems: u64,
    /// The largest elements one node copies in one round.
    copy_elems: u64,
}

impl Peaks {
    /// `planned` holds the claims' sorted `(src, dim, elems)` per round.
    fn of(low: &Lowered, planned: &[Vec<(u64, u32, u64)>]) -> Self {
        let span = low.claims.iter().map(|c| c.round + 1).max().unwrap_or(0);
        let mut round_peaks = vec![(0u64, 0u64); span];
        for c in &low.claims {
            let (packets, elems) = &mut round_peaks[c.round];
            (*packets, *elems) = ((*packets).max(c.packets), (*elems).max(c.elems));
        }
        let mut copies = low.copies.clone();
        copies.sort_unstable();
        let copy_elems = copies
            .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
            .map(|node| node.iter().map(|c| c.2).sum())
            .max()
            .unwrap_or(0);
        Peaks {
            startups: round_peaks.iter().map(|p| p.0).sum(),
            elems: round_peaks.iter().map(|p| p.1).sum(),
            link_elems: max_link_total(planned),
            copy_elems,
        }
    }
}

/// The largest per-link total over per-round link lists, each sorted:
/// a merge of the rounds in `(src, dim)` order, so equal links meet
/// without a copy of the claims (that copy would set the peak memory of
/// a paper-scale check).
fn max_link_total(rounds: &[Vec<(u64, u32, u64)>]) -> u64 {
    let head =
        |r: usize, i: usize| rounds[r].get(i).map(|&(src, dim, e)| Reverse((src, dim, e, r, i)));
    let mut heads: BinaryHeap<_> = (0..rounds.len()).filter_map(|r| head(r, 0)).collect();
    let (mut max, mut link, mut total) = (0, None, 0);
    while let Some(Reverse((src, dim, elems, r, i))) = heads.pop() {
        if link != Some((src, dim)) {
            (link, total) = (Some((src, dim)), 0);
        }
        total += elems;
        max = max.max(total);
        heads.extend(head(r, i + 1));
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower;
    use cubecomm::exec;
    use cubecomm::plan::all_to_all_exchange_plan;
    use cubecomm::BufferPolicy;
    use cubesim::{MachineParams, PortMode, SimNet};

    #[test]
    fn exchange_plan_matches_execution() {
        let n = 3;
        let params = MachineParams::unit(PortMode::OnePort);
        let sizes: Vec<Vec<u64>> =
            (0..8).map(|s| (0..8).map(|d| u64::from(s != d) * 2).collect()).collect();
        let plan = all_to_all_exchange_plan(n, &sizes, BufferPolicy::Ideal, PortMode::OnePort);
        let low = lower(&plan, &params);

        let mut net: SimNet<u64> = SimNet::new(n, params);
        net.record_links();
        exec::run(&mut net, &plan.blocks, &plan.rounds);
        let report = net.finalize();
        let errs = cross_validate(&low, &report);
        assert!(errs.is_empty(), "{}", errs.join("\n"));
    }

    #[test]
    fn mismatch_is_reported() {
        let n = 2;
        let params = MachineParams::unit(PortMode::OnePort);
        let sizes = vec![vec![1u64; 4]; 4];
        let plan = all_to_all_exchange_plan(n, &sizes, BufferPolicy::Ideal, PortMode::OnePort);
        let mut low = lower(&plan, &params);
        low.claims[0].elems += 1; // corrupt one link claim

        let mut net: SimNet<u64> = SimNet::new(n, params);
        net.record_links();
        exec::run(&mut net, &plan.blocks, &plan.rounds);
        let errs = cross_validate(&low, &net.finalize());
        assert!(!errs.is_empty());
        assert!(errs.iter().any(|e| e.contains("plan-only link")), "{}", errs.join("\n"));
    }

    /// Cross-validates a buffered exchange (messages of several sizes,
    /// `B_m` fragmenting them, copies charged) against its own fold with
    /// one report field corrupted; exactly that field's line must come
    /// back.
    fn corrupted(field: &str, corrupt: impl Fn(&mut CommReport)) {
        let params = MachineParams::unit(PortMode::OnePort).with_max_packet(2);
        let sizes: Vec<Vec<u64>> = (0..8).map(|s| (0..8).map(|d| (s + d) % 3).collect()).collect();
        let policy = BufferPolicy::Buffered { min_direct: 4 };
        let plan = all_to_all_exchange_plan(3, &sizes, policy, PortMode::OnePort);
        let low = lower(&plan, &params);
        let mut report = crate::run_schedule(&plan, &params);
        assert!(cross_validate(&low, &report).is_empty());
        assert!(report.max_node_copy_elems > 0 && report.critical_startups > report.rounds as u64);
        corrupt(&mut report);
        let errs = cross_validate(&low, &report);
        assert_eq!(errs.len(), 1, "{}", errs.join("\n"));
        assert!(errs[0].starts_with(&format!("{field}: plan ")), "{}", errs[0]);
    }

    #[test]
    fn critical_startups_mismatch_is_reported() {
        corrupted("critical start-ups", |r| r.critical_startups -= 1);
    }

    #[test]
    fn critical_elems_mismatch_is_reported() {
        corrupted("critical elems", |r| r.critical_elems += 1);
    }

    #[test]
    fn max_link_elems_mismatch_is_reported() {
        corrupted("max link elems", |r| r.max_link_elems += 1);
    }

    #[test]
    fn max_node_copy_elems_mismatch_is_reported() {
        corrupted("max node copy elems", |r| r.max_node_copy_elems -= 1);
    }
}

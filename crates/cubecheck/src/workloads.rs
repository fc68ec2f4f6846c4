//! The figure workloads, as static schedules.
//!
//! Figures 14(b) and 16–18 all route the node-permutation transpose
//! `x → tr(x)` through the dimension-ordered router; each workload here
//! is the corresponding [`CommSchedule`] (built by
//! [`cubecomm::plan::ecube_route_plan`]) paired with the figure's
//! machine model, at every benchmarked parameter point. The `cubecheck`
//! binary lints them all (`cubecheck --all-figures`).
//!
//! Schedules are built through a process-wide [`PlanCache`] (see
//! [`plan_cache`]): figures sharing a parameter point (the same `n` and
//! element count) share one construction, and re-lints are warm hits.
//! The cache hands out `Arc`s, so a workload's schedule is shared, not
//! cloned; the figure-specific display name lives on the workload (and
//! is copied onto the lowered IR for diagnostics), not on the schedule.

use cubeaddr::NodeId;
use cubecomm::plan::{
    dragonfly_direct_plan_cached, dragonfly_swap_exchange_plan_cached, ecube_route_plan_cached,
    CommSchedule, PlanCache,
};
use cubesim::{MachineParams, PortMode};
use cubesync::sync::{Arc, OnceLock};
use cubetopo::{SwappedDragonfly, Topology};
use cubetranspose::two_dim::tr;

/// The process-wide plan cache feeding every figure workload. Sized to
/// hold all distinct parameter points of all figures at once (the four
/// figures use 31 distinct `(n, elems)` transpose plans).
pub fn plan_cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(|| PlanCache::new(64))
}

/// One lintable workload: a schedule plus the machine it targets.
pub struct FigureWorkload {
    /// Workload name, e.g. `fig16/n10`.
    pub name: String,
    /// The static schedule (shared through [`plan_cache`]).
    pub schedule: Arc<CommSchedule>,
    /// The machine model of the figure (sets `B_m` for the packet rule).
    pub params: MachineParams,
}

/// The transpose permutation messages of the figures: one message
/// `x → tr(x)` of `elems` elements per off-diagonal node.
pub fn transpose_msgs(n: u32, elems: u64) -> Vec<(NodeId, NodeId, u64)> {
    let half = n / 2;
    (0..cubeaddr::num_nodes(n) as u64)
        .filter(|&x| tr(x, half) != x)
        .map(|x| (NodeId(x), NodeId(tr(x, half)), elems))
        .collect()
}

fn workload(
    figure: &str,
    n: u32,
    elems: u64,
    params: MachineParams,
    tag: String,
) -> FigureWorkload {
    let schedule = ecube_route_plan_cached(plan_cache(), n, &transpose_msgs(n, elems));
    FigureWorkload { name: format!("{figure}/{tag}"), schedule, params }
}

/// Figure 14(b): iPSC routing logic, all ports, `2^(m-n)` elements per
/// node, for `n ∈ {2, 4, 6}` and `m ∈ {8, 10, …, 16}`.
pub fn fig14b() -> Vec<FigureWorkload> {
    let params = MachineParams::intel_ipsc().with_ports(PortMode::AllPorts);
    [2u32, 4, 6]
        .into_iter()
        .flat_map(|n| (8..=16u32).step_by(2).map(move |m| (n, m)))
        .map(|(n, m_log)| {
            let per = 1u64 << (m_log - n);
            workload("fig14b", n, per, params.clone(), format!("n{n}/m{m_log}"))
        })
        .collect()
}

/// Figure 16: Connection Machine, one element per processor,
/// `n ∈ {6, 8, …, 14}`.
pub fn fig16() -> Vec<FigureWorkload> {
    (6..=14u32)
        .step_by(2)
        .map(|n| workload("fig16", n, 1, MachineParams::connection_machine(), format!("n{n}")))
        .collect()
}

/// Figure 17: Connection Machine, `2^e` elements per processor for
/// `e ∈ {0, …, 5}`, `n ∈ {8, 10, 12}`.
pub fn fig17() -> Vec<FigureWorkload> {
    [8u32, 10, 12]
        .into_iter()
        .flat_map(|n| (0..=5u32).map(move |e| (n, e)))
        .map(|(n, e_log)| {
            workload(
                "fig17",
                n,
                1 << e_log,
                MachineParams::connection_machine(),
                format!("n{n}/e{e_log}"),
            )
        })
        .collect()
}

/// Figure 18: Connection Machine, fixed `2^m`-element matrices over
/// growing machines: `m ∈ {14, 16, 18}`, `n ∈ {8, …, min(14, m)}`.
pub fn fig18() -> Vec<FigureWorkload> {
    [14u32, 16, 18]
        .into_iter()
        .flat_map(|m| (8..=m.min(14)).step_by(2).map(move |n| (m, n)))
        .map(|(m_log, n)| {
            workload(
                "fig18",
                n,
                1 << (m_log - n),
                MachineParams::connection_machine(),
                format!("m{m_log}/n{n}"),
            )
        })
        .collect()
}

/// The n=16 CI smoke: one Connection-Machine transpose plan at the
/// scale the ROADMAP gated on fast construction (65 536 nodes, one
/// element per processor). Not part of [`FIGURES`] — CI invokes it by
/// name under a time bound (`scripts/ci.sh`).
pub fn n16_smoke() -> Vec<FigureWorkload> {
    vec![workload("n16-smoke", 16, 1, MachineParams::connection_machine(), "n16".into())]
}

/// The Swapped-Dragonfly CI smoke: both Draper planner variants on a
/// `D3(4,8)` (256 nodes, 11 ports per router) — the swap-exchange
/// all-to-all (one element per node pair) and direct routing of the
/// node permutation `x → (x·7 + 3) mod N`. Like [`n16_smoke`], not part
/// of [`FIGURES`]; CI lints it by name (`scripts/ci.sh`).
pub fn dragonfly_smoke() -> Vec<FigureWorkload> {
    let (k, m) = (4u32, 8u32);
    let d = SwappedDragonfly::new(k, m);
    let num = d.num_nodes() as u64;
    let params = MachineParams::intel_ipsc().with_ports(PortMode::AllPorts);
    let sizes: Vec<Vec<u64>> =
        (0..num).map(|s| (0..num).map(|t| u64::from(s != t)).collect()).collect();
    let msgs: Vec<(NodeId, NodeId, u64)> =
        (0..num).map(|x| (NodeId(x), NodeId((x * 7 + 3) % num), 4)).collect();
    vec![
        FigureWorkload {
            name: format!("dragonfly-smoke/swap-exchange/{}", d.label()),
            schedule: dragonfly_swap_exchange_plan_cached(plan_cache(), k, m, &sizes),
            params: params.clone(),
        },
        FigureWorkload {
            name: format!("dragonfly-smoke/direct/{}", d.label()),
            schedule: dragonfly_direct_plan_cached(plan_cache(), k, m, &msgs),
            params,
        },
    ]
}

/// Names of all lintable figures.
pub const FIGURES: [&str; 4] = ["fig14b", "fig16", "fig17", "fig18"];

/// Every name [`figure`] resolves — the figures plus the CI smoke
/// workloads — sorted, for `--list` and unknown-workload diagnostics.
pub fn workload_names() -> Vec<&'static str> {
    let mut names = FIGURES.to_vec();
    names.extend(["n16-smoke", "dragonfly-smoke"]);
    names.sort_unstable();
    names
}

/// The workloads of one figure, by name.
pub fn figure(name: &str) -> Option<Vec<FigureWorkload>> {
    match name {
        "fig14b" => Some(fig14b()),
        "fig16" => Some(fig16()),
        "fig17" => Some(fig17()),
        "fig18" => Some(fig18()),
        "n16-smoke" => Some(n16_smoke()),
        "dragonfly-smoke" => Some(dragonfly_smoke()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_resolves() {
        for name in FIGURES {
            assert!(figure(name).is_some());
            assert!(!figure(name).unwrap().is_empty());
        }
        assert!(figure("fig9").is_none());
        assert_eq!(figure("n16-smoke").unwrap().len(), 1);
        assert_eq!(figure("dragonfly-smoke").unwrap().len(), 2);
    }

    #[test]
    fn dragonfly_smoke_lints_clean() {
        for w in dragonfly_smoke() {
            let low = crate::ir::lower(&w.schedule, &w.params);
            let diags = crate::rules::check_all(&low, &w.params);
            assert!(diags.is_empty(), "{}: {}", w.name, diags[0]);
        }
    }

    #[test]
    fn repeated_figures_share_cached_plans() {
        let a = fig16();
        let b = fig16();
        for (wa, wb) in a.iter().zip(&b) {
            assert!(Arc::ptr_eq(&wa.schedule, &wb.schedule), "{} rebuilt", wa.name);
        }
        assert!(plan_cache().stats().hits >= a.len() as u64);
    }

    #[test]
    fn transpose_msgs_match_the_permutation() {
        let msgs = transpose_msgs(4, 3);
        // n = 4: tr swaps the two halves; fixed points are x with equal
        // halves (4 of 16), so 12 messages.
        assert_eq!(msgs.len(), 12);
        for (src, dst, elems) in msgs {
            assert_eq!(elems, 3);
            assert_ne!(src, dst);
            assert_eq!(tr(src.bits(), 2), dst.bits());
        }
    }
}

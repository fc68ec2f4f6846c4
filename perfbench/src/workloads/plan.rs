//! `cm14-plan-cold` / `cm14-plan-warm`: plan, lint, replay — the
//! flight plan of the 14-cube transpose permutation through the keyed
//! `PlanCache`.
//!
//! * cold: a fresh cache, so the plan is *built* (miss), then lowered,
//!   checked against all five rule families, and replayed. The
//!   lint-then-run path; the cache is written.
//! * warm: the cache was filled in set-up, so the plan is *fetched*
//!   (hit) and replayed. The sweep path; the replay executor dominates.
//!
//! A cheaper hit that costs the build (or the reverse) shows as one of
//! the pair moving each way.

use super::{check_sim_time, push_sim_counts, replay_probe, router, Clock, Scale, Workload};
use crate::metrics::Layers;
use crate::trace::Tracer;
use cubeaddr::NodeId;
use cubecheck::workloads::transpose_msgs;
use cubecheck::{check_all, cross_validate, lower, run_schedule, CommSchedule, Diag, Lowered};
use cubecomm::plan::{ecube_route_plan, ecube_route_plan_cached, CacheStats, PlanCache};
use cubesim::{CommReport, MachineParams};
use cubesync::sync::Arc;

struct Out {
    plan: Arc<CommSchedule>,
    /// Lowering and rule diagnostics (cold only: the warm op skips them).
    lint: Option<(Lowered, Vec<Diag>)>,
    report: CommReport,
    stats: CacheStats,
}

pub struct PlanCase {
    warm: bool,
    n: u32,
    scale: Scale,
    params: MachineParams,
    msgs: Vec<(NodeId, NodeId, u64)>,
    /// The warm workload's cache, filled in set-up.
    cache: Option<PlanCache>,
    #[cfg(test)]
    tamper: Option<fn(&mut Out)>,
}

impl PlanCase {
    pub fn new(scale: Scale, warm: bool) -> Self {
        PlanCase {
            warm,
            n: if scale == Scale::Paper { 14 } else { 6 },
            scale,
            params: MachineParams::connection_machine(),
            msgs: Vec::new(),
            cache: None,
            #[cfg(test)]
            tamper: None,
        }
    }

    fn run(&self) -> Out {
        if self.warm {
            let cache = self.cache.as_ref().expect("setup warms the cache");
            let plan = ecube_route_plan_cached(cache, self.n, &self.msgs);
            let report = run_schedule(&plan, &self.params);
            Out { plan, lint: None, report, stats: cache.stats() }
        } else {
            let cache = PlanCache::new(4);
            let plan = ecube_route_plan_cached(&cache, self.n, &self.msgs);
            let low = lower(&plan, &self.params);
            let diags = check_all(&low, &self.params);
            let report = run_schedule(&plan, &self.params);
            Out { plan, lint: Some((low, diags)), report, stats: cache.stats() }
        }
    }

    fn check(&self, out: &Out) -> Result<(), String> {
        // The warm op skips the lint; lower here, untimed, for the
        // plan/execution cross-validation both ops are checked by.
        let lowered;
        let low = match &out.lint {
            Some((low, diags)) => {
                if let Some(d) = diags.first() {
                    return Err(format!("{} rule violations, first: {d}", diags.len()));
                }
                low
            }
            None => {
                lowered = lower(&out.plan, &self.params);
                &lowered
            }
        };
        if let Some(e) = cross_validate(low, &out.report).first() {
            return Err(format!("replay diverges from the plan: {e}"));
        }
        let s = out.stats;
        if s.misses != 1 || (s.hits == 0) == self.warm {
            return Err(format!("cache saw {} hits / {} misses", s.hits, s.misses));
        }
        check_sim_time(&out.report, (self.scale == Scale::Paper).then_some(router::PINNED_US))
    }
}

impl Workload for PlanCase {
    fn name(&self) -> &'static str {
        if self.warm {
            "cm14-plan-warm"
        } else {
            "cm14-plan-cold"
        }
    }

    fn ops_per_round(&self) -> usize {
        if self.warm {
            30
        } else {
            6
        }
    }

    fn setup(&mut self) {
        self.msgs = transpose_msgs(self.n, 4);
        self.cache = self.warm.then(|| {
            let cache = PlanCache::new(4);
            ecube_route_plan_cached(&cache, self.n, &self.msgs);
            cache
        });
    }

    fn op(&mut self, clock: &mut Clock) -> Result<(), String> {
        #[allow(unused_mut)]
        let mut out = clock.time(|| self.run());
        #[cfg(test)]
        if let Some(tamper) = self.tamper {
            tamper(&mut out);
        }
        self.check(&out)
    }

    fn traced(
        &mut self,
        clock: &mut Clock,
        t: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let mono = clock.time(|| self.run());
        self.check(&mono)?;

        // Both ops decompose over one fresh cache: the first lookup is
        // the miss that builds, the second the hit that fetches. Each
        // workload's `op` span holds only the calls its op makes; the
        // other half is a probe.
        let cache = PlanCache::new(4);
        let (plan, report) = if self.warm {
            t.probe("plan.build", |_| ecube_route_plan_cached(&cache, self.n, &self.msgs));
            t.span("op", |t| {
                let plan =
                    t.span("plan.fetch", |_| ecube_route_plan_cached(&cache, self.n, &self.msgs));
                let report =
                    t.span("cubecheck.run_schedule", |_| run_schedule(&plan, &self.params));
                (plan, report)
            })
        } else {
            let (plan, low, diags, report) = t.span("op", |t| {
                let plan =
                    t.span("plan.build", |_| ecube_route_plan_cached(&cache, self.n, &self.msgs));
                let low = t.span("cubecheck.lower", |_| lower(&plan, &self.params));
                let diags = t.span("cubecheck.check_all", |_| check_all(&low, &self.params));
                let report =
                    t.span("cubecheck.run_schedule", |_| run_schedule(&plan, &self.params));
                (plan, low, diags, report)
            });
            t.probe("plan.fetch", |_| ecube_route_plan_cached(&cache, self.n, &self.msgs));
            layers.push("cubecheck.claims", low.claims.len() as f64);
            layers.push("cubecheck.diags", diags.len() as f64);
            (plan, report)
        };
        if *plan != *mono.plan || report != mono.report {
            return Err("decomposed op differs from the monolithic one".into());
        }
        // The cached plan is byte-identical to an uncached build.
        if *plan != ecube_route_plan(self.n, &self.msgs) {
            return Err("cached plan differs from ecube_route_plan".into());
        }
        push_sim_counts(layers, &report);
        layers.push("plan.msgs", plan.total_messages() as f64);
        let stats = cache.stats();
        layers.push("plan.cache_hits", stats.hits as f64);
        layers.push("plan.cache_misses", stats.misses as f64);
        let history = &report.link_history;
        replay_probe(t, layers, self.n, &self.params, history);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_pass_and_the_oracle_bites() {
        for warm in [false, true] {
            let mut case = PlanCase::new(Scale::Test, warm);
            case.setup();
            let mut clock = Clock::default();
            case.op(&mut clock).unwrap();
            case.op(&mut clock).unwrap();
            // A replay that lost a link activation.
            case.tamper = Some(|out| {
                out.report.link_history[0].pop();
            });
            assert!(case.op(&mut clock).unwrap_err().contains("diverges"), "warm={warm}");
            // A cache that did not behave as the workload says.
            case.tamper = Some(|out| std::mem::swap(&mut out.stats.hits, &mut out.stats.misses));
            assert!(case.op(&mut clock).unwrap_err().contains("cache saw"), "warm={warm}");
        }
    }

    #[test]
    fn a_rule_violation_fails_the_cold_op() {
        let mut case = PlanCase::new(Scale::Test, false);
        case.setup();
        case.tamper = Some(|out| {
            let (low, diags) = out.lint.as_mut().unwrap();
            low.claims[0].elems += 1;
            *diags = check_all(low, &MachineParams::connection_machine());
        });
        assert!(case.op(&mut Clock::default()).unwrap_err().contains("rule violations"));
    }

    #[test]
    fn traced_iterations_split_build_and_fetch() {
        for warm in [false, true] {
            let mut case = PlanCase::new(Scale::Test, warm);
            case.setup();
            let (mut t, mut layers) = (Tracer::new(), Layers::default());
            let from = t.begin_op(case.name());
            case.traced(&mut Clock::default(), &mut t, &mut layers).unwrap();
            t.fold_into(from, &mut layers);
            assert_eq!(layers.samples("plan.cache_hits"), &[1.0]);
            assert_eq!(layers.samples("plan.cache_misses"), &[1.0]);
            assert_eq!(layers.samples("plan.build_ms").len(), 1);
            assert_eq!(layers.samples("plan.fetch_us").len(), 1);
            assert_eq!(layers.samples("cubecheck.check_all_ms").len(), usize::from(!warm));
            assert!(layers.samples("unattributed_ratio")[0] < 0.5);
        }
    }
}

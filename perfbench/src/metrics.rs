//! The metric names this benchmark defines, and the per-layer sample
//! store of the traced pass.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; a unit test keeps the two in step.

use crate::stats::median;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition: name, unit, direction.
pub type MetricDef = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// End-to-end metrics, reported per workload from the untraced main pass
/// (and the memory pass).
pub const END_TO_END: &[MetricDef] =
    &[("wall_ms", "ms", Lower), ("setup_s", "s", Lower), ("peak_rss_mib", "MiB", Lower)];

/// Per-layer metrics, reported per workload from the traced pass. A
/// metric that a workload's path never touches reads 0 on that workload.
pub const PER_LAYER: &[MetricDef] = &[
    ("sim_time_us", "us", Lower),
    ("cubelayout.classify_ms", "ms", Lower),
    ("cubelayout.moves_ms", "ms", Lower),
    ("cubelayout.moves", "count", Lower),
    ("cubelayout.labels_ms", "ms", Lower),
    ("driver.plan_ms", "ms", Lower),
    ("driver.execute_ms", "ms", Lower),
    ("two_dim.engine_ms", "ms", Lower),
    ("two_dim.paths_ms", "ms", Lower),
    ("one_dim.spec_blocks_ms", "ms", Lower),
    ("one_dim.assemble_ms", "ms", Lower),
    ("exchange.engine_ms", "ms", Lower),
    ("exchange.blocks", "count", Lower),
    ("cubesim.replay_ms", "ms", Lower),
    ("cubesim.ns_per_msg", "ns", Lower),
    ("cubesim.msgs", "count", Lower),
    ("cubesim.elems", "count", Lower),
    ("cubesim.rounds", "count", Lower),
    ("cubesim.startups", "count", Lower),
    ("cubesim.max_link_elems", "count", Lower),
    ("local.blocked_ms", "ms", Lower),
    ("inplace.transpose_ms", "ms", Lower),
    ("inplace.gb_per_s", "GB/s", Higher),
    ("inplace.scratch_elems", "count", Lower),
    ("fieldmap.exchange_rv_ms", "ms", Lower),
    ("fieldmap.permute_virt_ms", "ms", Lower),
    ("fieldmap.pool_elems", "count", Lower),
    ("plan.build_ms", "ms", Lower),
    ("plan.fetch_us", "us", Lower),
    ("plan.msgs", "count", Lower),
    ("plan.cache_hits", "count", Higher),
    ("plan.cache_misses", "count", Lower),
    ("cubecheck.lower_ms", "ms", Lower),
    ("cubecheck.check_all_ms", "ms", Lower),
    ("cubecheck.run_schedule_ms", "ms", Lower),
    ("cubecheck.claims", "count", Lower),
    ("cubecheck.diags", "count", Lower),
    ("ecube.route_ms", "ms", Lower),
    ("graph.route_ms", "ms", Lower),
    ("ecube.hops", "count", Lower),
    ("ecube.ns_per_hop", "ns", Lower),
    ("ecube.rounds", "count", Lower),
    ("cuberun.run_w1_ms", "ms", Lower),
    ("cuberun.run_wT_ms", "ms", Lower),
    ("cuberun.scaling_eff", "ratio", Higher),
    ("cuberun.spawn_ms", "ms", Lower),
    ("cuberun.ns_per_msg", "ns", Lower),
    ("cuberun.messages", "count", Lower),
    ("cuberun.parks", "count", Lower),
    ("cuberun.wakes", "count", Lower),
    ("cuberun.steals", "count", Lower),
    ("cuberun.peak_live", "count", Lower),
    ("cubemodel.time_us", "us", Lower),
    ("cubemodel.gap_ratio", "ratio", Lower),
    ("verify.assert_ms", "ms", Lower),
    ("unattributed_ratio", "ratio", Lower),
    ("trace_overhead_ratio", "ratio", Lower),
    ("first_op_ms", "ms", Lower),
    ("yardstick_ms", "ms", Lower),
];

/// The metrics that must repeat to the bit between two traced passes:
/// the only numbers a later change may rest a count claim on.
/// (`--check-counts` enforces it.)
pub const EXACT: &[&str] = &[
    "sim_time_us",
    "cubelayout.moves",
    "exchange.blocks",
    "cubesim.msgs",
    "cubesim.elems",
    "cubesim.rounds",
    "cubesim.startups",
    "cubesim.max_link_elems",
    "plan.msgs",
    "cubecheck.claims",
    "ecube.hops",
    "ecube.rounds",
    "cuberun.messages",
];

/// The unit of a per-layer metric; panics on a name this file does not
/// define, so a typo in a workload fails its first test.
fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric of this benchmark"))
        .1
}

/// Per-layer samples of one workload: every traced iteration pushes one
/// value per metric it measures; the reported value is the median.
#[derive(Default, Debug)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Records one sample of the per-layer metric `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        layer_unit(name);
        self.samples.entry(name).or_default().push(value);
    }

    /// Records a span duration under the metric named after the span:
    /// `<span>_ms`, or `<span>_us` where the table defines that instead.
    /// Spans without a metric (harness glue such as `cubesim.new`) only
    /// appear in the trace file.
    pub fn push_span(&mut self, span: &str, dur_us: f64) {
        for (name, unit, _) in PER_LAYER {
            let Some(stem) = name.strip_suffix("_ms").or_else(|| name.strip_suffix("_us")) else {
                continue;
            };
            if stem == span {
                let value = if *unit == "ms" { dur_us / 1e3 } else { dur_us };
                self.samples.entry(name).or_default().push(value);
                return;
            }
        }
    }

    /// All samples of one metric (empty if never measured).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The reported value of every per-layer metric, in table order:
    /// the median of its samples, 0 where the workload never measured it.
    pub fn values(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let s = self.samples(name);
                (name, unit, if s.is_empty() { 0.0 } else { median(s) })
            })
            .collect()
    }

    /// Names from [`EXACT`] whose samples differ within this pass or
    /// from `other`'s (bit comparison).
    pub fn exact_mismatches(&self, other: &Layers) -> Vec<String> {
        let mut bad = Vec::new();
        for name in EXACT {
            let (a, b) = (self.samples(name), other.samples(name));
            let first = a.first().or(b.first()).map(|v| v.to_bits());
            if a.is_empty() != b.is_empty() || a.iter().chain(b).any(|v| Some(v.to_bits()) != first)
            {
                bad.push(format!("{name}: {a:?} vs {b:?}"));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_land_on_their_metric() {
        let mut l = Layers::default();
        l.push_span("driver.plan", 1500.0);
        l.push_span("plan.fetch", 250.0);
        l.push_span("cubesim.new", 9.0);
        assert_eq!(l.samples("driver.plan_ms"), &[1.5]);
        assert_eq!(l.samples("plan.fetch_us"), &[250.0]);
        assert_eq!(l.values().iter().filter(|v| v.2 != 0.0).count(), 2);
    }

    #[test]
    fn exact_metrics_must_repeat() {
        let (mut a, mut b) = (Layers::default(), Layers::default());
        a.push("cubesim.msgs", 192.0);
        b.push("cubesim.msgs", 192.0);
        assert!(a.exact_mismatches(&b).is_empty());
        b.push("cubesim.msgs", 193.0);
        assert_eq!(a.exact_mismatches(&b).len(), 1);
        let c = Layers::default();
        assert_eq!(a.exact_mismatches(&c).len(), 1);
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn unknown_names_are_refused() {
        Layers::default().push("cubesim.mesages", 1.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} defined twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in EXACT {
            layer_unit(name);
        }
    }
}

//! In-memory spans recorded by the harness around its calls into each
//! layer, written out as Chrome-trace JSON when the benchmark ends.
//!
//! A *span* is a call on the decomposed op's path; a *probe* is a
//! layer's public function re-run on the same inputs beside an opaque
//! parent, giving an estimated share that is never subtracted from the
//! parent. Spans of one traced iteration share an `op_id`.

use crate::json::Json;
use crate::metrics::Layers;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    pub op_id: u32,
    pub probe: bool,
    /// Name of the workload being traced.
    pub workload: &'static str,
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u32,
    workload: &'static str,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
            workload: "",
        }
    }

    /// Starts a new traced iteration of `workload`; returns the index of
    /// its first span. Closes anything a caught panic left open.
    pub fn begin_op(&mut self, workload: &'static str) -> usize {
        self.open.clear();
        self.op_id += 1;
        self.workload = workload;
        self.spans.len()
    }

    /// Times `f` as a span on the op's path.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.record(name, false, f)
    }

    /// Times `f` as a probe (see the module docs).
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.record(name, true, f)
    }

    fn record<R>(
        &mut self,
        name: &'static str,
        probe: bool,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent: self.open.last().copied(),
            op_id: self.op_id,
            probe,
            workload: self.workload,
        });
        self.open.push(index);
        let start = Instant::now();
        let result = f(self);
        self.spans[index].dur_us = start.elapsed().as_secs_f64() * 1e6;
        self.open.pop();
        result
    }

    /// Duration in ms of the latest span called `name` (0 if none).
    pub fn last_ms(&self, name: &str) -> f64 {
        self.spans.iter().rev().find(|s| s.name == name).map_or(0.0, |s| s.dur_us / 1e3)
    }

    /// Folds the spans recorded since `from` into `layers`: one sample
    /// per span name (same-named spans of one iteration add up), plus
    /// `unattributed_ratio` = (op − Σ its direct non-probe children) / op
    /// for the iteration's `op` span.
    pub fn fold_into(&self, from: usize, layers: &mut Layers) {
        let spans = &self.spans[from..];
        let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let total: f64 = spans.iter().filter(|s| s.name == name).map(|s| s.dur_us).sum();
            layers.push_span(name, total);
        }
        if let Some(op) = spans.iter().position(|s| s.name == "op") {
            let covered: f64 = spans
                .iter()
                .filter(|s| s.parent == Some(from + op) && !s.probe)
                .map(|s| s.dur_us)
                .sum();
            let dur = spans[op].dur_us;
            layers.push("unattributed_ratio", (dur - covered) / dur);
        }
    }

    /// The Chrome-trace document (`chrome://tracing`, Perfetto): one
    /// complete event per span, one track per traced iteration.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(if s.probe { "probe" } else { "span" })),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.dur_us)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.op_id))),
                    (
                        "args",
                        Json::obj([
                            ("workload", Json::str(s.workload)),
                            ("op_id", Json::Num(f64::from(s.op_id))),
                            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_fold() {
        let mut t = Tracer::new();
        let from = t.begin_op("w");
        t.span("op", |t| {
            t.span("driver.plan", |_| std::hint::black_box(0));
            t.probe("cubelayout.classify", |_| ());
            t.span("driver.plan", |_| ());
        });
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[2].probe && t.spans[0].parent.is_none());
        let mut layers = Layers::default();
        t.fold_into(from, &mut layers);
        // Two same-named spans make one sample; the probe does not count
        // as covered time.
        assert_eq!(layers.samples("driver.plan_ms").len(), 1);
        assert_eq!(layers.samples("cubelayout.classify_ms").len(), 1);
        let un = layers.samples("unattributed_ratio")[0];
        assert!((0.0..=1.0).contains(&un), "{un}");
        let doc = t.chrome_trace().to_string();
        assert!(doc.contains("\"traceEvents\"") && doc.contains("\"probe\""));
    }
}

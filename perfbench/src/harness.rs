//! The passes: untraced main pass (end-to-end metrics), memory pass
//! (peak RSS of a child running one workload alone), traced pass
//! (per-layer metrics).
//!
//! Load model: closed loop, one client, one op in flight; the only
//! parallelism is inside the op, pinned by `main` to `T` workers.
//! Workloads run round-robin — every round visits every workload, in an
//! order shuffled by the seed — because this class of machine drifts by
//! tens of percent over stretches of ~30 s, and interleaving spreads a
//! slow stretch over all workloads instead of charging it to one.

use crate::metrics::Layers;
use crate::stats::SplitMix64;
use crate::trace::Tracer;
use crate::workloads::{Clock, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::time::{Duration, Instant};

/// When a pass stops: after a fixed number of rounds, or at a deadline
/// (always after at least one full round).
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Rounds(usize),
    Until(Instant),
}

impl Budget {
    /// Whether to begin more work, given the rounds completed so far
    /// and how long the next piece is expected to take.
    fn allows(self, rounds_done: usize, next: Duration) -> bool {
        match self {
            Budget::Rounds(r) => rounds_done < r,
            Budget::Until(deadline) => rounds_done == 0 || Instant::now() + next <= deadline,
        }
    }
}

/// A fixed memory-bound kernel — strided read-modify-write passes over
/// 32 MiB — run between workloads. It normalises nothing; its spread
/// tells the reader how noisy the machine was during the run.
pub struct Yardstick {
    buf: Vec<u64>,
    pub samples_ms: Vec<f64>,
}

impl Yardstick {
    const ELEMS: usize = 32 << 17;
    const STRIDE: usize = 16;

    pub fn new() -> Self {
        Yardstick { buf: (0..Self::ELEMS as u64).collect(), samples_ms: Vec::new() }
    }

    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for lane in 0..Self::STRIDE {
            for i in (lane..Self::ELEMS).step_by(Self::STRIDE) {
                acc = acc.wrapping_add(self.buf[i]);
                self.buf[i] = acc;
            }
        }
        std::hint::black_box(acc);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }
}

/// Runs `f`, turning a panic into the failed op it is.
fn guarded(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        Err(format!("panicked: {msg}"))
    })
}

/// Op accounting shared by both passes.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure's message, for the report.
    pub first_error: Option<String>,
}

impl Tally {
    fn record(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(e) = &result {
            self.failed += 1;
            self.first_error.get_or_insert_with(|| e.clone());
        }
        result.is_ok()
    }
}

/// Main-pass samples of one workload.
#[derive(Default, Debug)]
pub struct EndToEnd {
    /// Host wall time of each successful op.
    pub wall_ms: Vec<f64>,
    /// Input construction time of each round.
    pub setup_s: Vec<f64>,
    pub tally: Tally,
}

/// Set-ups timed per round: as many as start within `SETUP_SLICE`, at
/// most `SETUP_REPEATS`, at least one.
const SETUP_REPEATS: usize = 4;
const SETUP_SLICE: Duration = Duration::from_millis(50);

/// The untraced main pass over `workloads`.
pub fn main_pass(
    workloads: &mut [Box<dyn Workload>],
    seed: u64,
    budget: Budget,
    yardstick: &mut Yardstick,
) -> Vec<EndToEnd> {
    let mut results: Vec<EndToEnd> = workloads.iter().map(|_| EndToEnd::default()).collect();
    let mut rng = SplitMix64(seed);
    let mut clock = Clock::default();
    let mut rounds = 0;
    // Stop between ops, not only between rounds, so a run overshoots
    // its deadline by at most one op.
    let mut next = Duration::ZERO;
    while budget.allows(rounds, next) {
        for i in rng.shuffled(workloads.len()) {
            if !budget.allows(rounds, next) {
                break;
            }
            let (w, r) = (&mut workloads[i], &mut results[i]);
            yardstick.sample();
            // Cheap set-ups are timed several times a round: a set-up of
            // a few ms would otherwise get a handful of samples a run.
            let setups = Instant::now();
            for repeat in 0..SETUP_REPEATS {
                if repeat > 0 && setups.elapsed() >= SETUP_SLICE {
                    break;
                }
                let start = Instant::now();
                w.setup();
                r.setup_s.push(start.elapsed().as_secs_f64());
            }
            for _ in 0..w.ops_per_round() {
                if !budget.allows(rounds, next) {
                    break;
                }
                let start = Instant::now();
                if r.tally.record(guarded(|| w.op(&mut clock))) {
                    r.wall_ms.push(clock.last_ms);
                }
                next = start.elapsed();
            }
        }
        rounds += 1;
    }
    results
}

/// Arguments that make this executable run the memory pass's child.
pub const RSS_CHILD_FLAG: &str = "--rss-child";

/// The memory pass: `VmHWM` of a child process that runs two ops of one
/// workload alone, each on freshly built inputs — no other workload, no
/// yardstick buffer, no trace and no kept output in its address space.
pub fn memory_pass(workload: &str, threads: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // `output` waits for the child to end.
    let out = Command::new(exe)
        .args([RSS_CHILD_FLAG, workload, "--threads", &threads.to_string()])
        .output()
        .map_err(|e| format!("cannot start the memory-pass child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().and_then(|l| l.trim().parse::<f64>().ok()) {
        Some(mib) if out.status.success() => Ok(mib),
        _ => Err(format!(
            "memory-pass child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Body of the memory pass's child.
pub fn rss_child(w: &mut dyn Workload) -> Result<f64, String> {
    let mut clock = Clock::default();
    for _ in 0..2 {
        w.setup();
        guarded(|| w.op(&mut clock))?;
    }
    crate::host::peak_rss_mib()
}

/// Traced-pass results of one workload.
#[derive(Default, Debug)]
pub struct Traced {
    pub layers: Layers,
    pub tally: Tally,
}

/// The traced pass: per iteration and workload, fresh inputs, then the
/// workload's `traced` (monolithic op, decomposed op under spans, output
/// comparison, layer probes). Spans accumulate in `tracer`.
pub fn traced_pass(
    workloads: &mut [Box<dyn Workload>],
    seed: u64,
    budget: Budget,
    yardstick: &mut Yardstick,
    tracer: &mut Tracer,
) -> Vec<Traced> {
    let mut results: Vec<Traced> = workloads.iter().map(|_| Traced::default()).collect();
    let mut rng = SplitMix64(seed);
    let mut clock = Clock::default();
    let mut rounds = 0;
    let mut next = Duration::ZERO;
    while budget.allows(rounds, next) {
        let start = Instant::now();
        for i in rng.shuffled(workloads.len()) {
            let (w, r) = (&mut workloads[i], &mut results[i]);
            r.layers.push("yardstick_ms", yardstick.sample());
            w.setup();
            let from = tracer.begin_op(w.name());
            if r.tally.record(guarded(|| w.traced(&mut clock, tracer, &mut r.layers))) {
                tracer.fold_into(from, &mut r.layers);
                let mono_ms = clock.last_ms;
                if rounds == 0 {
                    r.layers.push("first_op_ms", mono_ms);
                }
                r.layers.push("trace_overhead_ratio", tracer.last_ms("op") / mono_ms - 1.0);
            }
        }
        // Iterations are long (every probe runs): start another only if
        // one more fits before the deadline.
        next = start.elapsed();
        rounds += 1;
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{all, Scale};

    /// A workload whose every second op fails, one by `Err` and one by
    /// panic.
    struct Flaky(u32);

    impl Workload for Flaky {
        fn name(&self) -> &'static str {
            "flaky"
        }
        fn ops_per_round(&self) -> usize {
            4
        }
        fn setup(&mut self) {}
        fn op(&mut self, clock: &mut Clock) -> Result<(), String> {
            self.0 += 1;
            clock.time(|| ());
            match self.0 % 4 {
                1 => Err("wrong output".into()),
                3 => panic!("engine blew up"),
                _ => Ok(()),
            }
        }
        fn traced(&mut self, _: &mut Clock, _: &mut Tracer, _: &mut Layers) -> Result<(), String> {
            Err("never decomposes".into())
        }
    }

    #[test]
    fn failed_and_panicking_ops_are_counted_not_timed() {
        let mut ws: Vec<Box<dyn Workload>> = vec![Box::new(Flaky(0))];
        let mut yard = Yardstick::new();
        let e2e = main_pass(&mut ws, 1, Budget::Rounds(2), &mut yard);
        assert_eq!((e2e[0].tally.attempted, e2e[0].tally.failed), (8, 4));
        assert_eq!(e2e[0].wall_ms.len(), 4);
        assert_eq!(e2e[0].setup_s.len(), 2 * SETUP_REPEATS);
        assert_eq!(e2e[0].tally.first_error.as_deref(), Some("wrong output"));
        let traced = traced_pass(&mut ws, 1, Budget::Rounds(1), &mut yard, &mut Tracer::new());
        assert_eq!((traced[0].tally.attempted, traced[0].tally.failed), (1, 1));
        assert_eq!(yard.samples_ms.len(), 3);
    }

    #[test]
    fn a_deadline_budget_still_runs_one_round() {
        let mut ws: Vec<Box<dyn Workload>> = vec![Box::new(Flaky(0))];
        let past = Budget::Until(Instant::now());
        let e2e = main_pass(&mut ws, 1, past, &mut Yardstick::new());
        assert_eq!(e2e[0].setup_s.len(), SETUP_REPEATS);
        assert!(e2e[0].tally.attempted >= 1);
    }

    /// Every workload at reduced size: one main-pass round and one
    /// decomposed op, no failures, exact metrics repeatable.
    #[test]
    fn every_workload_runs_both_passes_at_test_scale() {
        let mut ws = all(Scale::Test);
        let mut yard = Yardstick::new();
        let e2e = main_pass(&mut ws, 3, Budget::Rounds(1), &mut yard);
        for (w, r) in ws.iter().zip(&e2e) {
            assert_eq!(r.tally.failed, 0, "{}: {:?}", w.name(), r.tally.first_error);
            assert_eq!(r.tally.attempted as usize, w.ops_per_round(), "{}", w.name());
            assert_eq!(r.wall_ms.len(), w.ops_per_round());
        }
        let mut tracer = Tracer::new();
        let a = traced_pass(&mut ws, 3, Budget::Rounds(1), &mut yard, &mut tracer);
        let b = traced_pass(&mut ws, 4, Budget::Rounds(1), &mut yard, &mut tracer);
        for ((w, a), b) in ws.iter().zip(&a).zip(&b) {
            assert_eq!(a.tally.failed, 0, "{}: {:?}", w.name(), a.tally.first_error);
            assert_eq!(a.layers.exact_mismatches(&b.layers), Vec::<String>::new(), "{}", w.name());
            assert_eq!(a.layers.samples("unattributed_ratio").len(), 1, "{}", w.name());
            assert_eq!(a.layers.samples("first_op_ms").len(), 1, "{}", w.name());
        }
    }
}

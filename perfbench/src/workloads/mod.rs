//! The eight workloads: what one *op* is, how its inputs are built, how
//! its output is checked, and how the same path decomposes into layer
//! calls for the traced pass.
//!
//! Every workload is one of the paper's configurations (iPSC n = 6, the
//! Connection Machine at n = 16, or n = 14 where the n = 16 object does
//! not fit the time cap), so inputs are fixed; `Scale::Test` shrinks
//! them to n ≤ 8 for the unit tests.

mod convert;
mod driver;
mod plan;
mod router;
mod spmd;

use crate::metrics::Layers;
use crate::trace::Tracer;
use cubeaddr::NodeId;
use cubelayout::dist::check_transposed_labels;
use cubelayout::{DistMatrix, Layout};
use cubesim::{CommReport, LinkEvent, MachineParams, SimNet};
use std::time::Instant;

/// Input size: the paper's configurations, or the reduced ones the
/// unit tests run in debug builds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Paper,
    #[cfg_attr(not(test), allow(dead_code))]
    Test,
}

/// Times the op's region and nothing else: a workload brackets exactly
/// the call sequence the issue names as its op; building inputs before
/// and checking outputs after stay outside.
#[derive(Default)]
pub struct Clock {
    pub last_ms: f64,
}

impl Clock {
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = std::hint::black_box(f());
        self.last_ms = start.elapsed().as_secs_f64() * 1e3;
        result
    }
}

/// One benchmark workload. Closed loop, one op in flight; the harness
/// calls `setup` once per round (timed as `setup_s`), then `op`
/// `ops_per_round` times.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// Ops per round of the main pass — more for cheap ops, so every
    /// workload collects samples at a similar rate.
    fn ops_per_round(&self) -> usize;

    /// Builds the op's inputs from scratch.
    fn setup(&mut self);

    /// Runs one op inside `clock`, then checks its output untimed.
    /// `Err` (or a panic, which the harness catches) is a failed op.
    fn op(&mut self, clock: &mut Clock) -> Result<(), String>;

    /// One traced iteration: the monolithic op (timed with `clock`, for
    /// reference), the same path re-composed from public layer functions
    /// under a span called `op`, the check that both produce the same
    /// output, and the layer probes. Counts go to `layers` directly;
    /// span durations are folded in by the harness.
    fn traced(
        &mut self,
        clock: &mut Clock,
        t: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<(), String>;
}

/// Every workload, in the order reports list them.
pub fn all(scale: Scale) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(driver::DriverCase::ipsc6_2d_spt(scale)),
        Box::new(driver::DriverCase::ipsc6_1d_exchange(scale)),
        Box::new(driver::DriverCase::cm16_2d_mpt(scale)),
        Box::new(spmd::SpmdCase::new(scale)),
        Box::new(convert::ConvertCase::new(scale)),
        Box::new(router::RouterCase::new(scale)),
        Box::new(plan::PlanCase::new(scale, false)),
        Box::new(plan::PlanCase::new(scale, true)),
    ]
}

/// Inputs of the label-matrix transposes: the two layouts and the
/// label matrix (`verify::labels`) laid out by the first.
struct LabelInputs {
    before: Layout,
    after: Layout,
    matrix: DistMatrix<u64>,
}

impl LabelInputs {
    fn new(before: Layout, after: Layout) -> Self {
        let matrix = cubetranspose::verify::labels(before.clone());
        LabelInputs { before, after, matrix }
    }
}

/// The `cubelayout` / `verify` probes every label-matrix transpose
/// shares: classification, move enumeration, label construction, and
/// the output assertion on `out`.
fn layout_probes(t: &mut Tracer, layers: &mut Layers, i: &LabelInputs, out: &DistMatrix<u64>) {
    let spec = cubelayout::TransposeSpec::with_after(i.before.clone(), i.after.clone());
    t.probe("cubelayout.classify", |_| spec.classify());
    let moves = t.probe("cubelayout.moves", |_| spec.moves().count());
    layers.push("cubelayout.moves", moves as f64);
    t.probe("cubelayout.labels", |_| cubetranspose::verify::labels(i.before.clone()));
    t.probe("verify.assert", |_| cubetranspose::verify::assert_transposed(&i.before, out));
}

/// Output check of the label-matrix workloads. The first output after
/// each set-up is checked element by element against the label rule
/// (`a^T(v, u)` holds `(u << q) | v`) and kept; later outputs of the
/// round must equal it bit for bit — the same verdict at a fraction of
/// the untimed cost, which leaves more of a run for timed ops.
#[derive(Default)]
struct LabelOracle {
    verified: Option<DistMatrix<u64>>,
}

impl LabelOracle {
    /// Forgets the kept output (set-up calls this: no output outlives
    /// the inputs it was computed from).
    fn reset(&mut self) {
        self.verified = None;
    }

    fn check(&mut self, before: &Layout, out: &DistMatrix<u64>) -> Result<(), String> {
        if self.verified.as_ref() == Some(out) {
            return Ok(());
        }
        match check_transposed_labels(before, out) {
            Some((u, v, found)) => Err(format!("a^T({v}, {u}) holds label {found}")),
            None => {
                self.verified = Some(out.clone());
                Ok(())
            }
        }
    }
}

/// Fails unless the simulated time is the pinned one. A change meant to
/// speed up the host program must leave every simulated statistic
/// identical; this is what turns a drift into a failed op.
fn check_sim_time(report: &CommReport, pinned_us: Option<f64>) -> Result<(), String> {
    match pinned_us {
        Some(us) if (report.time * 1e6 - us).abs() > us * 1e-9 => {
            Err(format!("simulated time {} us, pinned {us} us", report.time * 1e6))
        }
        _ => Ok(()),
    }
}

/// Pushes the simulator's own accounting of one op.
fn push_sim_counts(layers: &mut Layers, report: &CommReport) {
    layers.push("sim_time_us", report.time * 1e6);
    layers.push("cubesim.msgs", report.total_messages as f64);
    layers.push("cubesim.elems", report.total_elems as f64);
    layers.push("cubesim.rounds", report.rounds as f64);
    layers.push("cubesim.startups", report.critical_startups as f64);
    layers.push("cubesim.max_link_elems", report.max_link_elems as f64);
}

/// `cubesim.replay`: the op's recorded link traffic (same rounds,
/// sources, dimensions and sizes) pushed through a bare `SimNet` with
/// `send` / `finish_round` / `recv` — the simulator's share of the op,
/// without the engine that decided the traffic. Payloads are allocated
/// before the clock starts.
fn replay_probe(
    t: &mut Tracer,
    layers: &mut Layers,
    n: u32,
    params: &MachineParams,
    history: &[Vec<LinkEvent>],
) {
    let mut payloads: Vec<Vec<Vec<u64>>> = history
        .iter()
        .map(|round| round.iter().map(|e| vec![0u64; e.elems as usize]).collect())
        .collect();
    let msgs: usize = history.iter().map(Vec::len).sum();
    t.probe("cubesim.replay", |_| {
        let mut net: SimNet<Vec<u64>> = SimNet::new(n, params.clone());
        for (round, data) in history.iter().zip(&mut payloads) {
            for (e, payload) in round.iter().zip(data.drain(..)) {
                net.send(NodeId(e.src), e.dim, payload);
            }
            net.finish_round();
            for e in round {
                std::hint::black_box(net.recv(NodeId(e.src).neighbor(e.dim), e.dim));
            }
        }
        net.finalize()
    });
    if msgs > 0 {
        layers.push("cubesim.ns_per_msg", t.last_ms("cubesim.replay") * 1e6 / msgs as f64);
    }
}

/// `local.blocked` / `inplace.transpose`: both local transpose kernels
/// on every node block of `matrix` (its layout's local shape).
fn local_kernel_probes(t: &mut Tracer, layers: &mut Layers, matrix: &DistMatrix<u64>) {
    let layout = matrix.layout();
    let (nodes, rows, cols) = (layout.num_nodes(), layout.local_rows(), layout.local_cols());
    let mut out = Vec::new();
    t.probe("local.blocked", |_| {
        for x in 0..nodes as u64 {
            let block = matrix.node(NodeId(x));
            cubetranspose::local::transpose_flat_blocked_into(block, rows, cols, 64, &mut out);
            std::hint::black_box(&out);
        }
    });
    let mut scratch = matrix.clone().into_buffers();
    t.probe("inplace.transpose", |_| {
        for block in &mut scratch {
            cubetranspose::inplace::transpose(block, rows, cols);
        }
    });
    // Computed bytes (each element read once and written once), not
    // measured memory traffic.
    let bytes = 2.0 * 8.0 * (nodes * rows * cols) as f64;
    layers.push("inplace.gb_per_s", bytes / (t.last_ms("inplace.transpose") * 1e6));
    layers.push("inplace.scratch_elems", cubetranspose::inplace::scratch_elems(rows, cols) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_issue() {
        let names: Vec<_> = all(Scale::Test).iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "ipsc6-2d-spt",
                "ipsc6-1d-exchange",
                "cm16-2d-mpt",
                "cm16-spmd-exchange",
                "ipsc6-convert-alg2",
                "cm14-router",
                "cm14-plan-cold",
                "cm14-plan-warm"
            ]
        );
    }
}

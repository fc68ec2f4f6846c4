//! `cm16-spmd-exchange`: the exchange transpose as a real SPMD program
//! on the `cuberun` scheduler at the paper's Connection Machine size —
//! 65 536 live async contexts, 1 048 576 real messages. Bypasses
//! `cubesim` and `cubecomm` entirely: a simulator change must not move
//! it. No cost model, so no simulated time.

use super::{layout_probes, Clock, LabelInputs, LabelOracle, Scale, Workload};
use crate::metrics::Layers;
use crate::trace::Tracer;
use cubelayout::{Assignment, DistMatrix, Encoding, Layout};
use cuberun::RunStats;
use cubetranspose::spmd::spmd_transpose_exchange;

type Out = (DistMatrix<u64>, RunStats);

pub struct SpmdCase {
    scale: Scale,
    inputs: Option<LabelInputs>,
    oracle: LabelOracle,
    #[cfg(test)]
    pub tamper: Option<fn(&mut Out)>,
}

impl SpmdCase {
    pub fn new(scale: Scale) -> Self {
        SpmdCase {
            scale,
            inputs: None,
            oracle: LabelOracle::default(),
            #[cfg(test)]
            tamper: None,
        }
    }

    fn inputs(&self) -> &LabelInputs {
        self.inputs.as_ref().expect("setup runs before the first op")
    }

    /// Runs under the harness's ambient `cuberun::with_workers(T)`.
    fn run(&self) -> Out {
        let i = self.inputs();
        spmd_transpose_exchange(&i.matrix, &i.after)
    }

    fn check(&mut self, (out, stats): &Out) -> Result<(), String> {
        let i = self.inputs.as_ref().expect("setup runs before the first op");
        self.oracle.check(&i.before, out)?;
        // Every node exchanges once per dimension: 2^n · n messages.
        let expected = i.after.num_nodes() as u64 * u64::from(i.after.n());
        if stats.messages != expected {
            return Err(format!("{} messages, expected {expected}", stats.messages));
        }
        Ok(())
    }
}

impl Workload for SpmdCase {
    fn name(&self) -> &'static str {
        "cm16-spmd-exchange"
    }

    fn ops_per_round(&self) -> usize {
        2
    }

    fn setup(&mut self) {
        let p = if self.scale == Scale::Paper { 8 } else { 4 };
        let before = Layout::square(p, p, p, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        self.oracle.reset();
        self.inputs = Some(LabelInputs::new(before, after));
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
        // The runtime is opaque from outside: the op is one span.
        let (out, stats) = t.span("op", |t| t.span("cuberun.run_wT", |_| self.run()));
        if out != mono.0 || stats.messages != mono.1.messages {
            return Err("two runs of the SPMD program differ".into());
        }
        let workers = cuberun::num_workers();
        let (out1, _) = t.probe("cuberun.run_w1", |_| cuberun::with_workers(1, || self.run()));
        if out1 != out {
            return Err("the one-worker run differs".into());
        }
        let n = self.inputs().after.n();
        t.probe("cuberun.spawn", |_| {
            cuberun::run_spmd::<u8, _, _, _>(n, |ctx| async move { ctx.id().bits() })
        });

        let (w1, wt) = (t.last_ms("cuberun.run_w1"), t.last_ms("cuberun.run_wT"));
        layers.push("cuberun.scaling_eff", w1 / (workers as f64 * wt));
        layers.push("cuberun.ns_per_msg", wt * 1e6 / stats.messages as f64);
        layers.push("cuberun.messages", stats.messages as f64);
        layers.push("cuberun.parks", stats.parks as f64);
        layers.push("cuberun.wakes", stats.wakes as f64);
        layers.push("cuberun.steals", stats.steals.iter().sum::<u64>() as f64);
        layers.push("cuberun.peak_live", f64::from(stats.peak_live));

        layout_probes(t, layers, self.inputs(), &out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubeaddr::NodeId;

    #[test]
    fn op_passes_and_the_oracle_bites() {
        let mut case = SpmdCase::new(Scale::Test);
        case.setup();
        let mut clock = Clock::default();
        case.op(&mut clock).unwrap();
        case.tamper = Some(|(out, _)| out.node_mut(NodeId(3))[0] ^= 1);
        assert!(case.op(&mut clock).unwrap_err().contains("holds label"));
        case.tamper = Some(|(_, stats)| stats.messages -= 1);
        assert!(case.op(&mut clock).unwrap_err().contains("messages"));
    }

    #[test]
    fn traced_iteration_fills_the_scheduler_metrics() {
        let mut case = SpmdCase::new(Scale::Test);
        case.setup();
        let (mut t, mut layers) = (Tracer::new(), Layers::default());
        let from = t.begin_op(case.name());
        case.traced(&mut Clock::default(), &mut t, &mut layers).unwrap();
        t.fold_into(from, &mut layers);
        assert_eq!(layers.samples("cuberun.messages"), &[256.0 * 8.0]);
        for name in ["cuberun.run_w1_ms", "cuberun.run_wT_ms", "cuberun.spawn_ms"] {
            assert_eq!(layers.samples(name).len(), 1, "{name}");
        }
        assert!(layers.samples("sim_time_us").is_empty());
    }
}

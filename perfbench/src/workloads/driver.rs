//! The three `driver::execute` workloads: layout in, verified transposed
//! `DistMatrix` out, through the algorithm the driver picks.

use super::{
    check_sim_time, layout_probes, local_kernel_probes, push_sim_counts, replay_probe, Clock,
    LabelInputs, LabelOracle, Scale, Workload,
};
use crate::metrics::Layers;
use crate::trace::Tracer;
use cubeaddr::NodeId;
use cubecomm::exchange::exchange_over_dims;
use cubecomm::{Block, BlockMsg, BufferPolicy};
use cubelayout::{Assignment, Direction, DistMatrix, Encoding, Layout, TransposeSpec};
use cubesim::{CommReport, MachineParams, PortMode, SimNet};
use cubetranspose::driver::{self, Choice};
use cubetranspose::one_dim::{assemble, spec_blocks, Routed};
use cubetranspose::two_dim::{
    h_of, mpt_path, spt_path, transpose_mpt, transpose_spt_stepwise, Packet,
};

type Out = (DistMatrix<u64>, Choice, CommReport);

pub struct DriverCase {
    name: &'static str,
    ops: usize,
    params: MachineParams,
    layouts: fn(Scale) -> (Layout, Layout),
    scale: Scale,
    /// The algorithm `driver::plan` must pick for this configuration.
    expect: Choice,
    /// The paper's closed form for that algorithm, and whether the
    /// simulation must match it exactly.
    model: fn(u64, u32, &MachineParams) -> f64,
    model_exact: bool,
    /// Simulated time of the paper-scale op.
    pinned_us: f64,
    inputs: Option<LabelInputs>,
    oracle: LabelOracle,
    #[cfg(test)]
    pub tamper: Option<fn(&mut Out)>,
}

impl DriverCase {
    /// Paper §8.2 / Figs. 13-14a: 1024×1024 on the iPSC 6-cube, square
    /// consecutive partitioning → step-by-step SPT. Few huge messages.
    pub fn ipsc6_2d_spt(scale: Scale) -> Self {
        DriverCase {
            name: "ipsc6-2d-spt",
            ops: 3,
            params: MachineParams::intel_ipsc(),
            layouts: |scale| {
                let (p, half) = if scale == Scale::Paper { (10, 3) } else { (6, 2) };
                let before = Layout::square(p, p, half, Assignment::Consecutive, Encoding::Binary);
                let after = before.swapped_shape();
                (before, after)
            },
            scale,
            expect: Choice::SptStepwise,
            model: cubemodel::two_dim::spt_ipsc_step_by_step,
            model_exact: true,
            pinned_us: 3_492_864.0,
            inputs: None,
            oracle: LabelOracle::default(),
            #[cfg(test)]
            tamper: None,
        }
    }

    /// Paper §8.1 / Figs. 10-12: 1024×1024 on the iPSC 6-cube, cyclic
    /// row partitioning → buffered exchange. Same simulator, other engine.
    pub fn ipsc6_1d_exchange(scale: Scale) -> Self {
        DriverCase {
            name: "ipsc6-1d-exchange",
            ops: 5,
            params: MachineParams::intel_ipsc(),
            layouts: |scale| {
                let (p, n) = if scale == Scale::Paper { (10, 6) } else { (6, 4) };
                let before =
                    Layout::one_dim(p, p, Direction::Rows, n, Assignment::Cyclic, Encoding::Binary);
                let after = before.swapped_shape();
                (before, after)
            },
            scale,
            expect: Choice::ExchangeBuffered { min_direct: 139 },
            model: |pq, n, m| cubemodel::one_dim::buffered(pq, n, m, m.b_copy()),
            model_exact: false,
            pinned_us: 1_156_608.0,
            inputs: None,
            oracle: LabelOracle::default(),
            #[cfg(test)]
            tamper: None,
        }
    }

    /// Paper Fig. 16 scale: 256×256 on the 65 536-node Connection
    /// Machine, one element per node → MPT. Many one-element messages.
    pub fn cm16_2d_mpt(scale: Scale) -> Self {
        DriverCase {
            name: "cm16-2d-mpt",
            ops: 2,
            params: MachineParams::connection_machine(),
            layouts: |scale| {
                let p = if scale == Scale::Paper { 8 } else { 4 };
                let before = Layout::square(p, p, p, Assignment::Consecutive, Encoding::Binary);
                let after = before.swapped_shape();
                (before, after)
            },
            scale,
            expect: Choice::Mpt { k: 1 },
            model: |pq, n, m| cubemodel::mpt::time_kh(pq, n, n / 2, 1, m),
            model_exact: false,
            pinned_us: 112.0,
            inputs: None,
            oracle: LabelOracle::default(),
            #[cfg(test)]
            tamper: None,
        }
    }

    fn inputs(&self) -> &LabelInputs {
        self.inputs.as_ref().expect("setup runs before the first op")
    }

    fn run(&self) -> Out {
        let i = self.inputs();
        driver::execute(&i.matrix, &i.after, &self.params)
    }

    fn model_us(&self) -> f64 {
        let before = &self.inputs().before;
        (self.model)(1u64 << (before.p() + before.q()), before.n(), &self.params) * 1e6
    }

    fn check(&mut self, (out, choice, report): &Out) -> Result<(), String> {
        if *choice != self.expect {
            return Err(format!("driver chose {choice:?}, expected {:?}", self.expect));
        }
        let before = &self.inputs.as_ref().expect("setup runs before the first op").before;
        self.oracle.check(before, out)?;
        if self.model_exact && (report.time * 1e6 - self.model_us()).abs() > 1e-6 {
            return Err(format!(
                "simulated {} us but the closed form gives {} us",
                report.time * 1e6,
                self.model_us()
            ));
        }
        check_sim_time(report, (self.scale == Scale::Paper).then_some(self.pinned_us))
    }

    /// The cost model `driver::execute` hands the net (§8.2.1: the iPSC
    /// SPT overlaps send and receive, so it is modelled all-port).
    fn net_params(&self) -> MachineParams {
        match self.expect {
            Choice::SptStepwise => self.params.clone().with_ports(PortMode::AllPorts),
            _ => self.params.clone(),
        }
    }

    /// `driver::execute`'s path re-composed from the public layer
    /// functions, each call under its own span. `record` turns link
    /// recording on (for the replay probe's input). Also returns how many
    /// blocks the exchange engine was handed (0 on the 2D paths).
    fn decomposed(&self, t: &mut Tracer, record: bool) -> (DistMatrix<u64>, CommReport, usize) {
        let i = self.inputs();
        let n = i.before.n().max(i.after.n());
        let choice = t.span("driver.plan", |_| driver::plan(&i.before, &i.after, &self.params));
        match choice {
            Choice::SptStepwise | Choice::Mpt { .. } => {
                let mut net: SimNet<Packet<u64>> =
                    t.span("cubesim.new", |_| SimNet::new(n, self.net_params()));
                if record {
                    net.record_links();
                }
                let out = t.span("two_dim.engine", |_| match choice {
                    Choice::Mpt { k } => transpose_mpt(&i.matrix, &i.after, &mut net, k),
                    _ => transpose_spt_stepwise(&i.matrix, &i.after, &mut net),
                });
                (out, t.span("cubesim.finalize", |_| net.finalize()), 0)
            }
            Choice::ExchangeBuffered { min_direct } => {
                let mut net: SimNet<BlockMsg<Routed<u64>>> =
                    t.span("cubesim.new", |_| SimNet::new(n, self.net_params()));
                if record {
                    net.record_links();
                }
                let blocks = t.span("one_dim.spec_blocks", |_| {
                    let spec = TransposeSpec::with_after(i.before.clone(), i.after.clone());
                    spec_blocks(&spec, &i.matrix)
                });
                let (held, dims) = t.span("one_dim.hold", |_| hold(blocks, n));
                let handed = held.iter().map(Vec::len).sum();
                let result = t.span("exchange.engine", |_| {
                    exchange_over_dims(&mut net, held, &dims, BufferPolicy::Buffered { min_direct })
                });
                let out = t.span("one_dim.assemble", |_| assemble(&i.after, result));
                (out, t.span("cubesim.finalize", |_| net.finalize()), handed)
            }
            other => panic!("no decomposition for {other:?}"),
        }
    }
}

/// `transpose_1d_exchange`'s glue between `spec_blocks` and the engine:
/// the non-empty blocks each node holds, and the dimensions any of them
/// crosses, highest first.
#[allow(clippy::type_complexity)]
fn hold(blocks: Vec<Vec<Vec<Routed<u64>>>>, n: u32) -> (Vec<Vec<Block<Routed<u64>>>>, Vec<u32>) {
    let held: Vec<Vec<Block<Routed<u64>>>> = blocks
        .into_iter()
        .enumerate()
        .map(|(s, per_dst)| {
            per_dst
                .into_iter()
                .enumerate()
                .filter(|(_, data)| !data.is_empty())
                .map(|(d, data)| Block::new(NodeId(s as u64), NodeId(d as u64), data))
                .collect()
        })
        .collect();
    let diff = held.iter().flatten().fold(0u64, |acc, b| acc | (b.src.bits() ^ b.dst.bits()));
    let dims = (0..n).rev().filter(|&d| (diff >> d) & 1 == 1).collect();
    (held, dims)
}

impl Workload for DriverCase {
    fn name(&self) -> &'static str {
        self.name
    }

    fn ops_per_round(&self) -> usize {
        self.ops
    }

    fn setup(&mut self) {
        let (before, after) = (self.layouts)(self.scale);
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
        layers.push("driver.execute_ms", clock.last_ms);
        let (out, report, handed) = t.span("op", |t| self.decomposed(t, false));
        if out != mono.0 || report != mono.2 {
            return Err("decomposed op differs from driver::execute".into());
        }
        push_sim_counts(layers, &report);
        layers.push("cubemodel.time_us", self.model_us());
        layers.push(
            "cubemodel.gap_ratio",
            (report.time * 1e6 - self.model_us()).abs() / self.model_us(),
        );

        let i = self.inputs();
        layout_probes(t, layers, i, &out);
        if matches!(self.expect, Choice::ExchangeBuffered { .. }) {
            layers.push("exchange.blocks", handed as f64);
        } else {
            let half = i.before.n() / 2;
            t.probe("two_dim.paths", |_| {
                for x in 0..i.before.num_nodes() as u64 {
                    if self.expect == Choice::SptStepwise {
                        std::hint::black_box(spt_path(x, half));
                    } else {
                        for p in 0..2 * h_of(x, half) {
                            std::hint::black_box(mpt_path(x, half, p));
                        }
                    }
                }
            });
            local_kernel_probes(t, layers, &i.matrix);
        }

        // A scratch tracer: this run only exists to record the link
        // traffic, and its spans must not add to the op's.
        let recorded = self.decomposed(&mut Tracer::new(), true).1;
        replay_probe(t, layers, i.before.n(), &self.net_params(), &recorded.link_history);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cases() -> [DriverCase; 3] {
        [
            DriverCase::ipsc6_2d_spt(Scale::Test),
            DriverCase::ipsc6_1d_exchange(Scale::Test),
            DriverCase::cm16_2d_mpt(Scale::Test),
        ]
    }

    #[test]
    fn ops_pass_and_the_oracle_bites() {
        for mut case in cases() {
            case.setup();
            let mut clock = Clock::default();
            case.op(&mut clock).unwrap_or_else(|e| panic!("{}: {e}", case.name));
            // A flipped output element.
            case.tamper = Some(|(out, _, _)| out.node_mut(NodeId(1))[0] ^= 1);
            assert!(case.op(&mut clock).unwrap_err().contains("holds label"));
            // A different algorithm.
            case.tamper = Some(|(_, choice, _)| *choice = Choice::Sbnt);
            assert!(case.op(&mut clock).unwrap_err().contains("driver chose"));
        }
    }

    #[test]
    fn a_tampered_sim_time_fails_the_spt_op() {
        let mut case = DriverCase::ipsc6_2d_spt(Scale::Test);
        case.setup();
        case.tamper = Some(|(_, _, report)| report.time *= 1.0 + 1e-6);
        assert!(case.op(&mut Clock::default()).unwrap_err().contains("closed form"));
    }

    #[test]
    fn decomposed_ops_reproduce_execute() {
        for mut case in cases() {
            case.setup();
            let (mut t, mut layers) = (Tracer::new(), Layers::default());
            let from = t.begin_op(case.name);
            case.traced(&mut Clock::default(), &mut t, &mut layers)
                .unwrap_or_else(|e| panic!("{}: {e}", case.name));
            t.fold_into(from, &mut layers);
            for name in ["driver.plan_ms", "driver.execute_ms", "cubesim.replay_ms", "cubesim.msgs"]
            {
                assert_eq!(layers.samples(name).len(), 1, "{}: {name}", case.name);
            }
        }
    }
}

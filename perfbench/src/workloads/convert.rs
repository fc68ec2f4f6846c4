//! `ipsc6-convert-alg2`: transposition with change of assignment scheme
//! (§6.2, algorithm 2) on the iPSC 6-cube — 2048×2048, 65 536 elements
//! per node, above the in-place threshold. The only workload where the
//! `fieldmap` gather/scatter and the `PermPlan` / `inplace` local
//! kernels do the work; it bypasses the `cubelayout` move enumeration
//! and the `cubecomm` engines.

use super::{
    check_sim_time, local_kernel_probes, push_sim_counts, replay_probe, Clock, LabelOracle, Scale,
    Workload,
};
use crate::metrics::Layers;
use crate::trace::Tracer;
use cubelayout::{DistMatrix, TransposeSpec};
use cubesim::{CommReport, MachineParams, SimNet};
use cubetranspose::convert::{convert_algorithm2, ConvertSpec};
use cubetranspose::fieldmap::{FieldMap, MappedMatrix, Role, SendPolicy};
use cubetranspose::one_dim::fieldmap_after;
use cubetranspose::verify;

type Out = (DistMatrix<u64>, CommReport);

const POLICY: SendPolicy = SendPolicy::Buffered { min_direct: 139 };

pub struct ConvertCase {
    scale: Scale,
    params: MachineParams,
    inputs: Option<(ConvertSpec, DistMatrix<u64>)>,
    oracle: LabelOracle,
    #[cfg(test)]
    pub tamper: Option<fn(&mut Out)>,
}

impl ConvertCase {
    pub fn new(scale: Scale) -> Self {
        ConvertCase {
            scale,
            params: MachineParams::intel_ipsc(),
            inputs: None,
            oracle: LabelOracle::default(),
            #[cfg(test)]
            tamper: None,
        }
    }

    fn inputs(&self) -> &(ConvertSpec, DistMatrix<u64>) {
        self.inputs.as_ref().expect("setup runs before the first op")
    }

    fn net(&self, spec: &ConvertSpec) -> SimNet<Vec<u64>> {
        SimNet::new(2 * spec.n_r, self.params.clone())
    }

    fn run(&self) -> Out {
        let (spec, matrix) = self.inputs();
        let mut net = self.net(spec);
        let out = convert_algorithm2(spec, matrix, &mut net, POLICY);
        (out, net.finalize())
    }

    fn check(&mut self, (out, report): &Out) -> Result<(), String> {
        let (spec, _) = self.inputs.as_ref().expect("setup runs before the first op");
        self.oracle.check(&spec.before(), out)?;
        check_sim_time(report, (self.scale == Scale::Paper).then_some(PINNED_US))
    }

    /// Algorithm 2 re-composed from `MappedMatrix`'s public primitives
    /// (`convert`'s own helpers are private): local transpose, the
    /// `u1 ↔ v3` and `v1 ↔ u3` exchanges, local transposes of the small
    /// matrices, then the free relabel into the target order.
    fn decomposed(&self, t: &mut Tracer, record: bool) -> (Out, usize) {
        let (spec, matrix) = self.inputs();
        let (p, q, nr) = (spec.p, spec.q, spec.n_r);
        let mut net = t.span("cubesim.new", |_| self.net(spec));
        if record {
            net.record_links();
        }
        let mut mm = t.span("fieldmap.start", |_| {
            let map = FieldMap::from_layout(&spec.before());
            MappedMatrix::from_buffers(map, matrix.clone().into_buffers())
        });
        let vp = mm.map().vp();
        let vcol = q - nr;
        let perm: Vec<u32> = (vcol..vp).chain(0..vcol).collect();
        t.span("fieldmap.permute_virt", |_| mm.permute_virt(&mut net, &perm));
        let (u1, u3, v1, v3) = (q + p - nr..q + p, q..q + nr, q - nr..q, 0..nr);
        for (real, virt) in u1.zip(v3).chain(v1.zip(u3)) {
            let (Role::Real(i), Role::Virt(j)) = (mm.map().locate(real), mm.map().locate(virt))
            else {
                panic!("dimension {real} should be real and {virt} virtual");
            };
            t.span("fieldmap.exchange_rv", |_| mm.exchange_real_virt(&mut net, i, j, POLICY));
        }
        let split = vp - vcol;
        let perm: Vec<u32> = (split..vp).chain(0..split).collect();
        t.span("fieldmap.permute_virt", |_| mm.permute_virt(&mut net, &perm));
        net.finish_round();
        let pool = mm.pool_capacity_elems();
        let out = t.span("fieldmap.finish", |_| {
            let target = fieldmap_after(&TransposeSpec::with_after(spec.before(), spec.after()));
            let perm: Vec<u32> = (0..target.vp())
                .map(|j| match mm.map().locate(target.virt_dim(j)) {
                    Role::Virt(old) => old,
                    Role::Real(_) => panic!("real roles not fixed"),
                })
                .collect();
            mm.relabel_virt(&perm);
            DistMatrix::from_buffers(spec.after(), mm.into_buffers())
        });
        ((out, t.span("cubesim.finalize", |_| net.finalize())), pool)
    }
}

/// Simulated time of the paper-scale op.
const PINNED_US: f64 = 12_883_968.0;

impl Workload for ConvertCase {
    fn name(&self) -> &'static str {
        "ipsc6-convert-alg2"
    }

    fn ops_per_round(&self) -> usize {
        5
    }

    fn setup(&mut self) {
        let spec = match self.scale {
            Scale::Paper => ConvertSpec::new(11, 11, 3),
            Scale::Test => ConvertSpec::new(6, 6, 2),
        };
        self.oracle.reset();
        self.inputs = Some((spec, verify::labels(spec.before())));
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
        let (out, pool) = t.span("op", |t| self.decomposed(t, false));
        if out != mono {
            return Err("decomposed op differs from convert_algorithm2".into());
        }
        push_sim_counts(layers, &out.1);
        layers.push("fieldmap.pool_elems", pool as f64);

        let (spec, matrix) = self.inputs();
        let before = spec.before();
        t.probe("cubelayout.labels", |_| verify::labels(before.clone()));
        t.probe("verify.assert", |_| verify::assert_transposed(&before, &out.0));
        local_kernel_probes(t, layers, matrix);
        // Scratch tracer: this run only records the link traffic.
        let recorded = self.decomposed(&mut Tracer::new(), true).0 .1;
        replay_probe(t, layers, 2 * spec.n_r, &self.params, &recorded.link_history);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubeaddr::NodeId;

    #[test]
    fn op_passes_and_the_oracle_bites() {
        let mut case = ConvertCase::new(Scale::Test);
        case.setup();
        let mut clock = Clock::default();
        case.op(&mut clock).unwrap();
        case.tamper = Some(|(out, _)| out.node_mut(NodeId(0))[5] ^= 1);
        assert!(case.op(&mut clock).unwrap_err().contains("holds label"));
    }

    #[test]
    fn decomposed_op_reproduces_algorithm2() {
        let mut case = ConvertCase::new(Scale::Test);
        case.setup();
        let (mut t, mut layers) = (Tracer::new(), Layers::default());
        let from = t.begin_op(case.name());
        case.traced(&mut Clock::default(), &mut t, &mut layers).unwrap();
        t.fold_into(from, &mut layers);
        for name in ["fieldmap.exchange_rv_ms", "fieldmap.permute_virt_ms", "inplace.transpose_ms"]
        {
            assert_eq!(layers.samples(name).len(), 1, "{name}");
        }
    }
}

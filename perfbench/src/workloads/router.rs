//! `cm14-router`: the Connection Machine *is* its router (paper
//! Figs. 14b, 16-18) — the node-permutation transpose `x → tr(x)`, four
//! elements per message, through the e-cube store-and-forward router on
//! a 14-cube. Router lanes dominate; `graph_route` on the same messages
//! is the twin a later fold has to match.

use super::{check_sim_time, push_sim_counts, replay_probe, Clock, Scale, Workload};
use crate::metrics::Layers;
use crate::trace::Tracer;
use cubebench::experiments::transpose_route_msgs;
use cubecomm::ecube::{ecube_route, RouteMsg};
use cubecomm::graph::graph_route;
use cubecomm::Block;
use cubesim::{CommReport, Hypercube, MachineParams, SimNet};
use cubetranspose::two_dim::tr;

type Out = (Vec<Vec<Block<u64>>>, CommReport);

/// Simulated time of the paper-scale op (shared with `cm14-plan-*`,
/// whose plans replay the same flight schedule).
pub const PINNED_US: f64 = 923.0;

pub struct RouterCase {
    n: u32,
    elems: usize,
    scale: Scale,
    params: MachineParams,
    /// The message set, and the copies the round's ops will consume
    /// (`ecube_route` takes its messages by value; cloning them is
    /// set-up, not routing).
    msgs: Vec<RouteMsg<u64>>,
    pending: Vec<Vec<RouteMsg<u64>>>,
    #[cfg(test)]
    pub tamper: Option<fn(&mut Out)>,
}

impl RouterCase {
    pub fn new(scale: Scale) -> Self {
        RouterCase {
            n: if scale == Scale::Paper { 14 } else { 6 },
            elems: 4,
            scale,
            params: MachineParams::connection_machine(),
            msgs: Vec::new(),
            pending: Vec::new(),
            #[cfg(test)]
            tamper: None,
        }
    }

    fn take(&mut self) -> Vec<RouteMsg<u64>> {
        self.pending.pop().unwrap_or_else(|| self.msgs.clone())
    }

    fn run(&self, msgs: Vec<RouteMsg<u64>>) -> Out {
        let mut net: SimNet<Block<u64>> = SimNet::new(self.n, self.params.clone());
        let delivered = ecube_route(&mut net, msgs);
        (delivered, net.finalize())
    }

    /// Delivery check: node `tr(x)` holds exactly `x`'s block, intact;
    /// diagonal nodes hold nothing.
    fn check(&self, (delivered, report): &Out) -> Result<(), String> {
        let half = self.n / 2;
        for (y, blocks) in delivered.iter().enumerate() {
            let x = tr(y as u64, half);
            let ok = if x == y as u64 {
                blocks.is_empty()
            } else {
                blocks.len() == 1
                    && blocks[0].src.bits() == x
                    && blocks[0].dst.bits() == y as u64
                    && blocks[0].data == vec![x; self.elems]
            };
            if !ok {
                return Err(format!("node {y} holds {} blocks, not node {x}'s one", blocks.len()));
            }
        }
        check_sim_time(report, (self.scale == Scale::Paper).then_some(PINNED_US))
    }
}

impl Workload for RouterCase {
    fn name(&self) -> &'static str {
        "cm14-router"
    }

    fn ops_per_round(&self) -> usize {
        6
    }

    fn setup(&mut self) {
        self.msgs = transpose_route_msgs(self.n, self.elems);
        self.pending = (0..self.ops_per_round()).map(|_| self.msgs.clone()).collect();
    }

    fn op(&mut self, clock: &mut Clock) -> Result<(), String> {
        let msgs = self.take();
        #[allow(unused_mut)]
        let mut out = clock.time(|| self.run(msgs));
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
        let msgs = self.take();
        let mono = clock.time(|| self.run(msgs));
        self.check(&mono)?;

        let msgs = self.take();
        let out = t.span("op", |t| {
            let mut net: SimNet<Block<u64>> =
                t.span("cubesim.new", |_| SimNet::new(self.n, self.params.clone()));
            let delivered = t.span("ecube.route", |_| ecube_route(&mut net, msgs));
            (delivered, t.span("cubesim.finalize", |_| net.finalize()))
        });
        if out != mono {
            return Err("two runs of the router differ".into());
        }
        push_sim_counts(layers, &out.1);
        let hops: u64 = self
            .msgs
            .iter()
            .map(|m| u64::from(cubeaddr::hamming(m.src.bits(), m.dst.bits())))
            .sum();
        layers.push("ecube.hops", hops as f64);
        layers.push("ecube.ns_per_hop", t.last_ms("ecube.route") * 1e6 / hops as f64);
        layers.push("ecube.rounds", out.1.rounds as f64);

        // The topology-generic twin on the same messages; a recording
        // net, so this run also feeds the replay probe.
        let msgs = self.take();
        let mut net: SimNet<Block<u64>, Hypercube> =
            SimNet::on_topology(Hypercube::new(self.n), self.params.clone());
        net.record_links();
        let twin = t.probe("graph.route", |_| graph_route(&mut net, msgs));
        let recorded = net.finalize();
        if twin != out.0 || recorded.time != out.1.time {
            return Err("graph_route and ecube_route differ".into());
        }
        replay_probe(t, layers, self.n, &self.params, &recorded.link_history);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_passes_and_the_oracle_bites() {
        let mut case = RouterCase::new(Scale::Test);
        case.setup();
        let mut clock = Clock::default();
        case.op(&mut clock).unwrap();
        // A dropped router block.
        case.tamper = Some(|(delivered, _)| {
            delivered.iter_mut().find(|b| !b.is_empty()).unwrap().clear();
        });
        assert!(case.op(&mut clock).unwrap_err().contains("holds 0 blocks"));
        // A corrupted payload.
        case.tamper = Some(|(delivered, _)| {
            delivered.iter_mut().find(|b| !b.is_empty()).unwrap()[0].data[1] ^= 1;
        });
        assert!(case.op(&mut clock).is_err());
    }

    #[test]
    fn traced_iteration_agrees_with_the_generic_router() {
        let mut case = RouterCase::new(Scale::Test);
        case.setup();
        let (mut t, mut layers) = (Tracer::new(), Layers::default());
        let from = t.begin_op(case.name());
        case.traced(&mut Clock::default(), &mut t, &mut layers).unwrap();
        t.fold_into(from, &mut layers);
        // 56 off-diagonal nodes of the 6-cube; Σ distance = Σ 2·H(x).
        assert_eq!(layers.samples("cubesim.msgs").len(), 1);
        assert_eq!(layers.samples("ecube.hops"), &[192.0]);
        assert_eq!(layers.samples("graph.route_ms").len(), 1);
    }
}

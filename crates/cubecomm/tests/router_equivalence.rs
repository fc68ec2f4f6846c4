//! Property test: the lane-based router is observationally equivalent
//! to the original full-lattice [`RefRouter`] it replaced.
//!
//! [`RefRouter`], [`ecube_route`] and [`graph_route`] run identical
//! message sets — random ones plus the transpose and all-to-all patterns
//! the figures use — on recording nets and must produce identical
//! per-node arrivals (same blocks, same order, which subsumes the
//! per-link arrival order) and identical [`CommReport`]s. `ecube_route`
//! is `graph_route` on a `Hypercube` net; the explicit `graph_route` run
//! goes through the value-level [`TopoSpec`] dispatch (the form the
//! Dragonfly planners use), so the generic path is held to the hypercube
//! baseline exactly.

use cubeaddr::NodeId;
use cubecomm::block::Block;
use cubecomm::ecube::reference::RefRouter;
use cubecomm::ecube::{ecube_route, RouteMsg};
use cubecomm::graph::graph_route;
use cubesim::{CommReport, MachineParams, Payload, PortMode, SimNet};
use cubetopo::{TopoSpec, Topology};
use proptest::prelude::*;

/// SplitMix64 so message sets are a pure function of the seed
/// (independent of which proptest implementation supplies the seed).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, span: u64) -> u64 {
        self.next() % span
    }
}

/// Random message set: arbitrary src/dst pairs (equal pairs and empty
/// payloads included, since both are router edge cases).
fn random_msgs(rng: &mut Rng, n: u32, count: usize) -> Vec<RouteMsg<u64>> {
    let num = 1u64 << n;
    (0..count)
        .map(|_| {
            let len = rng.below(4) as usize;
            RouteMsg {
                src: NodeId(rng.below(num)),
                dst: NodeId(rng.below(num)),
                data: (0..len).map(|_| rng.next()).collect(),
            }
        })
        .collect()
}

/// The figures' node-permutation transpose pattern `x → tr(x)`.
fn transpose_msgs(n: u32, elems: usize) -> Vec<RouteMsg<u64>> {
    let half = n / 2;
    (0..(1u64 << n))
        .filter_map(|x| {
            let (hi, lo) = cubeaddr::split(x, half);
            let t = cubeaddr::concat(lo, hi, half);
            (t != x).then(|| RouteMsg { src: NodeId(x), dst: NodeId(t), data: vec![x; elems] })
        })
        .collect()
}

/// Every ordered pair, tagged payloads.
fn all_to_all_msgs(n: u32) -> Vec<RouteMsg<u64>> {
    let num = 1u64 << n;
    (0..num)
        .flat_map(|s| {
            (0..num).filter(move |&d| d != s).map(move |d| RouteMsg {
                src: NodeId(s),
                dst: NodeId(d),
                data: vec![s * 1000 + d],
            })
        })
        .collect()
}

fn params(unit: bool) -> MachineParams {
    if unit {
        MachineParams::unit(PortMode::AllPorts)
    } else {
        MachineParams::intel_ipsc().with_ports(PortMode::AllPorts)
    }
}

/// Runs one router on `net` with recording on and returns arrivals +
/// report. Generic over the payload and the topology: the lane router
/// carries bare [`Block`]s on the wire, the reference router its original
/// `BlockMsg` batches — the reports compare across the two because both
/// count the same elements.
fn run<P: Payload, G: Topology>(
    mut net: SimNet<P, G>,
    route: impl FnOnce(&mut SimNet<P, G>) -> Vec<Vec<Block<u64>>>,
) -> (Vec<Vec<Block<u64>>>, CommReport) {
    net.record_history();
    net.record_links();
    let out = route(&mut net);
    (out, net.finalize())
}

/// Asserts reference ≡ `ecube_route` ≡ `graph_route` for one message
/// set. The graph router is given the cube as a [`TopoSpec`], so its
/// minimal-route port choice, lane staging and report accounting all
/// flow through the value-level dispatch and still must match the
/// reference byte for byte.
fn assert_equivalent(n: u32, unit: bool, msgs: &[RouteMsg<u64>], what: &str) {
    let expect = run(SimNet::new(n, params(unit)), |net| RefRouter::route(net, msgs.to_vec()));
    let got = run(SimNet::new(n, params(unit)), |net| ecube_route(net, msgs.to_vec()));
    assert_eq!(got.0, expect.0, "{what}: arrivals diverge (n {n})");
    assert_eq!(got.1, expect.1, "{what}: reports diverge (n {n})");
    let spec = SimNet::on_topology(TopoSpec::hypercube(n), params(unit));
    let graph = run(spec, |net| graph_route(net, msgs.to_vec()));
    assert_eq!(graph.0, expect.0, "{what}: graph arrivals diverge (n {n})");
    assert_eq!(graph.1, expect.1, "{what}: graph reports diverge (n {n})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random message sets: identical arrivals and reports.
    #[test]
    fn flat_matches_reference_on_random_messages(
        seed in 0u64..u64::MAX,
        n in 2u32..=5,
        count in 1usize..=24,
        unit in prop::bool::ANY,
    ) {
        let msgs = random_msgs(&mut Rng(seed), n, count);
        assert_equivalent(n, unit, &msgs, "random");
    }
}

#[test]
fn flat_matches_reference_on_transpose_pattern() {
    for n in [2u32, 4, 6] {
        assert_equivalent(n, true, &transpose_msgs(n, 4), "transpose");
        assert_equivalent(n, false, &transpose_msgs(n, 4), "transpose");
    }
}

#[test]
fn flat_matches_reference_on_all_to_all() {
    for n in [2u32, 3, 4] {
        assert_equivalent(n, true, &all_to_all_msgs(n), "all-to-all");
        assert_equivalent(n, false, &all_to_all_msgs(n), "all-to-all");
    }
}

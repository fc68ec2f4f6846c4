//! The flight executors: the one round loop per substrate of the movers
//! that carry whole arrays along dimension paths — §6.1's SPT / DPT / MPT
//! ([`crate::two_dim`]), §6.3's mixed-encoding transposes
//! ([`crate::gray`]) and Lemma 6's relocations ([`crate::permute`]).
//!
//! A *flight* is an element count, its source, an injection cycle and a
//! `(start, len)` path in the plan's byte arena, one entry per routing
//! step: a dimension to cross, or a *hold* ([`HOLD`], a byte no dimension
//! uses) on which the flight stays put and sends nothing. Leading holds
//! delay a flight as a later injection cycle does; trailing holds are not
//! written, so a flight without a hop is never sent. A plan carries its
//! length in rounds, and its run closes exactly that many.
//!
//! A plan carries no data. On the simulator [`run_flights`] moves none:
//! each cycle it charges every live flight that does not hold to the net
//! for its hop ([`SimNet::charge`]: the checks, cost and records of a
//! send). On `cuberun`'s round door [`FlightRounds`] sends each flight's
//! piece of its source's array — a source's flights, in plan order, cut
//! it into consecutive pieces. Either way the mover gets a [`Landing`],
//! checks it against where its arrays must go, and writes each one once.

use cubeaddr::NodeId;
use cubelayout::DistMatrix;
use cuberun::{Outbox, RoundInbox, RoundProgram, RunStats};
use cubesim::{Payload, SimNet};
use std::borrow::Cow;
use std::ops::Range;

/// The arena entry of a routing step on which a flight stays put.
const HOLD: u8 = u8::MAX;

/// A path in a [`FlightPlan`]'s arena: `arena[start..start + len]`.
#[derive(Clone, Copy)]
pub(crate) struct PathRef {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

/// One flight: its source, its path, its injection cycle, and the
/// number of elements it carries.
pub(crate) struct Flight {
    pub(crate) src: NodeId,
    pub(crate) path: PathRef,
    pub(crate) inject: usize,
    pub(crate) elems: usize,
}

/// Every flight of one mover, the arena their paths live in (a dimension
/// fits a byte: `n ≤ 64`), and the plan's length in rounds.
pub(crate) struct FlightPlan {
    pub(crate) arena: Vec<u8>,
    pub(crate) flights: Vec<Flight>,
    rounds: usize,
}

impl FlightPlan {
    /// An empty plan `rounds` rounds long.
    pub(crate) fn new(rounds: usize) -> Self {
        FlightPlan::with_capacity(rounds, 0, 0)
    }

    /// An empty plan `rounds` rounds long with room for `flights` flights
    /// and `arena` bytes of paths, for a builder that knows its sizes.
    pub(crate) fn with_capacity(rounds: usize, flights: usize, arena: usize) -> Self {
        FlightPlan {
            arena: Vec::with_capacity(arena),
            flights: Vec::with_capacity(flights),
            rounds,
        }
    }

    /// Writes a path into the arena, one entry per routing step:
    /// `Some(dim)` crosses `dim`, `None` holds.
    pub(crate) fn path(&mut self, steps: impl IntoIterator<Item = Option<u32>>) -> PathRef {
        let start = self.arena.len();
        self.arena.extend(steps.into_iter().map(|step| step.map_or(HOLD, |d| d as u8)));
        while self.arena.len() > start && self.arena.last() == Some(&HOLD) {
            self.arena.pop();
        }
        self.path_from(start)
    }

    /// The path written into the arena from `start` to its end.
    pub(crate) fn path_from(&self, start: usize) -> PathRef {
        // The end fitting u32 means every position before it does.
        let end = u32::try_from(self.arena.len()).expect("flight-plan arena exceeds 4 GiB");
        PathRef { start: start as u32, len: end - start as u32 }
    }

    /// Adds a flight of `elems` elements from `src` along `path`, taking
    /// its first step at cycle `inject`.
    pub(crate) fn fly(&mut self, src: NodeId, path: PathRef, inject: usize, elems: usize) {
        self.flights.push(Flight { src, path, inject, elems });
    }

    /// Makes the plan exactly as long as its longest flight.
    pub(crate) fn fit_rounds(&mut self) {
        self.rounds =
            self.flights.iter().map(|f| f.inject + f.path.len as usize).max().unwrap_or(0);
    }

    /// The dimension flight `id` crosses in cycle `cycle`; `None` while it
    /// holds, before its injection and after its last step.
    pub(crate) fn step(&self, id: usize, cycle: usize) -> Option<u32> {
        let f = &self.flights[id];
        let s = cycle.checked_sub(f.inject).filter(|&s| s < f.path.len as usize)?;
        let dim = self.arena[f.path.start as usize + s];
        (dim != HOLD).then_some(u32::from(dim))
    }
}

/// Each flight's landing node, in plan order, and on the round door its piece.
pub(crate) struct Landing<'m, T> {
    pub(crate) ledger: Vec<NodeId>,
    m: &'m DistMatrix<T>,
    carried: Vec<Vec<T>>,
}

impl<'m, T: Copy> Landing<'m, T> {
    /// The ledger of [`run_flights`], which carries nothing.
    pub(crate) fn charged(ledger: Vec<NodeId>, m: &'m DistMatrix<T>) -> Self {
        Landing { ledger, m, carried: Vec::new() }
    }

    /// Whether the substrate carried the arrays (the round door), so that
    /// [`Landing::array`] hands out owned pieces.
    pub(crate) fn carries(&self) -> bool {
        !self.carried.is_empty()
    }

    /// The array that flights `ids` of `src` deliver: their pieces joined
    /// in plan order — or, where none flew or none carried, `src`'s array.
    #[inline]
    pub(crate) fn array(&mut self, src: NodeId, ids: Range<usize>) -> Cow<'m, [T]> {
        match self.carried.get_mut(ids) {
            Some([first, rest @ ..]) => {
                let mut arr = std::mem::take(first);
                rest.iter().for_each(|piece| arr.extend_from_slice(piece));
                Cow::Owned(arr)
            }
            _ => Cow::Borrowed(self.m.node(src)),
        }
    }
}

/// Runs the plan for exactly its length in rounds, every flight taking
/// one step per cycle from its injection cycle on, and returns the
/// delivery ledger: each flight's landing node, in plan order.
///
/// Every flight with a hop gets a launch record, counting-sorted by
/// injection cycle (plan order within a cycle), in one vector whose front
/// is the live list. Each cycle appends that cycle's launches to the live
/// list and makes one pass over it: charge the hop, advance, write the
/// ledger line of a flight whose path ends, and move the others down over
/// the finished ones, so the live list stays in launch order.
///
/// Panics, naming the flight, if its last hop falls after the plan's
/// length; inside the simulator if two flights contend for a directed
/// link — the runtime check of the edge-disjointness lemmas — or break
/// the port discipline.
pub(crate) fn run_flights<P: Payload>(net: &mut SimNet<P>, plan: &FlightPlan) -> Vec<NodeId> {
    /// A launched flight: where it is, the arena positions of its next
    /// step and of its path's end, its line in the plan and ledger, and
    /// its size — `u32::MAX` standing for any size from there up, which
    /// the net refuses at the first hop; the plan holds the exact one.
    #[derive(Clone, Copy)]
    struct Live {
        at: NodeId,
        next: u32,
        end: u32,
        id: u32,
        elems: u32,
    }
    let FlightPlan { arena, flights, rounds } = plan;
    assert!(u32::try_from(flights.len()).is_ok(), "a flight plan holds fewer than 2^32 flights");
    // `launched[c]`: how many flights launch before cycle `c`, then (once
    // the records are placed) by the end of cycle `c`.
    let mut launched = vec![0u32; rounds + 1];
    let mut ledger = Vec::with_capacity(flights.len());
    for (id, f) in flights.iter().enumerate() {
        if f.path.len > 0 {
            let end = f.inject + f.path.len as usize;
            assert!(
                end <= *rounds,
                "flight {id} from {}: last hop in round {} of a {rounds}-round plan",
                f.src,
                end - 1
            );
            launched[f.inject + 1] += 1;
        }
        ledger.push(f.src);
    }
    for c in 0..*rounds {
        launched[c + 1] += launched[c];
    }
    let unlaunched = Live { at: NodeId(0), next: 0, end: 0, id: 0, elems: 0 };
    let mut flying = vec![unlaunched; launched[*rounds] as usize];
    for (id, f) in flights.iter().enumerate() {
        let PathRef { start, len } = f.path;
        if len > 0 {
            let slot = &mut launched[f.inject];
            let elems = u32::try_from(f.elems).unwrap_or(u32::MAX);
            flying[*slot as usize] =
                Live { at: f.src, next: start, end: start + len, id: id as u32, elems };
            *slot += 1;
        }
    }
    // `flying[..live]` is the live list, `flying[waiting..]` the records
    // not launched yet.
    let (mut live, mut waiting) = (0, 0);
    for &by_now in &launched[..*rounds] {
        if live != waiting {
            flying.copy_within(waiting..by_now as usize, live);
        }
        live += by_now as usize - waiting;
        waiting = by_now as usize;
        let mut kept = 0;
        for i in 0..live {
            let mut l = flying[i];
            let dim = arena[l.next as usize];
            if dim != HOLD {
                let elems = match l.elems {
                    u32::MAX => flights[l.id as usize].elems,
                    elems => elems as usize,
                };
                net.charge(l.at, u32::from(dim), elems);
                l.at = l.at.neighbor(u32::from(dim));
            }
            l.next += 1;
            if l.next == l.end {
                ledger[l.id as usize] = l.at;
            } else {
                flying[kept] = l;
                kept += 1;
            }
        }
        live = kept;
        net.finish_round();
    }
    ledger
}

/// A flight on the round door: its id in the plan and its piece.
pub(crate) type Carried<T> = (u32, Vec<T>);

/// The round door's flight executor: a plan as a [`RoundProgram`] on
/// `m`'s cube, round `r` being cycle `r`. A node starts with the flights
/// it sources, each with its piece of the node's array, sends each held
/// flight across the dimension of its step, takes every message on every
/// port, and ends with the flights it holds.
pub(crate) struct FlightRounds<'a, T> {
    plan: &'a FlightPlan,
    m: &'a DistMatrix<T>,
    /// Flight ids sorted by source, stably: plan order within a source.
    by_src: Vec<u32>,
}

impl<T: Copy + Send + Sync> RoundProgram<Carried<T>> for FlightRounds<'_, T> {
    type State = Vec<Carried<T>>;
    type Out = Vec<Carried<T>>;

    fn rounds(&self) -> u32 {
        self.plan.rounds as u32
    }

    fn init(&self, id: NodeId) -> Vec<Carried<T>> {
        let from = |f: &&u32| self.plan.flights[**f as usize].src;
        let mut rest = self.m.node(id);
        let lo = self.by_src.partition_point(|f| from(&f) < id);
        let mine = self.by_src[lo..].iter().take_while(|f| from(f) == id);
        mine.map(|&f| {
            let piece;
            (piece, rest) = rest.split_at(self.plan.flights[f as usize].elems);
            (f, piece.to_vec())
        })
        .collect()
    }

    fn send(&self, r: u32, _: NodeId, held: &mut Self::State, out: &mut Outbox<'_, Carried<T>>) {
        let mut i = 0;
        while i < held.len() {
            match self.plan.step(held[i].0 as usize, r as usize) {
                Some(dim) => out.send(dim, held.swap_remove(i)),
                None => i += 1,
            }
        }
    }

    fn recv(&self, _: u32, _: NodeId, s: &mut Self::State, inbox: &mut RoundInbox<'_, Carried<T>>) {
        for port in 0..self.m.layout().n() {
            s.extend(std::iter::from_fn(|| inbox.take(port)));
        }
    }

    fn finish(&self, _: NodeId, held: Self::State) -> Self::Out {
        held
    }
}

/// Runs `plan` over `m`'s arrays on the round door — `run` runs the program
/// on the `n`-cube, as [`cuberun::run_rounds`] does — leaving its `stats`.
pub(crate) fn run_flight_rounds<'m, T: Copy + Send + Sync>(
    plan: &FlightPlan,
    m: &'m DistMatrix<T>,
    run: impl FnOnce(u32, &FlightRounds<'_, T>) -> (Vec<Vec<Carried<T>>>, RunStats),
    stats: &mut RunStats,
) -> Landing<'m, T> {
    let mut by_src: Vec<u32> = (0..plan.flights.len() as u32).collect();
    by_src.sort_by_key(|&f| plan.flights[f as usize].src);
    let held;
    (held, *stats) = run(m.layout().n(), &FlightRounds { plan, m, by_src });
    let mut landing = Landing::charged(plan.flights.iter().map(|f| f.src).collect(), m);
    landing.carried = (0..plan.flights.len()).map(|_| Vec::new()).collect();
    for (x, flights) in held.into_iter().enumerate() {
        for (id, piece) in flights {
            (landing.ledger[id as usize], landing.carried[id as usize]) = (NodeId(x as u64), piece);
        }
    }
    landing
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::{CommReport, MachineParams, PortMode};

    /// The executor the charged one replaced, kept as its oracle: every
    /// hop carries a payload of the flight's size through the net as a
    /// message and back out with [`SimNet::recv`] at the node and
    /// dimension its flight planned, in the order of the live flights
    /// that hopped, and the payload must come back intact.
    fn run_flights_hop_by_hop(net: &mut SimNet<Vec<u64>>, plan: &FlightPlan) -> Vec<NodeId> {
        #[derive(Clone, Copy)]
        struct Live {
            id: usize,
            next: u32,
            end: u32,
            at: NodeId,
        }
        let FlightPlan { arena, flights, rounds } = plan;
        let mut ledger = Vec::with_capacity(flights.len());
        let mut payloads: Vec<Vec<u64>> = Vec::with_capacity(flights.len());
        let mut waiting = Vec::with_capacity(flights.len());
        for (id, f) in flights.iter().enumerate() {
            let PathRef { start, len } = f.path;
            if len > 0 {
                let end = f.inject + len as usize;
                assert!(
                    end <= *rounds,
                    "flight {id} from {}: last hop in round {} of a {rounds}-round plan",
                    f.src,
                    end - 1
                );
                waiting.push((f.inject, Live { id, next: start, end: start + len, at: f.src }));
            }
            ledger.push(f.src);
            payloads.push(vec![id as u64; f.elems]);
        }
        waiting.sort_by_key(|&(inject, _)| inject);
        let mut waiting = waiting.into_iter().peekable();
        let mut live: Vec<Live> = Vec::new();
        for cycle in 0..*rounds {
            while let Some((_, l)) = waiting.next_if(|&(inject, _)| inject == cycle) {
                live.push(l);
            }
            for l in &live {
                let dim = arena[l.next as usize];
                if dim != HOLD {
                    net.send(l.at, u32::from(dim), std::mem::take(&mut payloads[l.id]));
                }
            }
            net.finish_round();
            for l in live.iter_mut().filter(|l| arena[l.next as usize] != HOLD) {
                let dim = u32::from(arena[l.next as usize]);
                l.at = l.at.neighbor(dim);
                let payload = net.recv(l.at, dim);
                assert!(payload.iter().all(|&x| x == l.id as u64), "flight {} got another", l.id);
                payloads[l.id] = payload;
                ledger[l.id] = l.at;
            }
            live.retain_mut(|l| {
                l.next += 1;
                l.next != l.end
            });
        }
        ledger
    }

    fn run(rounds: usize, flights: &[(u64, usize, &[Option<u32>])]) -> (Vec<u64>, CommReport) {
        let mut plan = FlightPlan::new(rounds);
        for &(src, inject, steps) in flights {
            let path = plan.path(steps.iter().copied());
            plan.fly(NodeId(src), path, inject, 1);
        }
        let mut net: SimNet<Vec<u64>> = SimNet::new(3, MachineParams::unit(PortMode::AllPorts));
        net.record_links();
        let ledger = run_flights(&mut net, &plan);
        (ledger.iter().map(|at| at.bits()).collect(), net.finalize())
    }

    #[test]
    fn holds_stay_put_and_every_round_of_the_plan_closes() {
        // Node 1 holds twice, then crosses dims 1 and 2; node 2 crosses
        // dim 0 at once; node 4 only holds, so it is never sent.
        let (at, r) = run(
            6,
            &[(1, 0, &[None, None, Some(1), Some(2), None]), (2, 0, &[Some(0)]), (4, 0, &[None])],
        );
        assert_eq!(at, [7, 3, 4]);
        assert_eq!(r.rounds, 6);
        let sent: Vec<Vec<(u64, u32)>> = r
            .link_history
            .iter()
            .map(|round| round.iter().map(|e| (e.src, e.dim)).collect())
            .collect();
        assert_eq!(sent, [vec![(2, 0)], vec![], vec![(1, 1)], vec![(3, 2)], vec![], vec![]]);
    }

    #[test]
    #[should_panic(expected = "flight 1 from 2: last hop in round 3 of a 3-round plan")]
    fn a_hop_after_the_plan_names_its_flight() {
        run(3, &[(0, 1, &[Some(0), Some(1)]), (2, 2, &[Some(0), Some(1)])]);
    }

    /// The charged executor against the hop-by-hop oracle: the same
    /// ledger (landing nodes) and the same report, history and link
    /// history included — or the same panic text.
    mod differential {
        use super::*;
        use cubetest::{catch, Rng};
        use std::collections::HashSet;

        /// One flight as data: source, injection cycle, steps, elements.
        type FlightSpec = (u64, usize, Vec<Option<u32>>, usize);

        /// A plan as data: the cube, the port rule, the length in rounds
        /// and the flights.
        struct Spec {
            n: u32,
            ports: PortMode,
            rounds: usize,
            flights: Vec<FlightSpec>,
        }

        type Outcome = Result<(Vec<u64>, CommReport), String>;

        fn outcome(spec: &Spec, charged: bool) -> Outcome {
            let mut plan = FlightPlan::new(spec.rounds);
            for &(src, inject, ref steps, elems) in &spec.flights {
                let path = plan.path(steps.iter().copied());
                plan.fly(NodeId(src), path, inject, elems);
            }
            let params = MachineParams::intel_ipsc().with_ports(spec.ports).with_max_packet(2);
            catch(|| {
                let mut net = SimNet::new(spec.n, params);
                net.record_history();
                net.record_links();
                let ledger = if charged {
                    run_flights(&mut net, &plan)
                } else {
                    run_flights_hop_by_hop(&mut net, &plan)
                };
                (ledger.iter().map(|at| at.bits()).collect(), net.finalize())
            })
        }

        /// Both executors' outcome, once they are known to agree.
        fn both(spec: &Spec) -> Outcome {
            let charged = outcome(spec, true);
            assert_eq!(charged, outcome(spec, false), "charged executor diverges from the oracle");
            charged
        }

        /// A random plan on a cube of at most 5 dimensions: holds,
        /// staggered injections, flights of 1–3 elements (rarely none).
        /// When `legal`, a flight that would share a directed link in a
        /// cycle with an earlier one, or a node's port under one-port
        /// rules, is left out; otherwise clashes are likely. The length
        /// is the longest flight's, sometimes a round or two more and
        /// sometimes one short.
        fn random_spec(seed: u64, legal: bool) -> Spec {
            let mut rng = Rng::new(seed);
            let n = 1 + rng.below(5) as u32;
            let ports = if rng.below(2) == 0 { PortMode::OnePort } else { PortMode::AllPorts };
            let mut links = HashSet::new();
            let mut node_ports = std::collections::HashMap::new();
            let mut flights = Vec::new();
            for _ in 0..1 + rng.below(1 << n) {
                let src = rng.below(1 << n);
                let inject = rng.below(4) as usize;
                let steps: Vec<Option<u32>> = (0..rng.below(2 * u64::from(n) + 1))
                    .map(|_| (rng.below(4) != 0).then(|| rng.below(u64::from(n)) as u32))
                    .collect();
                let elems = if rng.below(50) == 0 { 0 } else { 1 + rng.below(3) as usize };
                if legal {
                    // Every (cycle, node, port) the flight's hops touch,
                    // at both ends of each link.
                    let (mut at, mut used) = (src, Vec::new());
                    for (i, step) in steps.iter().enumerate() {
                        if let Some(d) = *step {
                            used.push((inject + i, at, d, true));
                            at ^= 1 << d;
                            used.push((inject + i, at, d, false));
                        }
                    }
                    let clash = used.iter().any(|&(cycle, node, d, out)| {
                        (out && links.contains(&(cycle, node, d)))
                            || (ports == PortMode::OnePort
                                && node_ports.get(&(cycle, node)).is_some_and(|&p| p != d))
                    });
                    if clash || elems == 0 {
                        continue;
                    }
                    for (cycle, node, d, out) in used {
                        if out {
                            links.insert((cycle, node, d));
                        }
                        node_ports.insert((cycle, node), d);
                    }
                }
                flights.push((src, inject, steps, elems));
            }
            let fit = flights
                .iter()
                .map(|(_, inject, steps, _)| {
                    let hops = steps.iter().rposition(Option::is_some).map_or(0, |i| i + 1);
                    if hops == 0 {
                        0
                    } else {
                        inject + hops
                    }
                })
                .max()
                .unwrap_or(0);
            let rounds = match rng.below(8) {
                0 if fit > 0 && !legal => fit - 1,
                1 | 2 => fit + 1 + rng.below(2) as usize,
                _ => fit,
            };
            Spec { n, ports, rounds, flights }
        }

        #[test]
        fn random_plans_run_alike_on_both_executors() {
            let mut seen = std::collections::BTreeMap::new();
            for seed in 0..600 {
                let outcome = both(&random_spec(seed, seed % 2 == 0));
                let kind = match &outcome {
                    Ok(_) => "ran",
                    Err(text) if text.starts_with("link contention") => "contention",
                    Err(text) if text.starts_with("one-port violation") => "one-port",
                    Err(text) if text.contains("-round plan") => "after the end",
                    Err(text) if text.starts_with("empty message") => "empty",
                    Err(text) => panic!("seed {seed}: unexpected panic {text}"),
                };
                *seen.entry(kind).or_insert(0) += 1;
            }
            for kind in ["ran", "contention", "one-port", "after the end"] {
                assert!(seen.get(kind).is_some_and(|&k| k >= 10), "too few `{kind}`: {seen:?}");
            }
        }

        fn spec(ports: PortMode, rounds: usize, flights: &[(u64, usize, &[Option<u32>])]) -> Spec {
            let flights = flights
                .iter()
                .map(|&(src, inject, steps)| (src, inject, steps.to_vec(), 2))
                .collect();
            Spec { n: 3, ports, rounds, flights }
        }

        #[test]
        fn contention_panics_alike() {
            // Node 1's flight reaches node 3 over dim 1 in cycle 0 and
            // leaves it over dim 2 in cycle 1, when node 3's own flight,
            // injected at cycle 1, takes the same link.
            let s = spec(PortMode::AllPorts, 3, &[(1, 0, &[Some(1), Some(2)]), (3, 1, &[Some(2)])]);
            assert_eq!(
                both(&s).unwrap_err(),
                "link contention: directed link 3--dim 2--> 7 used twice in round 1"
            );
        }

        #[test]
        fn one_port_violation_panics_alike() {
            // In cycle 0 node 0 sends over dim 0 and receives over dim 1.
            let s = spec(PortMode::OnePort, 2, &[(0, 0, &[Some(0)]), (2, 0, &[Some(1)])]);
            assert_eq!(
                both(&s).unwrap_err(),
                "one-port violation: node 0 used dims 0b11 in round 0"
            );
        }

        #[test]
        fn a_hop_after_the_plan_panics_alike() {
            let s = spec(PortMode::AllPorts, 2, &[(0, 0, &[Some(0)]), (5, 1, &[None, Some(1)])]);
            assert_eq!(
                both(&s).unwrap_err(),
                "flight 1 from 5: last hop in round 2 of a 2-round plan"
            );
        }
    }
}

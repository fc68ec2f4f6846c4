//! The flight executor: the one round loop of the movers that carry
//! whole arrays along dimension paths — §6.1's SPT / DPT / MPT
//! ([`crate::two_dim`]), §6.3's mixed-encoding transposes
//! ([`crate::gray`]) and Lemma 6's relocations ([`crate::permute`]).
//!
//! A *flight* is a payload, its source, an injection cycle and a
//! `(start, len)` path in the plan's byte arena, one entry per routing
//! step: a dimension to cross, or a *hold* ([`HOLD`], a byte no dimension
//! uses) on which the flight stays put and sends nothing. Leading holds
//! delay a flight as a later injection cycle does; trailing holds are not
//! written, so a flight without a hop is never sent. A plan carries its
//! length in rounds and its run closes exactly that many, empty ones
//! included.
//!
//! The run never moves a payload. Every payload is parked on its line
//! of the *delivery ledger* — `(source, landed at, payload)`, one line
//! per flight, in plan order — from the start. Each cycle, every live
//! flight that does not hold is charged to the net for its hop
//! ([`SimNet::charge`]: the link checks, the cost and the records a send
//! of the payload would make) and its position advances across the
//! dimension; the landing node is written to its line once, when its
//! path ends. The net never sees a payload, so nothing is delivered,
//! drained or matched back to its flight.

use cubeaddr::NodeId;
use cubesim::{Payload, SimNet};

/// The arena entry of a routing step on which a flight stays put.
const HOLD: u8 = u8::MAX;

/// A path in a [`FlightPlan`]'s arena: `arena[start..start + len]`.
#[derive(Clone, Copy)]
pub(crate) struct PathRef {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

/// One flight: a payload, its path, and its injection cycle.
pub(crate) struct Flight<P> {
    pub(crate) src: NodeId,
    pub(crate) path: PathRef,
    pub(crate) inject: usize,
    pub(crate) payload: P,
}

/// Every flight of one mover, the arena their paths live in (a dimension
/// fits a byte: `n ≤ 64`), and the plan's length in rounds.
pub(crate) struct FlightPlan<P> {
    pub(crate) arena: Vec<u8>,
    pub(crate) flights: Vec<Flight<P>>,
    rounds: usize,
}

impl<P> FlightPlan<P> {
    /// An empty plan `rounds` rounds long.
    pub(crate) fn new(rounds: usize) -> Self {
        FlightPlan { arena: Vec::new(), flights: Vec::new(), rounds }
    }

    /// Writes a path into the arena, one entry per routing step:
    /// `Some(dim)` crosses `dim`, `None` holds.
    pub(crate) fn path(&mut self, steps: impl IntoIterator<Item = Option<u32>>) -> PathRef {
        let start = self.arena.len();
        self.arena.extend(steps.into_iter().map(|step| step.map_or(HOLD, |d| d as u8)));
        while self.arena.len() > start && self.arena.last() == Some(&HOLD) {
            self.arena.pop();
        }
        // The end fitting u32 means every position before it does.
        let end = u32::try_from(self.arena.len()).expect("flight-plan arena exceeds 4 GiB");
        PathRef { start: start as u32, len: end - start as u32 }
    }

    /// Adds a flight of `payload` from `src` along `path`, taking its
    /// first step at cycle `inject`.
    pub(crate) fn fly(&mut self, src: NodeId, path: PathRef, inject: usize, payload: P) {
        self.flights.push(Flight { src, path, inject, payload });
    }

    /// Makes the plan exactly as long as its longest flight.
    pub(crate) fn fit_rounds(&mut self) {
        self.rounds =
            self.flights.iter().map(|f| f.inject + f.path.len as usize).max().unwrap_or(0);
    }
}

/// One flight's ledger line: its source, where its payload landed, and
/// the payload.
pub(crate) struct Landed<P> {
    pub(crate) src: NodeId,
    pub(crate) at: NodeId,
    pub(crate) payload: P,
}

/// Runs the plan for exactly its length in rounds, every flight taking
/// one step per cycle from its injection cycle on, and returns the
/// delivery ledger in plan order.
///
/// Panics, naming the flight, if its last hop falls after the plan's
/// length; inside the simulator if two flights contend for a directed
/// link — the runtime check of the edge-disjointness lemmas — or break
/// the port discipline.
pub(crate) fn run_flights<P: Payload>(net: &mut SimNet<P>, plan: FlightPlan<P>) -> Vec<Landed<P>> {
    /// A launched flight: its ledger line, its payload's size, the arena
    /// positions of its next step and of its path's end, and where it is.
    #[derive(Clone, Copy)]
    struct Live {
        id: usize,
        elems: usize,
        next: u32,
        end: u32,
        at: NodeId,
    }
    let FlightPlan { arena, flights, rounds } = plan;
    // The launch schedule is stably sorted by injection cycle and drained
    // through a cursor, one pass over it for the whole run.
    let mut ledger = Vec::with_capacity(flights.len());
    let mut waiting = Vec::with_capacity(flights.len());
    for (id, f) in flights.into_iter().enumerate() {
        let PathRef { start, len } = f.path;
        if len > 0 {
            let end = f.inject + len as usize;
            assert!(
                end <= rounds,
                "flight {id} from {}: last hop in round {} of a {rounds}-round plan",
                f.src,
                end - 1
            );
            let elems = f.payload.elems();
            waiting.push((f.inject, Live { id, elems, next: start, end: start + len, at: f.src }));
        }
        ledger.push(Landed { src: f.src, at: f.src, payload: f.payload });
    }
    waiting.sort_by_key(|&(inject, _)| inject);
    let mut waiting = waiting.into_iter().peekable();
    let mut live: Vec<Live> = Vec::new();
    for cycle in 0..rounds {
        while let Some((_, l)) = waiting.next_if(|&(inject, _)| inject == cycle) {
            live.push(l);
        }
        for l in &mut live {
            let dim = arena[l.next as usize];
            if dim != HOLD {
                net.charge(l.at, u32::from(dim), l.elems);
                l.at = l.at.neighbor(u32::from(dim));
            }
        }
        net.finish_round();
        live.retain_mut(|l| {
            l.next += 1;
            if l.next == l.end {
                ledger[l.id].at = l.at;
            }
            l.next != l.end
        });
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::{CommReport, MachineParams, PortMode};

    /// The executor the charged one replaced, kept as its oracle: every
    /// hop carries the payload through the net as a message and back out
    /// of [`SimNet::drain_all_with`] (in send order, the order of the live
    /// flights that hopped), checked against the hop its flight planned.
    fn run_flights_hop_by_hop<P: Payload + Default>(
        net: &mut SimNet<P>,
        plan: FlightPlan<P>,
    ) -> Vec<Landed<P>> {
        #[derive(Clone, Copy)]
        struct Live {
            id: usize,
            next: u32,
            end: u32,
            at: NodeId,
        }
        let FlightPlan { arena, flights, rounds } = plan;
        let mut ledger = Vec::with_capacity(flights.len());
        let mut waiting = Vec::with_capacity(flights.len());
        for (id, f) in flights.into_iter().enumerate() {
            let PathRef { start, len } = f.path;
            if len > 0 {
                let end = f.inject + len as usize;
                assert!(
                    end <= rounds,
                    "flight {id} from {}: last hop in round {} of a {rounds}-round plan",
                    f.src,
                    end - 1
                );
                waiting.push((f.inject, Live { id, next: start, end: start + len, at: f.src }));
            }
            ledger.push(Landed { src: f.src, at: f.src, payload: f.payload });
        }
        waiting.sort_by_key(|&(inject, _)| inject);
        let mut waiting = waiting.into_iter().peekable();
        let mut live: Vec<Live> = Vec::new();
        for cycle in 0..rounds {
            while let Some((_, l)) = waiting.next_if(|&(inject, _)| inject == cycle) {
                live.push(l);
            }
            for l in &live {
                let dim = arena[l.next as usize];
                if dim != HOLD {
                    let payload = std::mem::take(&mut ledger[l.id].payload);
                    net.send(l.at, u32::from(dim), payload);
                }
            }
            net.finish_round();
            let mut hopped = live.iter_mut().filter(|l| arena[l.next as usize] != HOLD);
            net.drain_all_with(|dst, dim, payload| {
                let l = hopped.next().expect("one delivery per hopping flight");
                let want = u32::from(arena[l.next as usize]);
                let next = l.at.neighbor(want);
                assert!(dst == next && dim == want, "flight {} delivered off its path", l.id);
                let line = &mut ledger[l.id];
                line.payload = payload;
                line.at = next;
                l.at = next;
            });
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
            plan.fly(NodeId(src), path, inject, vec![src]);
        }
        let mut net = SimNet::new(3, MachineParams::unit(PortMode::AllPorts));
        net.record_links();
        let ledger = run_flights(&mut net, plan);
        (ledger.iter().map(|l| l.at.bits()).collect(), net.finalize())
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
    /// ledger (sources, landing nodes, payloads) and the same report,
    /// history and link history included — or the same panic text.
    mod differential {
        use super::*;
        use std::collections::HashSet;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// SplitMix64, so a plan is a pure function of its seed.
        struct Rng(u64);

        impl Rng {
            fn below(&mut self, span: u64) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % span
            }
        }

        /// One flight as data: source, injection cycle, steps, payload.
        type FlightSpec = (u64, usize, Vec<Option<u32>>, Vec<u64>);

        /// A plan as data, so each executor gets its own copy: the cube,
        /// the port rule, the length in rounds and the flights.
        struct Spec {
            n: u32,
            ports: PortMode,
            rounds: usize,
            flights: Vec<FlightSpec>,
        }

        type Outcome = Result<(Vec<(u64, u64, Vec<u64>)>, CommReport), String>;

        fn outcome(spec: &Spec, charged: bool) -> Outcome {
            let mut plan = FlightPlan::new(spec.rounds);
            for (src, inject, steps, payload) in &spec.flights {
                let path = plan.path(steps.iter().copied());
                plan.fly(NodeId(*src), path, *inject, payload.clone());
            }
            let params = MachineParams::intel_ipsc().with_ports(spec.ports).with_max_packet(2);
            catch_unwind(AssertUnwindSafe(|| {
                let mut net = SimNet::new(spec.n, params);
                net.record_history();
                net.record_links();
                let ledger = if charged {
                    run_flights(&mut net, plan)
                } else {
                    run_flights_hop_by_hop(&mut net, plan)
                };
                let lines = ledger.into_iter().map(|l| (l.src.bits(), l.at.bits(), l.payload));
                (lines.collect(), net.finalize())
            }))
            .map_err(|e| match e.downcast::<String>() {
                Ok(text) => *text,
                Err(e) => {
                    e.downcast::<&str>().map_or("<non-string panic>".into(), |t| t.to_string())
                }
            })
        }

        /// Both executors' outcome, once they are known to agree.
        fn both(spec: &Spec) -> Outcome {
            let charged = outcome(spec, true);
            assert_eq!(charged, outcome(spec, false), "charged executor diverges from the oracle");
            charged
        }

        /// A random plan on a cube of at most 5 dimensions: holds,
        /// staggered injections, payloads of 1–3 elements (rarely none).
        /// When `legal`, a flight that would share a directed link in a
        /// cycle with an earlier one, or a node's port under one-port
        /// rules, is left out; otherwise clashes are likely. The length
        /// is the longest flight's, sometimes a round or two more and
        /// sometimes one short.
        fn random_spec(seed: u64, legal: bool) -> Spec {
            let mut rng = Rng(seed);
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
                let len = if rng.below(50) == 0 { 0 } else { 1 + rng.below(3) };
                let payload = (0..len).map(|i| src * 10 + i).collect();
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
                    if clash || len == 0 {
                        continue;
                    }
                    for (cycle, node, d, out) in used {
                        if out {
                            links.insert((cycle, node, d));
                        }
                        node_ports.insert((cycle, node), d);
                    }
                }
                flights.push((src, inject, steps, payload));
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
                .map(|&(src, inject, steps)| (src, inject, steps.to_vec(), vec![src; 2]))
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

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
//! The run lands every payload once, in a *delivery ledger*: one
//! `(source, landed at, payload)` line per flight, in plan order. Between
//! hops a payload is parked on its line; each round's deliveries come
//! back from [`SimNet::drain_all_with`] in send order — the order of the
//! live flights that hopped — and each is checked to be the hop its
//! flight planned.

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
/// length or a delivery is not the hop it planned; inside the simulator
/// if two flights contend for a directed link — the runtime check of the
/// edge-disjointness lemmas — or break the port discipline.
pub(crate) fn run_flights<P: Payload + Default>(
    net: &mut SimNet<P>,
    plan: FlightPlan<P>,
) -> Vec<Landed<P>> {
    /// A launched flight: its ledger line, the arena positions of its
    /// next step and of its path's end, and where its payload is.
    #[derive(Clone, Copy)]
    struct Live {
        id: usize,
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
        // Every live flight not holding advances one hop: the payload
        // itself moves (no per-hop clone) and comes back through the
        // drain below, in `live`'s order with the holds skipped.
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
            let line = &mut ledger[l.id];
            assert!(
                dst == next && dim == want,
                "flight {} from {}: hop from {} planned to {next} on dim {want}, delivered at \
                 {dst} on dim {dim}",
                l.id,
                line.src,
                l.at
            );
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

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::{CommReport, MachineParams, PortMode};

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
}

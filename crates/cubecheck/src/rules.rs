//! The invariant checkers.
//!
//! Each checker consumes a [`Lowered`] schedule and returns structured
//! [`Diag`]s; [`check_all`] runs all five. The checkers are independent
//! by construction — the corruption tests in `tests/corruption.rs` rely
//! on a single broken invariant firing exactly its own rule.
//!
//! # One ordered walk
//!
//! The rules run on dense arrays and one pass over the claims, not on
//! per-round maps or per-block hop lists:
//!
//! - **Key order.** [`check_all`] walks the claims once, in
//!   `(round, src, dim)` order. Every built plan's claims already ascend
//!   by that key (each round's messages ascend by channel), so one
//!   linear check lets the walk run over [`Lowered::claims`] in place.
//!   Claims in any other order (hand-built, corrupted) are walked
//!   through one stable index sort by the key.
//! - **Block ids.** A claim's blocks are a range of the lowering's one
//!   id arena ([`Lowered::ids`]), so no rule chases a list per claim.
//! - **Per-claim rules.** Whether a claim names a link (the structural
//!   half of the port model), its packet budget, and its size against
//!   its blocks' are checked as the walk passes it; their diagnostics
//!   are held with the claim's index and come out in schedule order.
//! - **Edge-disjointness.** Two claims of one directed link in one
//!   round have equal keys, so they are adjacent in the walk: each run
//!   of equal keys longer than one is reported once, with its length.
//! - **Conservation.** The walk meets each block's hops in key order,
//!   so one record per block — where it is, the round and port of its
//!   last hop, whether its chain broke — follows every chain as the
//!   claims pass. A break is held until the walk ends and reported in
//!   block-id order, each block's in its place among the blocks whose
//!   chain ends off their destination.
//! - **Deadlock freedom by rank.** When every block's consecutive hops
//!   cross strictly ascending ports (or every block's strictly
//!   descending ones), each edge of the channel dependency graph climbs
//!   (or falls) a fixed rank, the port, so the graph is acyclic — the
//!   Dally–Seitz argument for e-cube routing, and the paper's for its §7
//!   routing logic. The same per-block record checks it during the walk;
//!   only a lowering that fails it gets the graph built, from a second
//!   walk, and searched.
//! - **Ports.** Under one-port only, the one-port rule walks the claims
//!   a second time, a round at a time,
//!   each round's in schedule order, since its text names whichever
//!   claim comes first: in place when the claims ascend by round, else
//!   through a stable index sort by round. Per-node slots carry the
//!   stamp of the round that last wrote them, so nothing is cleared
//!   between rounds.
//! - **Channel ids.** The directed link `(src, dim)` is channel
//!   `src * ports + dim`, dense over `num_nodes * ports`. A pair only a
//!   corrupted lowering names (`dim >= ports` or `src >= num_nodes`) gets
//!   an id of its own after the real ones, in ascending `(src, dim)`
//!   order, so it can neither overflow the arithmetic nor alias a real
//!   channel; the walk collects those pairs. The one-port rule and the
//!   dependency graph name links by channel id.
//!
//! Cost is linear in claims + block ids + blocks; a lowering out of key
//! order adds one sort of the claim indices, and one without a port rank
//! the sort of its dependency edges and the search.

use crate::diag::{Diag, Rule};
use crate::ir::{LinkClaim, Lowered};
use cubesim::{MachineParams, PortMode};
use cubetopo::Topology;

/// Runs every checker; diagnostics come back grouped by rule, in
/// schedule order within each rule.
pub fn check_all(low: &Lowered, params: &MachineParams) -> Vec<Diag> {
    let order = sorted_by(low, key);
    let walk = Walk::new(low, Some(params), order.as_deref());
    let chans = Channels::new(low, walk.extra);
    let mut diags = walk.unlinked;
    diags.extend(one_port(low, &chans));
    diags.extend(walk.exclusive);
    diags.extend(walk.budget);
    diags.extend(walk.conservation);
    diags.extend(deadlock_free(low, &chans, order.as_deref(), walk.ranked));
    diags
}

fn diag(low: &Lowered, rule: Rule, detail: String) -> Diag {
    Diag {
        schedule: low.name.clone(),
        rule,
        round: None,
        node: None,
        dim: None,
        block: None,
        detail,
    }
}

/// A claim's walk key (see the module docs).
fn key(c: &LinkClaim) -> (usize, u64, u32) {
    (c.round, c.src, c.dim)
}

/// The claims' indices stably sorted by `by`, or `None` when the claims
/// already ascend by it.
fn sorted_by<K: Ord>(low: &Lowered, by: impl Fn(&LinkClaim) -> K) -> Option<Vec<u32>> {
    if low.claims.is_sorted_by_key(&by) {
        return None;
    }
    assert!(u32::try_from(low.claims.len()).is_ok(), "claim indices exceed 32 bits");
    let mut order: Vec<u32> = (0..low.claims.len() as u32).collect();
    order.sort_by_key(|&i| by(&low.claims[i as usize]));
    Some(order)
}

/// Calls `f` with every claim and its index, in `order` (`None`: as
/// listed).
fn each<'a>(low: &'a Lowered, order: Option<&[u32]>, mut f: impl FnMut(usize, &'a LinkClaim)) {
    match order {
        None => low.claims.iter().enumerate().for_each(|(i, c)| f(i, c)),
        Some(order) => order.iter().for_each(|&i| f(i as usize, &low.claims[i as usize])),
    }
}

/// Dense channel ids (see the module docs).
struct Channels {
    num: u64,
    ports: u32,
    /// `num * ports`: the first id past the real channels.
    real: u32,
    /// The out-of-range pairs the claims name, sorted; pair `i` is
    /// channel `real + i`.
    extra: Vec<(u64, u32)>,
}

impl Channels {
    /// The ids of `low`'s topology and of the out-of-range pairs `extra`
    /// its claims name (in any order, repeats allowed).
    ///
    /// # Panics
    /// Naming the topology, if the ids exceed 32 bits.
    fn new(low: &Lowered, mut extra: Vec<(u64, u32)>) -> Self {
        let (num, ports) = (low.topo.num_nodes() as u64, low.topo.ports());
        extra.sort_unstable();
        extra.dedup();
        let total =
            num.checked_mul(u64::from(ports)).and_then(|real| real.checked_add(extra.len() as u64));
        assert!(
            total.is_some_and(|total| total <= u64::from(u32::MAX)),
            "{}: {num} nodes x {ports} ports exceed the 32-bit channel index",
            low.topo.label()
        );
        Channels { num, ports, real: (num * u64::from(ports)) as u32, extra }
    }

    /// [`Channels::new`] of every out-of-range pair `low`'s claims name.
    fn of(low: &Lowered) -> Self {
        let (num, ports) = (low.topo.num_nodes() as u64, low.topo.ports());
        let extra = low.claims.iter().filter(|c| c.dim >= ports || c.src >= num);
        Channels::new(low, extra.map(|c| (c.src, c.dim)).collect())
    }

    fn len(&self) -> usize {
        self.real as usize + self.extra.len()
    }

    fn id(&self, src: u64, dim: u32) -> u32 {
        if dim < self.ports && src < self.num {
            (src * u64::from(self.ports) + u64::from(dim)) as u32
        } else {
            let i = self.extra.binary_search(&(src, dim)).expect("every claimed pair has an id");
            self.real + i as u32
        }
    }

    fn pair(&self, id: u32) -> (u64, u32) {
        match id.checked_sub(self.real) {
            Some(i) => self.extra[i as usize],
            None => (u64::from(id / self.ports), id % self.ports),
        }
    }
}

/// One block's delivery chain, as far as the walk has followed it.
#[derive(Clone, Copy)]
struct Chain {
    /// The node the block is at.
    at: u64,
    /// The round and port of its last hop, broken chains included.
    last: Option<(usize, u32)>,
    /// Whether the chain broke (its diagnostic is held).
    broken: bool,
}

/// What the key-ordered walk finds (see the module docs). Diagnostics
/// of one claim come out in schedule order, whatever the walk's.
struct Walk {
    /// The claims that name no link (port-model diagnostics).
    unlinked: Vec<Diag>,
    /// The out-of-range `(src, dim)` pairs the claims name, repeats
    /// included.
    extra: Vec<(u64, u32)>,
    /// Edge-disjointness diagnostics, in key order.
    exclusive: Vec<Diag>,
    /// Packet-budget diagnostics (empty unless the walk was given the
    /// machine).
    budget: Vec<Diag>,
    /// Conservation diagnostics: the claims' own, in schedule order,
    /// then the chains', in block-id order.
    conservation: Vec<Diag>,
    /// Whether every block's hops climb in port, or every block's fall.
    ranked: bool,
}

impl Walk {
    fn new(low: &Lowered, params: Option<&MachineParams>, order: Option<&[u32]>) -> Self {
        let topo = low.topo;
        let (num, ports) = (topo.num_nodes() as u64, topo.ports());
        let mut chains: Vec<Chain> = low
            .blocks
            .iter()
            .map(|b| Chain { at: b.src.bits(), last: None, broken: false })
            .collect();
        let (mut extra, mut exclusive) = (Vec::new(), Vec::new());
        // `(claim index, diag)` of the claims that name no link, break
        // the packet budget, or whose size or ids are wrong; and
        // `(block id, diag)` of broken chains.
        let mut unlinked: Vec<(usize, Diag)> = Vec::new();
        let mut budget: Vec<(usize, Diag)> = Vec::new();
        let mut claimed: Vec<(usize, Diag)> = Vec::new();
        let mut breaks: Vec<(u32, Diag)> = Vec::new();
        let (mut up, mut down) = (true, true);
        let contended = |c: &LinkClaim, count: u32| {
            let mut d = diag(
                low,
                Rule::LinkExclusive,
                format!("{count} messages claim one directed link in one round"),
            );
            (d.round, d.node, d.dim) = (Some(c.round), Some(c.src), Some(c.dim));
            d
        };
        // The current run of equal keys: its first claim and its length.
        let mut run: Option<(&LinkClaim, u32)> = None;
        each(low, order, |i, c| {
            let in_range = c.dim < ports && c.src < num;
            if !in_range {
                extra.push((c.src, c.dim));
            }
            // The far end of the claim's link, if it names one.
            let far = in_range.then(|| topo.neighbor(c.src, c.dim)).flatten();
            if far.is_none() {
                unlinked.push((i, no_link(low, c)));
            }
            if let Some(d) = params.and_then(|params| over_budget(low, params, c)) {
                budget.push((i, d));
            }
            match &mut run {
                Some((first, count)) if key(first) == key(c) => *count += 1,
                _ => {
                    if let Some((first, count @ 2..)) = run.replace((c, 1)) {
                        exclusive.push(contended(first, count));
                    }
                }
            }
            let mut sum = 0u64;
            let mut bad_id = None;
            for &b in low.ids(c) {
                let Some(meta) = low.blocks.get(b as usize) else {
                    bad_id = bad_id.or(Some(b));
                    continue;
                };
                sum += meta.elems;
                let chain = &mut chains[b as usize];
                if let Some((_, port)) = chain.last {
                    up &= port < c.dim;
                    down &= port > c.dim;
                }
                if !chain.broken {
                    let detail = if chain.last.is_some_and(|(round, _)| round == c.round) {
                        Some("block claimed twice in one round".to_string())
                    } else if c.src != chain.at {
                        Some(format!(
                            "claimed to depart node {} but the block is at node {}",
                            c.src, chain.at
                        ))
                    } else {
                        // The block is at `c.src`, so it moves to `far`.
                        match far {
                            Some(next) => {
                                chain.at = next;
                                None
                            }
                            // The hop names no link of the topology
                            // (PortModel reports the claim itself); the
                            // chain cannot continue past it.
                            None => Some(format!(
                                "block routed over a nonexistent link of the {}",
                                topo.label()
                            )),
                        }
                    };
                    if let Some(detail) = detail {
                        chain.broken = true;
                        let mut d = diag(low, Rule::Conservation, detail);
                        (d.round, d.node, d.dim, d.block) =
                            (Some(c.round), Some(c.src), Some(c.dim), Some(b));
                        breaks.push((b, d));
                    }
                }
                chain.last = Some((c.round, c.dim));
            }
            let detail = match bad_id {
                Some(_) => Some("claim carries an unknown block".to_string()),
                None => (sum != c.elems).then(|| {
                    format!("claim declares {} elems but its blocks total {}", c.elems, sum)
                }),
            };
            if let Some(detail) = detail {
                let mut d = diag(low, Rule::Conservation, detail);
                (d.round, d.node, d.dim, d.block) =
                    (Some(c.round), Some(c.src), Some(c.dim), bad_id);
                claimed.push((i, d));
            }
        });
        if let Some((first, count @ 2..)) = run {
            exclusive.push(contended(first, count));
        }
        let in_schedule_order = |mut diags: Vec<(usize, Diag)>| {
            diags.sort_by_key(|&(i, _)| i);
            diags.into_iter().map(|(_, d)| d).collect::<Vec<Diag>>()
        };
        breaks.sort_by_key(|&(b, _)| b);
        let mut conservation = in_schedule_order(claimed);
        let mut breaks = breaks.into_iter().map(|(_, d)| d);
        for (id, (meta, chain)) in low.blocks.iter().zip(&chains).enumerate() {
            if chain.broken {
                conservation.extend(breaks.next());
            } else if chain.at != meta.dst.bits() {
                let mut d = diag(
                    low,
                    Rule::Conservation,
                    format!(
                        "element dropped: delivery chain ends at node {}, not node {}",
                        chain.at, meta.dst
                    ),
                );
                (d.node, d.block) = (Some(chain.at), Some(id as u32));
                conservation.push(d);
            }
        }
        Walk {
            unlinked: in_schedule_order(unlinked),
            extra,
            exclusive,
            budget: in_schedule_order(budget),
            conservation,
            ranked: up || down,
        }
    }
}

/// Port-model compliance (paper §2): claims name real links, and under
/// one-port communication each node touches at most one link per round.
/// A node may send *and* receive on that one link (bidirectional
/// exchange), so the constraint is on *distinct* links, both endpoints
/// counted — exactly the discipline [`cubesim::SimNet`] enforces
/// dynamically.
pub fn check_port_model(low: &Lowered) -> Vec<Diag> {
    let mut diags: Vec<Diag> =
        low.claims.iter().filter(|&c| unlinked(low, c)).map(|c| no_link(low, c)).collect();
    diags.extend(one_port(low, &Channels::of(low)));
    diags
}

/// Whether `c` names no link: an endpoint out of range, or an unwired
/// port (a cube port always is wired; a Dragonfly group's swap fixed
/// point is not).
fn unlinked(low: &Lowered, c: &LinkClaim) -> bool {
    let topo = low.topo;
    c.dim >= topo.ports()
        || c.src >= topo.num_nodes() as u64
        || topo.neighbor(c.src, c.dim).is_none()
}

fn no_link(low: &Lowered, c: &LinkClaim) -> Diag {
    let mut d =
        diag(low, Rule::PortModel, format!("claim names no link of the {}", low.topo.label()));
    (d.round, d.node, d.dim) = (Some(c.round), Some(c.src), Some(c.dim));
    d
}

/// The one-port half of [`check_port_model`]: each node touches at most
/// one link per round (claims naming no link are reported by the other
/// half and skipped here).
fn one_port(low: &Lowered, chans: &Channels) -> Vec<Diag> {
    let mut diags = Vec::new();
    if low.ports != PortMode::OnePort {
        return diags;
    }
    let topo = low.topo;
    // Per node: the stamp of the round it last used a link in, that one
    // undirected link (canonically named from its lower endpoint), the
    // dim that claimed it, and whether the node was reported that round.
    // On the cube both ends number a link by its dimension, so "one link"
    // coincides with "one dim".
    #[derive(Clone, Copy)]
    struct Slot {
        stamp: u32,
        link: u32,
        dim: u32,
        reported: bool,
    }
    let mut slots = vec![Slot { stamp: 0, link: 0, dim: 0, reported: false }; topo.num_nodes()];
    // Rounds ascending, each round's claims in schedule order; a stamp
    // unique to each round.
    let (mut stamp, mut round) = (0u32, None);
    each(low, sorted_by(low, |c| c.round).as_deref(), |_, c| {
        if round != Some(c.round) {
            (stamp, round) = (stamp + 1, Some(c.round));
        }
        if unlinked(low, c) {
            return; // reported structurally
        }
        let far = topo.neighbor(c.src, c.dim).expect("wired: checked above");
        let link = if c.src <= far {
            chans.id(c.src, c.dim)
        } else {
            chans.id(far, topo.reverse_port(c.src, c.dim).expect("wired: checked above"))
        };
        for endpoint in [c.src, far] {
            let slot = &mut slots[endpoint as usize];
            if slot.stamp != stamp {
                *slot = Slot { stamp, link, dim: c.dim, reported: false };
            } else if slot.link != link && !slot.reported {
                slot.reported = true;
                let mut d = diag(
                    low,
                    Rule::PortModel,
                    format!(
                        "one-port node uses links on dims {} and {} in one round",
                        slot.dim, c.dim
                    ),
                );
                (d.round, d.node, d.dim) = (Some(c.round), Some(endpoint), Some(c.dim));
                diags.push(d);
            }
        }
    });
    diags
}

/// Edge-disjointness within a round (§3/§8.1): one message per directed
/// link per round.
pub fn check_link_exclusive(low: &Lowered) -> Vec<Diag> {
    Walk::new(low, None, sorted_by(low, key).as_deref()).exclusive
}

/// Packet budget (§2): every message carries data and declares enough
/// packets that none exceeds `B_m`.
pub fn check_packet_budget(low: &Lowered, params: &MachineParams) -> Vec<Diag> {
    low.claims.iter().filter_map(|c| over_budget(low, params, c)).collect()
}

fn over_budget(low: &Lowered, params: &MachineParams, c: &LinkClaim) -> Option<Diag> {
    let detail = if c.elems == 0 {
        "empty message (a start-up with no data)".to_string()
    } else {
        let need = params.packets(c.elems as usize) as u64;
        if c.packets >= need {
            return None;
        }
        format!(
            "{} elems need {} packets of <= {} elems, claim declares {}",
            c.elems, need, params.max_packet, c.packets
        )
    };
    let mut d = diag(low, Rule::PacketBudget, detail);
    (d.round, d.node, d.dim) = (Some(c.round), Some(c.src), Some(c.dim));
    Some(d)
}

/// Element conservation (§3): claim sizes are exactly the sums of their
/// blocks, and every block's hops chain its source to its destination,
/// one claim per hop, rounds strictly increasing.
pub fn check_conservation(low: &Lowered) -> Vec<Diag> {
    Walk::new(low, None, sorted_by(low, key).as_deref()).conservation
}

/// Deadlock freedom for dimension-ordered schedules: the channel
/// dependency graph — one channel per `(node, dim)`, one edge per
/// consecutive hop pair of any block — must be acyclic (the Dally–Seitz
/// condition the e-cube order guarantees). Schedules not flagged
/// dimension-ordered are skipped: their safety argument is the
/// round-synchronous barrier, not channel ordering. A lowering whose
/// hops all climb (or all fall) in port is acyclic by that rank and is
/// not searched (see the module docs). Of several cycles, the one
/// reported is the first a depth-first search meets from the lowest
/// channel, successors ascending.
pub fn check_deadlock_free(low: &Lowered) -> Vec<Diag> {
    let order = sorted_by(low, key);
    let ranked = Walk::new(low, None, order.as_deref()).ranked;
    deadlock_free(low, &Channels::of(low), order.as_deref(), ranked)
}

fn deadlock_free(
    low: &Lowered,
    chans: &Channels,
    order: Option<&[u32]>,
    ranked: bool,
) -> Vec<Diag> {
    if !low.dimension_ordered || ranked {
        return Vec::new();
    }
    // The graph's edges, from a second walk: each block's channel to the
    // next one it crosses. Ids naming no block are left out
    // (conservation reports the claim).
    const NONE: u32 = u32::MAX;
    let mut last = vec![NONE; low.blocks.len()];
    let mut edges: Vec<(u32, u32)> = Vec::new();
    each(low, order, |_, c| {
        let ch = chans.id(c.src, c.dim);
        for &b in low.ids(c) {
            if let Some(prev) = last.get_mut(b as usize) {
                if *prev != NONE {
                    edges.push((*prev, ch));
                }
                *prev = ch;
            }
        }
    });
    let total = edges.len();
    assert!(u32::try_from(total).is_ok(), "{total} index entries exceed the 32-bit offsets");
    edges.sort_unstable();
    // Channel `c`'s successors, ascending, are `succ[start[c]..start[c + 1]]`.
    let mut start = vec![0u32; chans.len() + 1];
    for &(from, _) in &edges {
        start[from as usize + 1] += 1;
    }
    for ch in 0..chans.len() {
        start[ch + 1] += start[ch];
    }
    let succ: Vec<u32> = edges.into_iter().map(|(_, to)| to).collect();
    // Iterative three-color DFS; a back edge is a cycle. A repeated
    // successor is black by its second visit, so edges need no dedup.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; chans.len()];
    // Stack of (channel, position of its next successor in `succ`).
    let mut stack: Vec<(u32, u32)> = Vec::new();
    for root in 0..chans.len() as u32 {
        if color[root as usize] != WHITE {
            continue;
        }
        color[root as usize] = GRAY;
        stack.push((root, start[root as usize]));
        while let Some(frame) = stack.last_mut() {
            let (c, i) = *frame;
            if i == start[c as usize + 1] {
                color[c as usize] = BLACK;
                stack.pop();
                continue;
            }
            frame.1 += 1;
            let next = succ[i as usize];
            match color[next as usize] {
                WHITE => {
                    color[next as usize] = GRAY;
                    stack.push((next, start[next as usize]));
                }
                GRAY => {
                    // Reconstruct the cycle from the gray stack.
                    let start = stack.iter().position(|&(x, _)| x == next).unwrap_or(0);
                    let cycle: Vec<String> = stack[start..]
                        .iter()
                        .map(|&(x, _)| {
                            let (node, dim) = chans.pair(x);
                            format!("({node}, dim {dim})")
                        })
                        .collect();
                    let mut d = diag(
                        low,
                        Rule::DeadlockFree,
                        format!("channel dependency cycle: {} -> back", cycle.join(" -> ")),
                    );
                    let (node, dim) = chans.pair(next);
                    (d.node, d.dim) = (Some(node), Some(dim));
                    return vec![d];
                }
                _ => {}
            }
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower;
    use cubeaddr::NodeId;
    use cubecomm::plan::{
        all_to_all_exchange_plan, ecube_route_plan, exchange_plan, one_to_all_sbt_plan, BlockMeta,
        CommSchedule, PlanRound, PlannedMsg,
    };
    use cubecomm::BufferPolicy;
    use cubetopo::TopoSpec;

    fn unit(ports: PortMode) -> MachineParams {
        MachineParams::unit(ports)
    }

    fn meta(src: u64, dst: u64) -> BlockMeta {
        BlockMeta { src: NodeId(src), dst: NodeId(dst), elems: 1 }
    }

    fn ranked(low: &Lowered) -> bool {
        Walk::new(low, None, sorted_by(low, key).as_deref()).ranked
    }

    /// Two blocks from node 0 to node 3 of the 2-cube, one over dims 0
    /// then 1, the other over dims 1 then 0. Neither port direction ranks
    /// the hops, so the graph is built and searched — and it has no
    /// cycle.
    #[test]
    fn mixed_port_directions_are_searched_and_pass() {
        // Block `b` is arena entry `b`.
        let msg = |src: u64, dim: u32, block: u32| PlannedMsg {
            src: NodeId(src),
            dim,
            blocks: block..block + 1,
        };
        let plan = CommSchedule {
            name: "mixed".into(),
            topo: TopoSpec::hypercube(2),
            ports: PortMode::AllPorts,
            dimension_ordered: true,
            blocks: vec![meta(0, 3), meta(0, 3)],
            block_ids: vec![0, 1],
            rounds: vec![
                PlanRound { msgs: vec![msg(0, 0, 0), msg(0, 1, 1)], copies: vec![] },
                PlanRound { msgs: vec![msg(1, 1, 0), msg(2, 0, 1)], copies: vec![] },
            ],
        };
        let low = lower(&plan, &unit(PortMode::AllPorts));
        assert!(!ranked(&low));
        assert!(check_all(&low, &unit(PortMode::AllPorts)).is_empty());
    }

    /// The exchange over the dimensions highest first: every block's
    /// hops fall in port, which proves the graph acyclic without a
    /// search.
    #[test]
    fn descending_exchange_is_ranked_and_passes() {
        let blocks: Vec<BlockMeta> =
            (0..16).flat_map(|s| (0..16).map(move |d| meta(s, d))).collect();
        let dims = [3, 2, 1, 0];
        let plan =
            exchange_plan(4, blocks, &dims, BufferPolicy::Ideal, PortMode::OnePort, "descending");
        let low = lower(&plan, &unit(PortMode::OnePort));
        assert!(low.dimension_ordered);
        assert!(low.claims.iter().any(|c| low.ids(c).len() > 1), "blocks share hops");
        assert!(ranked(&low));
        assert!(check_all(&low, &unit(PortMode::OnePort)).is_empty());
    }

    /// The e-cube plan climbs in port; four blocks chasing each other
    /// round one face of the cube in two appended rounds break the rank,
    /// and the search reports their cycle.
    #[test]
    fn face_cycle_on_an_ascending_lowering_is_found() {
        let params = unit(PortMode::AllPorts);
        let plan = ecube_route_plan(4, &crate::workloads::transpose_msgs(4, 3));
        let mut low = lower(&plan, &params);
        assert!(ranked(&low));
        let (base, round) = (low.blocks.len() as u32, low.rounds);
        low.blocks.extend([meta(0, 3), meta(1, 2), meta(3, 0), meta(2, 1)]);
        for (round, src, dim, block) in [
            (round, 0, 0, 0),
            (round, 1, 1, 1),
            (round, 3, 0, 2),
            (round, 2, 1, 3),
            (round + 1, 1, 1, 0),
            (round + 1, 3, 0, 1),
            (round + 1, 2, 1, 2),
            (round + 1, 0, 0, 3),
        ] {
            let blocks = low.push_ids(&[base + block]);
            low.claims.push(LinkClaim { round, src, dim, elems: 1, packets: 1, blocks });
        }
        low.rounds += 2;
        assert!(!ranked(&low));
        let diags = check_all(&low, &params);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::DeadlockFree);
        assert_eq!((diags[0].node, diags[0].dim), (Some(0), Some(0)));
        assert_eq!(
            diags[0].detail,
            "channel dependency cycle: (0, dim 0) -> (1, dim 1) -> (3, dim 0) -> (2, dim 1) -> back"
        );
    }

    #[test]
    fn clean_exchange_plan_passes_all_rules() {
        let sizes = vec![vec![3u64; 8]; 8];
        for policy in [
            BufferPolicy::Ideal,
            BufferPolicy::Unbuffered,
            BufferPolicy::Buffered { min_direct: 6 },
        ] {
            let plan = all_to_all_exchange_plan(3, &sizes, policy, PortMode::OnePort);
            let low = lower(&plan, &unit(PortMode::OnePort));
            let diags = check_all(&low, &unit(PortMode::OnePort));
            assert!(diags.is_empty(), "{policy:?}: {}", diags[0]);
        }
    }

    #[test]
    fn clean_router_and_sbt_plans_pass() {
        let msgs: Vec<(NodeId, NodeId, u64)> =
            (0..16u64).map(|x| (NodeId(x), NodeId(15 - x), 3)).collect();
        let plan = ecube_route_plan(4, &msgs);
        let low = lower(&plan, &unit(PortMode::AllPorts));
        assert!(check_all(&low, &unit(PortMode::AllPorts)).is_empty());

        let sizes: Vec<u64> = (0..16).map(|d| d % 4).collect();
        let plan = one_to_all_sbt_plan(4, NodeId(3), &sizes);
        let low = lower(&plan, &unit(PortMode::OnePort));
        assert!(check_all(&low, &unit(PortMode::OnePort)).is_empty());
    }

    #[test]
    fn one_port_violation_detected() {
        // Two claims at the same node on different dims in one round.
        let msgs = vec![(NodeId(0), NodeId(1), 2), (NodeId(0), NodeId(2), 2)];
        let plan = ecube_route_plan(2, &msgs);
        let mut low = lower(&plan, &unit(PortMode::OnePort));
        low.ports = PortMode::OnePort; // the router plans n-port; reinterpret
        let diags = check_port_model(&low);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::PortModel);
        assert_eq!(diags[0].node, Some(0));
        // Same schedule under n-port is clean.
        low.ports = PortMode::AllPorts;
        assert!(check_port_model(&low).is_empty());
    }

    #[test]
    fn bidirectional_exchange_is_one_port_legal() {
        // Nodes 0 and 1 swap over dim 0 in the same round: both endpoints
        // use one link. SimNet allows this; so must the checker.
        let sizes: Vec<Vec<u64>> = vec![vec![0, 2], vec![2, 0]];
        let plan = all_to_all_exchange_plan(1, &sizes, BufferPolicy::Ideal, PortMode::OnePort);
        let low = lower(&plan, &unit(PortMode::OnePort));
        assert!(check_all(&low, &unit(PortMode::OnePort)).is_empty());
    }
}

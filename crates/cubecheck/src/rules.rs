//! The invariant checkers.
//!
//! Each checker consumes a [`Lowered`] schedule and returns structured
//! [`Diag`]s; [`check_all`] runs all five. The checkers are independent
//! by construction — the corruption tests in `tests/corruption.rs` rely
//! on a single broken invariant firing exactly its own rule.
//!
//! # Flat indexes
//!
//! The rules run on dense arrays, not per-round maps:
//!
//! - **Channel ids.** The directed link `(src, dim)` is channel
//!   `src * ports + dim`, dense over `num_nodes * ports`. A pair only a
//!   corrupted lowering names (`dim >= ports` or `src >= num_nodes`) gets
//!   an id of its own after the real ones, in ascending `(src, dim)`
//!   order, so it can neither overflow the arithmetic nor alias a real
//!   channel.
//! - **Rounds.** The claims are stably sorted by round (one pass for a
//!   lowering already in schedule order) and walked a round at a time.
//!   Per-node and per-channel slots carry the stamp of the round that
//!   last wrote them, so nothing is cleared between rounds.
//! - **Block ids.** A claim's blocks are a range of the lowering's one
//!   id arena ([`Lowered::ids`]), so no rule chases a list per claim.
//! - **Block hops.** One compressed index of every block's hops, each
//!   block's slice sorted by `(round, src, dim)`. [`check_all`] builds it
//!   once for the conservation and deadlock rules. It is a counting sort
//!   by block, which keeps each slice in claim order; when the claims
//!   already ascend by `(round, src, dim)` — every built plan's do, since
//!   each round's messages ascend by channel — one linear check stands
//!   in for the per-block sorts. Claims in any other order (hand-built,
//!   corrupted) get them.
//! - **Deadlock freedom by rank.** When every block's consecutive hops
//!   cross strictly ascending ports (or every block's strictly
//!   descending ones), each edge of the channel dependency graph climbs
//!   (or falls) a fixed rank, the port, so the graph is acyclic — the
//!   Dally–Seitz argument for e-cube routing, and the paper's for its §7
//!   routing logic. One pass over the hops checks it; only a lowering
//!   that fails it gets the graph built and searched.
//!
//! Cost is linear in claims + channels, plus one sort per round of that
//! round's duplicate links; a lowering out of key order adds the short
//! sorts of each block's hops, and one without a port rank the sorts of
//! each channel's successors and the search.

use crate::diag::{Diag, Rule};
use crate::ir::{LinkClaim, Lowered};
use cubesim::{MachineParams, PortMode};
use cubetopo::Topology;

/// Runs every checker; diagnostics come back grouped by rule, in
/// schedule order within each rule.
pub fn check_all(low: &Lowered, params: &MachineParams) -> Vec<Diag> {
    let rounds = by_round(low);
    let chans = Channels::new(low);
    let hops = block_hops(low);
    let mut diags = port_model(low, &rounds, &chans);
    diags.extend(link_exclusive(low, &rounds, &chans));
    diags.extend(check_packet_budget(low, params));
    diags.extend(conservation(low, &hops));
    diags.extend(deadlock_free(low, &chans, &hops));
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

/// The claims stably sorted by round (rounds beyond [`Lowered::rounds`]
/// included, so corrupted schedules still group sanely).
fn by_round(low: &Lowered) -> Vec<&LinkClaim> {
    let mut claims: Vec<&LinkClaim> = low.claims.iter().collect();
    claims.sort_by_key(|c| c.round);
    claims
}

/// One round's claims at a time, rounds ascending, each round's claims in
/// schedule order, paired with a stamp unique to the round.
fn rounds_of<'a>(
    sorted: &'a [&'a LinkClaim],
) -> impl Iterator<Item = (u32, &'a [&'a LinkClaim])> + 'a {
    (1u32..).zip(sorted.chunk_by(|a, b| a.round == b.round))
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
    fn new(low: &Lowered) -> Self {
        let (num, ports) = (low.topo.num_nodes() as u64, low.topo.ports());
        let mut extra: Vec<(u64, u32)> = low
            .claims
            .iter()
            .filter(|c| c.dim >= ports || c.src >= num)
            .map(|c| (c.src, c.dim))
            .collect();
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

/// Compressed rows of `u32` items: row `r` is
/// `items[start[r]..start[r + 1]]`.
struct Csr {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Counting sort of `(row, item)` pairs into `rows` rows, each row's
    /// items in iteration order; `pairs` is walked twice.
    fn new<I: Iterator<Item = (usize, u32)>>(rows: usize, pairs: impl Fn() -> I) -> Self {
        let mut start = vec![0u32; rows + 1];
        let mut total = 0usize;
        for (r, _) in pairs() {
            start[r + 1] += 1;
            total += 1;
        }
        assert!(u32::try_from(total).is_ok(), "{total} index entries exceed the 32-bit offsets");
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        let mut items = vec![0u32; total];
        for (r, x) in pairs() {
            items[start[r] as usize] = x;
            start[r] += 1;
        }
        // Each `start[r]` now holds row `r`'s end, which is row `r + 1`'s
        // start.
        start.copy_within(0..rows, 1);
        start[0] = 0;
        Csr { start, items }
    }

    /// The same rows with every item mapped through `f`.
    fn map(&self, mut f: impl FnMut(u32) -> u32) -> Csr {
        Csr { start: self.start.clone(), items: self.items.iter().map(|&x| f(x)).collect() }
    }

    fn row(&self, r: usize) -> &[u32] {
        &self.items[self.start[r] as usize..self.start[r + 1] as usize]
    }

    fn row_mut(&mut self, r: usize) -> &mut [u32] {
        &mut self.items[self.start[r] as usize..self.start[r + 1] as usize]
    }
}

/// The hops of every block: row `id` holds the indices of the claims
/// carrying block `id`, sorted by `(round, src, dim)`. Ids naming no
/// block are left out (conservation reports the claim).
fn block_hops(low: &Lowered) -> Csr {
    assert!(u32::try_from(low.claims.len()).is_ok(), "claim indices exceed 32 bits");
    let nblocks = low.blocks.len();
    let mut hops = Csr::new(nblocks, || {
        low.claims.iter().enumerate().flat_map(move |(i, c)| {
            low.ids(c)
                .iter()
                .filter(move |&&b| (b as usize) < nblocks)
                .map(move |&b| (b as usize, i as u32))
        })
    });
    // Rows keep claim order, so claims ascending by the key leave every
    // row sorted (equal keys are one hop twice, alike to every rule).
    let key = |c: &LinkClaim| (c.round, c.src, c.dim);
    if !low.claims.is_sorted_by_key(key) {
        for id in 0..nblocks {
            hops.row_mut(id).sort_unstable_by_key(|&i| key(&low.claims[i as usize]));
        }
    }
    hops
}

/// Port-model compliance (paper §2): claims name real links, and under
/// one-port communication each node touches at most one link per round.
/// A node may send *and* receive on that one link (bidirectional
/// exchange), so the constraint is on *distinct* links, both endpoints
/// counted — exactly the discipline [`cubesim::SimNet`] enforces
/// dynamically.
pub fn check_port_model(low: &Lowered) -> Vec<Diag> {
    port_model(low, &by_round(low), &Channels::new(low))
}

fn port_model(low: &Lowered, rounds: &[&LinkClaim], chans: &Channels) -> Vec<Diag> {
    let mut diags = Vec::new();
    let topo = low.topo;
    let (num, ports) = (chans.num, chans.ports);
    // A claim names a real link iff its endpoints are in range and the
    // port is wired (a cube port always is; a Dragonfly group's swap
    // fixed point is not).
    let unlinked =
        |c: &LinkClaim| c.dim >= ports || c.src >= num || topo.neighbor(c.src, c.dim).is_none();
    for c in &low.claims {
        if unlinked(c) {
            let mut d =
                diag(low, Rule::PortModel, format!("claim names no link of the {}", topo.label()));
            (d.round, d.node, d.dim) = (Some(c.round), Some(c.src), Some(c.dim));
            diags.push(d);
        }
    }
    if low.ports != PortMode::OnePort {
        return diags;
    }
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
    let mut slots = vec![Slot { stamp: 0, link: 0, dim: 0, reported: false }; num as usize];
    for (stamp, claims) in rounds_of(rounds) {
        for c in claims {
            if unlinked(c) {
                continue; // already reported structurally
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
        }
    }
    diags
}

/// Edge-disjointness within a round (§3/§8.1): one message per directed
/// link per round.
pub fn check_link_exclusive(low: &Lowered) -> Vec<Diag> {
    link_exclusive(low, &by_round(low), &Channels::new(low))
}

fn link_exclusive(low: &Lowered, rounds: &[&LinkClaim], chans: &Channels) -> Vec<Diag> {
    let mut diags = Vec::new();
    // Per channel: (stamp of the round that last claimed it, claims in
    // that round).
    let mut seen = vec![(0u32, 0u32); chans.len()];
    let mut dups: Vec<u32> = Vec::new();
    for (stamp, claims) in rounds_of(rounds) {
        for c in claims {
            let ch = chans.id(c.src, c.dim);
            let slot = &mut seen[ch as usize];
            if slot.0 != stamp {
                *slot = (stamp, 1);
            } else {
                slot.1 += 1;
                if slot.1 == 2 {
                    dups.push(ch);
                }
            }
        }
        dups.sort_unstable_by_key(|&ch| chans.pair(ch));
        for ch in dups.drain(..) {
            let (src, dim) = chans.pair(ch);
            let count = seen[ch as usize].1;
            let mut d = diag(
                low,
                Rule::LinkExclusive,
                format!("{count} messages claim one directed link in one round"),
            );
            (d.round, d.node, d.dim) = (Some(claims[0].round), Some(src), Some(dim));
            diags.push(d);
        }
    }
    diags
}

/// Packet budget (§2): every message carries data and declares enough
/// packets that none exceeds `B_m`.
pub fn check_packet_budget(low: &Lowered, params: &MachineParams) -> Vec<Diag> {
    let mut diags = Vec::new();
    for c in &low.claims {
        let detail = if c.elems == 0 {
            Some("empty message (a start-up with no data)".to_string())
        } else {
            let need = params.packets(c.elems as usize) as u64;
            (c.packets < need).then(|| {
                format!(
                    "{} elems need {} packets of <= {} elems, claim declares {}",
                    c.elems, need, params.max_packet, c.packets
                )
            })
        };
        if let Some(detail) = detail {
            let mut d = diag(low, Rule::PacketBudget, detail);
            (d.round, d.node, d.dim) = (Some(c.round), Some(c.src), Some(c.dim));
            diags.push(d);
        }
    }
    diags
}

/// Element conservation (§3): claim sizes are exactly the sums of their
/// blocks, and every block's hops chain its source to its destination,
/// one claim per hop, rounds strictly increasing.
pub fn check_conservation(low: &Lowered) -> Vec<Diag> {
    conservation(low, &block_hops(low))
}

fn conservation(low: &Lowered, hops: &Csr) -> Vec<Diag> {
    let mut diags = Vec::new();
    let topo = low.topo;
    let (num, ports) = (topo.num_nodes() as u64, topo.ports());
    for c in &low.claims {
        let mut sum = 0u64;
        let mut bad_id = None;
        for &b in low.ids(c) {
            match low.blocks.get(b as usize) {
                Some(meta) => sum += meta.elems,
                None => bad_id = bad_id.or(Some(b)),
            }
        }
        if let Some(b) = bad_id {
            let mut d = diag(low, Rule::Conservation, "claim carries an unknown block".into());
            (d.round, d.node, d.dim, d.block) = (Some(c.round), Some(c.src), Some(c.dim), Some(b));
            diags.push(d);
        } else if sum != c.elems {
            let mut d = diag(
                low,
                Rule::Conservation,
                format!("claim declares {} elems but its blocks total {}", c.elems, sum),
            );
            (d.round, d.node, d.dim) = (Some(c.round), Some(c.src), Some(c.dim));
            diags.push(d);
        }
    }
    for (id, meta) in low.blocks.iter().enumerate() {
        let mut at = meta.src.bits();
        let mut last_round = None;
        let mut broken = false;
        for &i in hops.row(id) {
            let LinkClaim { round, src, dim, .. } = low.claims[i as usize];
            if last_round == Some(round) {
                let mut d =
                    diag(low, Rule::Conservation, "block claimed twice in one round".into());
                (d.round, d.node, d.dim, d.block) =
                    (Some(round), Some(src), Some(dim), Some(id as u32));
                diags.push(d);
                broken = true;
                break;
            }
            if src != at {
                let mut d = diag(
                    low,
                    Rule::Conservation,
                    format!("claimed to depart node {src} but the block is at node {at}"),
                );
                (d.round, d.node, d.dim, d.block) =
                    (Some(round), Some(src), Some(dim), Some(id as u32));
                diags.push(d);
                broken = true;
                break;
            }
            match (dim < ports && at < num).then(|| topo.neighbor(at, dim)).flatten() {
                Some(next) => at = next,
                None => {
                    // The hop names no link of the topology (PortModel
                    // reports the claim itself); the chain cannot
                    // continue past it.
                    let mut d = diag(
                        low,
                        Rule::Conservation,
                        format!("block routed over a nonexistent link of the {}", topo.label()),
                    );
                    (d.round, d.node, d.dim, d.block) =
                        (Some(round), Some(src), Some(dim), Some(id as u32));
                    diags.push(d);
                    broken = true;
                    break;
                }
            }
            last_round = Some(round);
        }
        if !broken && at != meta.dst.bits() {
            let mut d = diag(
                low,
                Rule::Conservation,
                format!("element dropped: delivery chain ends at node {at}, not node {}", meta.dst),
            );
            (d.node, d.block) = (Some(at), Some(id as u32));
            diags.push(d);
        }
    }
    diags
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
    deadlock_free(low, &Channels::new(low), &block_hops(low))
}

fn deadlock_free(low: &Lowered, chans: &Channels, hops: &Csr) -> Vec<Diag> {
    if !low.dimension_ordered || port_ranked(low, hops) {
        return Vec::new();
    }
    let hop_chans = hops.map(|i| {
        let c = &low.claims[i as usize];
        chans.id(c.src, c.dim)
    });
    let mut succ = Csr::new(chans.len(), || {
        (0..low.blocks.len())
            .flat_map(|id| hop_chans.row(id).windows(2))
            .map(|pair| (pair[0] as usize, pair[1]))
    });
    for ch in 0..chans.len() {
        succ.row_mut(ch).sort_unstable();
    }
    // Iterative three-color DFS; a back edge is a cycle. A repeated
    // successor is black by its second visit, so edges need no dedup.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; chans.len()];
    // Stack of (channel, position of its next successor in `succ.items`).
    let mut stack: Vec<(u32, u32)> = Vec::new();
    for root in 0..chans.len() as u32 {
        if color[root as usize] != WHITE {
            continue;
        }
        color[root as usize] = GRAY;
        stack.push((root, succ.start[root as usize]));
        while let Some(frame) = stack.last_mut() {
            let (c, i) = *frame;
            if i == succ.start[c as usize + 1] {
                color[c as usize] = BLACK;
                stack.pop();
                continue;
            }
            frame.1 += 1;
            let next = succ.items[i as usize];
            match color[next as usize] {
                WHITE => {
                    color[next as usize] = GRAY;
                    stack.push((next, succ.start[next as usize]));
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

/// Whether every block's consecutive hops cross strictly ascending
/// ports, or every block's strictly descending ones: then every edge of
/// the channel dependency graph moves the same way on the port, and the
/// graph has no cycle.
fn port_ranked(low: &Lowered, hops: &Csr) -> bool {
    let (mut up, mut down) = (true, true);
    for id in 0..low.blocks.len() {
        for pair in hops.row(id).windows(2) {
            let (from, to) = (low.claims[pair[0] as usize].dim, low.claims[pair[1] as usize].dim);
            up &= from < to;
            down &= from > to;
        }
        if !(up || down) {
            return false;
        }
    }
    true
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
        port_ranked(low, &block_hops(low))
    }

    /// Two blocks from node 0 to node 3 of the 2-cube, one over dims 0
    /// then 1, the other over dims 1 then 0. Neither port direction ranks
    /// the hops, so the graph is built and searched — and it has no
    /// cycle.
    #[test]
    fn mixed_port_directions_are_searched_and_pass() {
        let msg = |src: u64, dim: u32, block: u32| PlannedMsg {
            src: NodeId(src),
            dim,
            blocks: vec![block],
        };
        let plan = CommSchedule {
            name: "mixed".into(),
            topo: TopoSpec::hypercube(2),
            ports: PortMode::AllPorts,
            dimension_ordered: true,
            blocks: vec![meta(0, 3), meta(0, 3)],
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

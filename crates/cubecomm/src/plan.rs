//! Static schedule introspection: metadata-only communication plans.
//!
//! Every routing algorithm in this crate is a *schedule* — a sequence
//! of synchronous rounds, each moving a set of `(source, dimension)`
//! messages. The builders here produce the schedules as first-class data
//! ([`CommSchedule`]) without a simulator and without payloads: blocks
//! are `(src, dst, elems)` records ([`BlockMeta`]), and each planned
//! round lists which block ids cross which directed links.
//!
//! The builders *are* the algorithms: each of §3's schedules exists
//! once, as a builder below, and runs by handing its plan to the one
//! executor — [`crate::exec::run`] to charge it, [`crate::exec::execute`]
//! to charge it and land payloads given in plan-block order. The two
//! payload front doors left, [`crate::exchange::exchange_over_dims`]
//! and [`crate::sbnt::all_to_all_sbnt`], build their rounds with the
//! same `skeleton` functions; the router ([`crate::graph`]) runs the hop
//! log of the contention simulation that [`ecube_route_plan`] and
//! [`dragonfly_direct_plan`] materialize. So a plan's per-round link
//! claims coincide, round for round and link for link, with the
//! [`cubesim::CommReport::link_history`] an execution records, and the
//! `cubecheck` crate's static checkers (port legality,
//! edge-disjointness, `B_m` packet budgets, conservation, deadlock
//! freedom) analyse the schedule that actually runs. What stays
//! independent, as the oracle of each family: [`mod@reference`] (the
//! original simulate-every-node planners) for exchange, trees and SBnT;
//! [`crate::ecube::reference::RefRouter`] for the contention simulation
//! on the cube; and on the Dragonfly, [`cubesim::SimNet`]'s own link and
//! port checks, the five `cubecheck` rule families and the executor's
//! delivery check.
//!
//! Construction is factored and fast (see the `skeleton` module): the
//! node-independent round structure is computed once directly from
//! block addresses and instantiated per node by relabeling, round by
//! round on the calling thread.
//! The pre-optimization planners survive verbatim in [`mod@reference`],
//! pinned to the fast builders by the `plan_construction` property
//! tests. A keyed
//! LRU [`PlanCache`] (see [`cache`]) and the three `*_plan_cached`
//! front doors ([`ecube_route_plan_cached`] and the two Dragonfly ones)
//! make repeated requests for the same plan pay construction once.
//!
//! Builders never panic on *invariant* violations (a plan for a broken
//! schedule is still a plan — `cubecheck` reports the breakage as
//! diagnostics); they only assert on malformed inputs (shape mismatches,
//! zero-element blocks).

pub mod cache;
pub mod dragonfly;
pub mod reference;
pub(crate) mod skeleton;

pub use cache::{fingerprint, CacheStats, PlanCache, PlanKey};
pub use dragonfly::{
    dragonfly_direct_plan, dragonfly_direct_plan_cached, dragonfly_swap_exchange_plan,
    dragonfly_swap_exchange_plan_cached,
};

use crate::exchange::BufferPolicy;
use crate::sbt::{common_root, Sbt};
use cubeaddr::{DimSet, NodeId};
use cubesim::PortMode;
use cubesync::sync::Arc;
use cubetopo::{Hypercube, TopoSpec, Topology};
use std::ops::Range;

/// A block's metadata: everything the cost model and the invariants see.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BlockMeta {
    /// Originating node (also the initial holder in every built plan).
    pub src: NodeId,
    /// Final destination node.
    pub dst: NodeId,
    /// Payload size in matrix elements (must be positive).
    pub elems: u64,
}

/// One planned message: the blocks crossing one directed link in one
/// round. Its block ids are a range of its schedule's one arena,
/// [`CommSchedule::block_ids`]; read them with [`CommSchedule::ids`].
/// Each id indexes [`CommSchedule::blocks`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlannedMsg {
    /// Sending node.
    pub src: NodeId,
    /// Port crossed — on the cube, the dimension (the receiver is
    /// `src.neighbor(dim)`); generally, the receiver is
    /// `topo.neighbor(src, dim)` of the schedule's topology.
    pub dim: u32,
    /// The ids of the blocks travelling in this message, as a range of
    /// [`CommSchedule::block_ids`].
    pub blocks: Range<u32>,
}

impl PlannedMsg {
    /// The message from `src` over port `dim` carrying `blocks`, whose
    /// ids it appends to the arena `ids`.
    pub(crate) fn push(
        ids: &mut Vec<u32>,
        src: NodeId,
        dim: u32,
        blocks: impl IntoIterator<Item = u32>,
    ) -> Self {
        let start = ids.len() as u32;
        ids.extend(blocks);
        PlannedMsg { src, dim, blocks: start..ids.len() as u32 }
    }
}

/// One planned round: its messages plus any local-copy work charged in
/// the same round (the gather pass of the buffered exchange policy).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PlanRound {
    /// Messages sent this round. Every builder emits them in ascending
    /// channel order (`src · ports + dim` of the schedule's topology);
    /// every consumer accepts any order, since the §2 cost model charges
    /// a round its maxima over links.
    pub msgs: Vec<PlannedMsg>,
    /// `(node, elements)` local-copy charges for this round.
    pub copies: Vec<(NodeId, u64)>,
}

/// A complete static communication schedule.
///
/// Its messages keep no id lists of their own: every message's block
/// ids lie in the one arena [`CommSchedule::block_ids`], and a message
/// names its part as a range. A built plan lays the arena out in
/// schedule order (rounds ascending, each round's messages in order),
/// one message after another, so two builds of one plan compare equal.
#[derive(Clone, PartialEq, Debug)]
pub struct CommSchedule {
    /// Human-readable schedule name (carried into diagnostics).
    pub name: String,
    /// The machine graph the schedule targets. Link claims name
    /// `(src, port)` pairs of this topology.
    pub topo: TopoSpec,
    /// Port discipline the schedule claims to satisfy.
    pub ports: PortMode,
    /// True when the schedule routes every block through a dimension
    /// order consistent with a fixed channel order (the e-cube router's
    /// ascending scan, the exchange family's fixed dimension sequence,
    /// the unrotated SBT's logical order) — the precondition of the
    /// channel-dependency-graph deadlock-freedom check. Cyclic-shift
    /// families (SBnT, rotated-tree sets) are *not* dimension-ordered;
    /// their safety comes from round-synchronous batching instead.
    pub dimension_ordered: bool,
    /// The blocks moved by the schedule; ids are indices into this list.
    pub blocks: Vec<BlockMeta>,
    /// The block-id arena: [`PlannedMsg::blocks`] ranges index it.
    pub block_ids: Vec<u32>,
    /// The rounds, in execution order. Rounds with no messages are
    /// real: an execution still pays a round boundary there.
    pub rounds: Vec<PlanRound>,
}

impl CommSchedule {
    /// The block ids `msg` carries.
    #[inline]
    pub fn ids(&self, msg: &PlannedMsg) -> &[u32] {
        &self.block_ids[msg.blocks.start as usize..msg.blocks.end as usize]
    }

    /// Appends `ids` to the arena and returns their range, for a message
    /// built or corrupted by hand (the ranges of the other messages stay
    /// valid).
    ///
    /// # Panics
    /// Naming the plan, if the arena outgrows 32-bit offsets.
    #[track_caller]
    pub fn push_ids(&mut self, ids: &[u32]) -> Range<u32> {
        let start = self.block_ids.len() as u32;
        self.block_ids.extend_from_slice(ids);
        self.check_arena();
        start..self.block_ids.len() as u32
    }

    /// Refuses a plan whose arena outgrows the `u32` ranges of its
    /// messages, naming it — the last step of every builder, which
    /// offsets its ranges with plain casts while it emits.
    #[track_caller]
    pub(crate) fn checked(self) -> Self {
        self.check_arena();
        self
    }

    #[track_caller]
    fn check_arena(&self) {
        let len = self.block_ids.len();
        assert!(
            u32::try_from(len).is_ok(),
            "{}: {len} block ids exceed the 32-bit arena",
            self.name
        );
    }

    /// Total elements carried by one planned message.
    pub fn msg_elems(&self, msg: &PlannedMsg) -> u64 {
        self.ids(msg).iter().map(|&i| self.blocks[i as usize].elems).sum()
    }

    /// Total messages over all rounds.
    pub fn total_messages(&self) -> u64 {
        self.rounds.iter().map(|r| r.msgs.len() as u64).sum()
    }

    /// Total elements over all links over all rounds.
    pub fn total_elems(&self) -> u64 {
        self.rounds.iter().flat_map(|r| &r.msgs).map(|m| self.msg_elems(m)).sum()
    }
}

/// Validates block metadata shared by every builder: in-range endpoints
/// ([`check_endpoints`]) and positive sizes.
#[track_caller]
pub(crate) fn check_blocks(topo: &TopoSpec, blocks: &[BlockMeta]) {
    assert!(blocks.len() < u32::MAX as usize, "block id space exhausted");
    check_endpoints(topo, blocks);
    for b in blocks {
        assert!(b.elems > 0, "zero-element block {} -> {}: drop virtual blocks", b.src, b.dst);
    }
}

/// Refuses a block with an endpoint that is not a node of `topo`, naming
/// the first such block — the check of every builder and of
/// [`crate::exec::run`].
#[track_caller]
pub(crate) fn check_endpoints<G: Topology>(topo: &G, blocks: &[BlockMeta]) {
    let num = topo.num_nodes() as u64;
    if let Some(id) = blocks.iter().position(|b| b.src.bits() >= num || b.dst.bits() >= num) {
        let b = &blocks[id];
        panic!("block endpoints outside the {}: block {id}: {} -> {}", topo.label(), b.src, b.dst);
    }
}

/// One block per positive `sizes[s][d]` of a `num × num` size table,
/// ascending `(src, dst)`. `need` starts the panic text for a table of
/// the wrong shape, as each caller words it.
#[track_caller]
fn all_to_all_blocks(num: usize, sizes: &[Vec<u64>], need: &str) -> Vec<BlockMeta> {
    assert_eq!(sizes.len(), num, "{need}one size row per source");
    let mut blocks = Vec::new();
    for (s, per_dst) in sizes.iter().enumerate() {
        assert_eq!(per_dst.len(), num, "{need}one (possibly zero) size per destination");
        let src = NodeId(s as u64);
        let sized = per_dst.iter().enumerate().filter(|&(_, &elems)| elems > 0);
        blocks.extend(sized.map(|(d, &elems)| BlockMeta { src, dst: NodeId(d as u64), elems }));
    }
    blocks
}

/// The memory-contiguous chunks the iPSC implementation sees at exchange
/// step `step_index` (0-based): the exchange works in place, so the
/// elements to send occupy `2^step` equal non-contiguous runs of the
/// local array, because `step` already-processed address bits sit above
/// the bit being exchanged (§8.1: "the local array is partitioned into
/// `2^j` same-sized blocks during step `j`"). Sorts `ids` in place by
/// `(dst, src)` — the local storage order of the blocked array — and
/// returns the length of a run: the chunks are `ids.chunks(len)`, that
/// many near-equal runs.
fn chunk_ids(ids: &mut [u32], step_index: usize, blocks: &[BlockMeta]) -> usize {
    ids.sort_by_key(|&i| (blocks[i as usize].dst, blocks[i as usize].src));
    let want = 1usize << step_index.min(62);
    let chunks = want.min(ids.len()).max(1);
    ids.len().div_ceil(chunks).max(1)
}

/// The standard exchange algorithm (§3.2, §8.1) over `dims` in order,
/// starting from every block at its source, under the given send policy:
/// at step `t` every node exchanges, with its neighbor across `dims[t]`,
/// the blocks whose destination differs from its own address in that
/// dimension. All `n` dimensions realize all-to-all personalized
/// communication ([`all_to_all_exchange_plan`]); a subset realizes the
/// splitting and accumulation phases of some-to-all ([`some_to_all_plan`])
/// and all-to-some communication (every node's blocks for the nodes whose
/// `k_dims` bits are zero, over the `l` dimensions, then the `k` ones).
///
/// Blocks must have pairwise distinct `(src, dst)` pairs, so that the
/// `(dst, src)` chunk order of the unbuffered and buffered policies is
/// total and a plan reads the same whatever order its blocks were
/// listed in. ([`crate::exchange::exchange_over_dims`], which routes
/// payload blocks from wherever they are held, accepts duplicates and
/// breaks the tie by holding order.)
#[track_caller]
pub fn exchange_plan(
    n: u32,
    blocks: Vec<BlockMeta>,
    dims: &[u32],
    policy: BufferPolicy,
    ports: PortMode,
    name: impl Into<String>,
) -> CommSchedule {
    check_blocks(&TopoSpec::hypercube(n), &blocks);
    {
        let mut pairs: Vec<(NodeId, NodeId)> = blocks.iter().map(|b| (b.src, b.dst)).collect();
        pairs.sort_unstable();
        assert!(
            pairs.windows(2).all(|w| w[0] != w[1]),
            "exchange plans need pairwise distinct (src, dst) block pairs"
        );
    }
    let (rounds, block_ids) = skeleton::exchange_rounds(n, &blocks, dims, policy);
    CommSchedule {
        name: name.into(),
        topo: TopoSpec::hypercube(n),
        ports,
        dimension_ordered: true,
        blocks,
        block_ids,
        rounds,
    }
    .checked()
}

/// All-to-all personalized communication by the standard exchange
/// algorithm: one block per `(src, dst)` pair (zero sizes dropped —
/// virtual elements are not communicated — and the diagonal kept in
/// place), exchanged over all `n` dimensions highest first. Under
/// [`BufferPolicy::Ideal`] that is `n` exchanges of `PQ/2N` elements
/// each, one-port optimal within a factor of 2.
#[track_caller]
pub fn all_to_all_exchange_plan(
    n: u32,
    sizes: &[Vec<u64>],
    policy: BufferPolicy,
    ports: PortMode,
) -> CommSchedule {
    let blocks = all_to_all_blocks(cubeaddr::num_nodes(n), sizes, "need ");
    let dims: Vec<u32> = (0..n).rev().collect();
    exchange_plan(n, blocks, &dims, policy, ports, format!("all_to_all_exchange/n{n}"))
}

/// Some-to-all personalized communication (§3.3, Table 3): the `2^l`
/// sources, the nodes whose `k_dims` bits are zero (ascending), each send
/// `sizes[i][d]` elements to every node `d`.
///
/// When the real-processor dimension sets before and after a
/// rearrangement are disjoint but of different sizes, the operation
/// decomposes into `k = |k_dims|` splitting steps and `l = |l_dims|`
/// all-to-all steps. Both are exchange steps: in a splitting step only
/// the data-holding half of each pair has anything to send. Theorem 1:
/// the steps commute, and the transfer time is least when splitting runs
/// *first* (accumulation *last*, for all-to-some). So `k_dims` are
/// exchanged first, then `l_dims`, both highest dimension first. The two
/// sets must partition the cube's dimensions.
#[track_caller]
pub fn some_to_all_plan(
    n: u32,
    l_dims: DimSet,
    k_dims: DimSet,
    sizes: &[Vec<u64>],
    policy: BufferPolicy,
    ports: PortMode,
) -> CommSchedule {
    assert!(l_dims.is_disjoint(k_dims), "l and k dimension sets overlap");
    assert_eq!(l_dims.union(k_dims), DimSet::all(n), "l ∪ k must cover the cube dimensions");
    let num = cubeaddr::num_nodes(n);
    let sources: Vec<NodeId> = NodeId::all(n).filter(|x| x.bits() & k_dims.0 == 0).collect();
    assert_eq!(sizes.len(), sources.len(), "one size row per source node");
    let mut blocks = Vec::new();
    for (src, per_dst) in sources.iter().zip(sizes) {
        assert_eq!(per_dst.len(), num, "one (possibly zero) size per destination");
        for (d, &elems) in per_dst.iter().enumerate() {
            if elems > 0 {
                blocks.push(BlockMeta { src: *src, dst: NodeId(d as u64), elems });
            }
        }
    }
    let dims: Vec<u32> = k_dims.iter_desc().chain(l_dims.iter_desc()).collect();
    exchange_plan(n, blocks, &dims, policy, ports, format!("some_to_all/n{n}/k{:#b}", k_dims.0))
}

/// One-to-all personalized communication from `root` by spanning
/// binomial tree routing (§3.1), one-port legal: in round `j` the nodes
/// whose logical address uses only bits below `j` each send, all at once,
/// the data for the subtree reached through logical dimension `j`. For
/// `B_m ≥ PQ/2`, `T_min = (1 - 1/N)·PQ·t_c + n·τ`. `sizes[d]` is the
/// element count destined to node `d` (zeros dropped).
#[track_caller]
pub fn one_to_all_sbt_plan(n: u32, root: NodeId, sizes: &[u64]) -> CommSchedule {
    let num = cubeaddr::num_nodes(n);
    assert_eq!(sizes.len(), num, "one size per destination node");
    let tree = Sbt::new(n, root);
    let blocks: Vec<BlockMeta> = sizes
        .iter()
        .enumerate()
        .filter(|&(_, &e)| e > 0)
        .map(|(d, &elems)| BlockMeta { src: root, dst: NodeId(d as u64), elems })
        .collect();
    check_blocks(&TopoSpec::hypercube(n), &blocks);
    let (rounds, block_ids) = skeleton::sbt_rounds(n, &blocks, &tree);
    CommSchedule {
        name: format!("one_to_all_sbt/n{n}/root{root}"),
        topo: TopoSpec::hypercube(n),
        ports: PortMode::OnePort,
        // The unrotated, unreflected SBT routes logical = physical
        // dimensions in ascending order.
        dimension_ordered: true,
        blocks,
        block_ids,
        rounds,
    }
    .checked()
}

/// One-to-all personalized communication from the common root of a
/// family of spanning binomial trees, all trees concurrently (§3.1,
/// n-port): every destination's data is split into `trees.len()`
/// near-equal parts (first parts take the remainder), part `k` routed
/// down tree `k`. Blocks are numbered destination-major, so a node's
/// blocks, in id order, are its data in tree order.
///
/// The family must use pairwise distinct physical dimensions in every
/// logical step, or an execution's link-contention check aborts. The
/// families of §3.1 are the `n` distinctly rotated SBTs
/// ([`Sbt::k_rotated`] with `k = n`:
/// `T_min = (1/n)(1 - 1/N)·PQ·t_c + n·τ`, the order of the lower bound),
/// `k | n` optimally rotated ones, and on an even cube the standard and
/// reflected pair ([`Sbt::reflected_pair`]).
#[track_caller]
pub fn one_to_all_trees_plan(n: u32, sizes: &[u64], trees: &[Sbt]) -> CommSchedule {
    let num = cubeaddr::num_nodes(n);
    assert_eq!(sizes.len(), num, "one size per destination node");
    let root = common_root(n, trees);
    let k_trees = trees.len() as u64;
    // Block per (destination, tree) slice: part k of a total gets
    // `total/k_trees` plus one of the first `total mod k_trees`
    // remainders.
    let mut blocks = Vec::new();
    let mut tree_of: Vec<u32> = Vec::new();
    for (d, &total) in sizes.iter().enumerate() {
        let (base, extra) = (total / k_trees, total % k_trees);
        for k in 0..k_trees {
            let elems = base + u64::from(k < extra);
            if elems > 0 {
                tree_of.push(k as u32);
                blocks.push(BlockMeta { src: root, dst: NodeId(d as u64), elems });
            }
        }
    }
    check_blocks(&TopoSpec::hypercube(n), &blocks);
    let (rounds, block_ids) = skeleton::trees_rounds(n, &blocks, trees, &tree_of);
    CommSchedule {
        name: format!("one_to_all_trees/n{n}/root{root}/k{}", trees.len()),
        topo: TopoSpec::hypercube(n),
        ports: PortMode::AllPorts,
        // Rotated/reflected trees cross dimensions in cyclically shifted
        // orders; no single channel order covers the family.
        dimension_ordered: false,
        blocks,
        block_ids,
        rounds,
    }
    .checked()
}

/// All-to-all personalized communication with n-port SBnT routing:
/// [`sbnt_plan`] of one block per `(src, dst)` pair (zero sizes dropped,
/// the diagonal kept in place). The SBnTs at different roots are
/// translations of each other, and every link is busy nearly every
/// round, which makes `T_min ≈ PQ/2N·t_c + n·τ` achievable.
#[track_caller]
pub fn all_to_all_sbnt_plan(n: u32, sizes: &[Vec<u64>]) -> CommSchedule {
    let blocks = all_to_all_blocks(cubeaddr::num_nodes(n), sizes, "");
    CommSchedule { name: format!("all_to_all_sbnt/n{n}"), ..sbnt_plan(n, blocks) }
}

/// Spanning balanced *n*-tree routing (§3.1–3.2): every block follows
/// its SBnT path ([`crate::sbnt::sbnt_path_dims`]) from its `src`, one
/// hop per round, and blocks queued at a node for the same port travel
/// as one message, so the longest path (at most `n`) bounds the round
/// count. Blocks that all leave one root are §3.1's n-port one-to-all:
/// every port busy from the first round, and the balanced port split
/// keeps each of the root's links within a factor of ~2 of
/// `(1/n)(1 - 1/N)·PQ` elements.
#[track_caller]
pub fn sbnt_plan(n: u32, blocks: Vec<BlockMeta>) -> CommSchedule {
    check_blocks(&TopoSpec::hypercube(n), &blocks);
    let (rounds, block_ids) = skeleton::sbnt_rounds(n, &blocks);
    CommSchedule {
        name: format!("sbnt/n{n}"),
        topo: TopoSpec::hypercube(n),
        ports: PortMode::AllPorts,
        // SBnT forwarding follows set bits cyclically to the left from
        // the base port — not consistent with any fixed channel order.
        dimension_ordered: false,
        blocks,
        block_ids,
        rounds,
    }
    .checked()
}

/// Plans [`crate::ecube::ecube_route`]: dimension-ordered store-and-
/// forward routing, one message per directed link per round, FIFO per
/// link (a round's sends land dimension-major, which fixes the FIFO
/// order of later rounds; its messages are listed in channel order) —
/// the contention simulation [`dragonfly_direct_plan`] and the router
/// itself share, on a [`Hypercube`].
///
/// `msgs` are `(src, dst, elems)`; zero-element and local messages plan
/// no hops (local blocks still appear in the plan's block list, with an
/// empty path — conservation treats them as already delivered).
#[track_caller]
pub fn ecube_route_plan(n: u32, msgs: &[(NodeId, NodeId, u64)]) -> CommSchedule {
    // Sized for every message, so the table is allocated once.
    let mut blocks: Vec<BlockMeta> = Vec::with_capacity(msgs.len());
    blocks.extend(
        msgs.iter().filter(|&&(_, _, elems)| elems > 0).map(|&(src, dst, elems)| BlockMeta {
            src,
            dst,
            elems,
        }),
    );
    check_blocks(&TopoSpec::hypercube(n), &blocks);
    let (rounds, block_ids) = skeleton::route_rounds(&Hypercube::new(n), &blocks);
    CommSchedule {
        name: format!("ecube_route/n{n}"),
        topo: TopoSpec::hypercube(n),
        ports: PortMode::AllPorts,
        dimension_ordered: true,
        blocks,
        block_ids,
        rounds,
    }
    .checked()
}

// --- Cached front door -------------------------------------------------
//
// The cache key fingerprints the *complete* planner input (see `cache`
// module docs on keying), so a hit is guaranteed byte-identical to the
// cold construction it replaces.

/// [`ecube_route_plan`] through a [`PlanCache`].
#[track_caller]
pub fn ecube_route_plan_cached(
    cache: &PlanCache,
    n: u32,
    msgs: &[(NodeId, NodeId, u64)],
) -> Arc<CommSchedule> {
    let key = PlanKey::new("ecube_route", n, fingerprint(&msgs));
    cache.get_or_build(key, || ecube_route_plan(n, msgs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::report;
    use cubesim::MachineParams;

    /// `b` elements from every node to every node of the `n`-cube.
    fn uniform(n: u32, b: u64) -> Vec<Vec<u64>> {
        let num = cubeaddr::num_nodes(n);
        vec![vec![b; num]; num]
    }

    fn exchange(n: u32, b: u64, policy: BufferPolicy) -> CommSchedule {
        all_to_all_exchange_plan(n, &uniform(n, b), policy, PortMode::OnePort)
    }

    #[test]
    fn exchange_plan_counts_match_formula() {
        // n=2 all-to-all, 1 elem per pair, Ideal: 2 rounds, every node
        // sends 2 blocks per round.
        let plan = exchange(2, 1, BufferPolicy::Ideal);
        assert_eq!(plan.rounds.len(), 2);
        assert_eq!(plan.blocks.len(), 16);
        for round in &plan.rounds {
            assert_eq!(round.msgs.len(), 4);
            for m in &round.msgs {
                assert_eq!(plan.msg_elems(m), 2);
            }
        }
    }

    #[test]
    fn ideal_time_matches_formula() {
        // T = n(PQ/2N · t_c + τ) for B_m ≥ PQ/2N, unit model.
        let (n, b) = (4, 4u64); // b = PQ/N² elements per block
        let num = cubeaddr::num_nodes(n) as f64;
        let r =
            report(&exchange(n, b, BufferPolicy::Ideal), MachineParams::unit(PortMode::OnePort));
        let pq = b as f64 * num * num;
        let expect = n as f64 * (pq / (2.0 * num) + 1.0);
        assert_eq!(r.rounds, n as usize);
        assert!((r.time - expect).abs() < 1e-9, "{} vs {expect}", r.time);
    }

    #[test]
    fn unbuffered_startups_grow_linearly_in_n_nodes() {
        // Total sub-rounds over the run: Σ_{k=0}^{n-1} 2^k = N - 1.
        for n in [3, 4] {
            let plan = exchange(n, 2, BufferPolicy::Unbuffered);
            assert_eq!(plan.rounds.len(), (1 << n) - 1);
            let r = report(&plan, MachineParams::unit(PortMode::OnePort));
            assert_eq!((r.rounds, r.critical_startups), ((1 << n) - 1, (1 << n) - 1));
        }
    }

    #[test]
    fn unbuffered_transfer_volume_unchanged() {
        let run = |policy| report(&exchange(3, 4, policy), MachineParams::unit(PortMode::OnePort));
        let ideal = run(BufferPolicy::Ideal);
        let unbuf = run(BufferPolicy::Unbuffered);
        assert_eq!(ideal.critical_elems, unbuf.critical_elems);
        assert_eq!(ideal.total_elems, unbuf.total_elems);
    }

    #[test]
    fn buffered_charges_copy_only_for_small_chunks() {
        // Chunk sizes at the steps: 16, 8, 4 elements. Threshold 8: the
        // 4-element chunks of the last step are gathered.
        let plan = exchange(3, 4, BufferPolicy::Buffered { min_direct: 8 });
        // Rounds: step0 = 1 direct; step1 = 2 direct; step2 = 1 gathered.
        assert_eq!(plan.rounds.len(), 4);
        let copied: u64 = plan.rounds.iter().flat_map(|r| &r.copies).map(|&(_, e)| e).sum();
        // Last step: every node gathers 4 chunks × 4 elements = 16.
        assert_eq!(copied, 16 * 8);
        let r = report(&plan, MachineParams::unit(PortMode::OnePort).with_t_copy(1.0));
        assert_eq!((r.max_node_copy_elems, r.rounds), (16, 4));
    }

    #[test]
    fn buffered_with_huge_threshold_equals_one_message_per_step() {
        let plan = exchange(3, 2, BufferPolicy::Buffered { min_direct: usize::MAX });
        assert_eq!(
            report(&plan, MachineParams::unit(PortMode::OnePort).with_t_copy(0.0)).rounds,
            3
        );
    }

    #[test]
    fn buffered_with_zero_threshold_equals_unbuffered() {
        let run = |policy| report(&exchange(3, 2, policy), MachineParams::unit(PortMode::OnePort));
        let a = run(BufferPolicy::Unbuffered);
        let b = run(BufferPolicy::Buffered { min_direct: 0 });
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.time, b.time);
    }

    #[test]
    fn diagonal_blocks_never_move() {
        let sizes: Vec<Vec<u64>> =
            (0..4).map(|s| (0..4).map(|d| u64::from(s == d)).collect()).collect();
        let plan = all_to_all_exchange_plan(2, &sizes, BufferPolicy::Ideal, PortMode::OnePort);
        assert!(plan.blocks.len() == 4 && plan.blocks.iter().all(|b| b.src == b.dst));
        let r = report(&plan, MachineParams::unit(PortMode::OnePort));
        assert_eq!((r.total_elems, r.total_messages), (0, 0));
    }

    /// `b` elements from each of the sources of a some-to-all on the
    /// 4-cube with `l = {0, 1}`, `k = {2, 3}` to every node.
    fn some_to_all_4(b: u64) -> CommSchedule {
        let (l, k) = (DimSet::from_dims([0, 1]), DimSet::from_dims([2, 3]));
        let sizes = vec![vec![b; 16]; 4];
        some_to_all_plan(4, l, k, &sizes, BufferPolicy::Ideal, PortMode::OnePort)
    }

    #[test]
    fn some_to_all_takes_k_plus_l_rounds() {
        assert_eq!(report(&some_to_all_4(2), MachineParams::unit(PortMode::OnePort)).rounds, 4);
        let degenerate = |l: DimSet, k: DimSet, sources: usize| {
            let n = l.union(k).len();
            let sizes = vec![vec![1u64; 1 << n]; sources];
            let plan = some_to_all_plan(n, l, k, &sizes, BufferPolicy::Ideal, PortMode::OnePort);
            report(&plan, MachineParams::unit(PortMode::OnePort)).rounds
        };
        // k = 0 is all-to-all, l = 0 is one-to-all.
        assert_eq!(degenerate(DimSet::all(2), DimSet::EMPTY, 4), 2);
        assert_eq!(degenerate(DimSet::EMPTY, DimSet::all(3), 1), 3);
    }

    #[test]
    fn theorem1_split_first_is_faster() {
        // Splitting first moves the personalized halves early, so later
        // all-to-all steps transfer less data per exchange than if the
        // whole aggregate bounced around first.
        let split_first = some_to_all_4(4);
        let (l, k) = (DimSet::from_dims([0, 1]), DimSet::from_dims([2, 3]));
        let reversed: Vec<u32> = l.iter_desc().chain(k.iter_desc()).collect();
        let all_to_all_first = exchange_plan(
            4,
            split_first.blocks.clone(),
            &reversed,
            BufferPolicy::Ideal,
            PortMode::OnePort,
            "some-to-all, all-to-all first",
        );
        let good = report(&split_first, MachineParams::unit(PortMode::OnePort));
        let bad = report(&all_to_all_first, MachineParams::unit(PortMode::OnePort));
        assert_eq!(good.rounds, bad.rounds);
        assert_eq!((good.transfer_time, bad.transfer_time), (64.0, 112.0));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_dim_sets_rejected() {
        let (l, k) = (DimSet::from_dims([0, 1]), DimSet::from_dims([1]));
        let _ = some_to_all_plan(2, l, k, &[], BufferPolicy::Ideal, PortMode::OnePort);
    }

    #[test]
    fn sbt_plan_has_n_rounds_and_conserves_elems() {
        let n = 4;
        let sizes: Vec<u64> = (0..16u64).map(|d| d % 3 + 1).collect();
        let plan = one_to_all_sbt_plan(n, NodeId(5), &sizes);
        assert_eq!(plan.rounds.len(), n as usize);
        let total: u64 = plan.blocks.iter().map(|b| b.elems).sum();
        assert_eq!(total, sizes.iter().sum::<u64>());
    }

    #[test]
    fn sbt_time_matches_formula() {
        // Unit model, B_m = ∞: T = n·τ + (1 - 1/N)·PQ·t_c with PQ = N·b.
        let (n, b) = (4, 8u64);
        let plan = one_to_all_sbt_plan(n, NodeId(0), &[b; 16]);
        let r = report(&plan, MachineParams::unit(PortMode::OnePort));
        let pq = (b << n) as f64;
        let expect = n as f64 + (1.0 - 1.0 / 16.0) * pq;
        assert_eq!(r.rounds, n as usize);
        assert!((r.time - expect).abs() < 1e-9, "time {} vs {}", r.time, expect);
    }

    #[test]
    fn sbt_respects_one_port() {
        // Would panic inside SimNet otherwise; also check the round count.
        let plan = one_to_all_sbt_plan(5, NodeId(17), &[2; 32]);
        assert_eq!(report(&plan, MachineParams::intel_ipsc()).rounds, 5);
    }

    #[test]
    fn empty_blocks_skipped() {
        // Virtual elements need not be communicated: zero-length blocks
        // are not planned and cost nothing.
        let plan = one_to_all_sbt_plan(2, NodeId(0), &[1, 0, 1, 0]);
        assert_eq!(plan.blocks.len(), 2);
        // Only dst 2's block moves (dst 0 stays).
        assert_eq!(report(&plan, MachineParams::unit(PortMode::OnePort)).total_elems, 1);
    }

    fn rotated(n: u32, b: u64) -> CommSchedule {
        let sizes = vec![b; cubeaddr::num_nodes(n)];
        one_to_all_trees_plan(n, &sizes, &Sbt::k_rotated(n, NodeId(0), n))
    }

    #[test]
    fn rotated_sbts_speedup_about_n() {
        // n-port transfer time is 1/n of the one-port SBT's.
        let (n, b) = (4, 64u64);
        let sbt = one_to_all_sbt_plan(n, NodeId(0), &[b; 16]);
        let t1 = report(&sbt, MachineParams::unit(PortMode::OnePort)).transfer_time;
        let r2 = report(&rotated(n, b), MachineParams::unit(PortMode::AllPorts));
        let t2 = r2.transfer_time;
        assert!((t2 - t1 / n as f64).abs() <= t1 * 0.02, "expected ~{n}x speedup: {t1} vs {t2}");
        assert_eq!(r2.rounds, n as usize);
    }

    #[test]
    fn rotated_sbts_exact_time() {
        // T = n·τ + (1/n)(1 - 1/N)·PQ·t_c when n divides every block.
        let (n, b) = (4, 8u64);
        let r = report(&rotated(n, b), MachineParams::unit(PortMode::AllPorts));
        let pq = (b << n) as f64;
        let expect = n as f64 + (1.0 / n as f64) * (1.0 - 1.0 / 16.0) * pq;
        assert!((r.time - expect).abs() < 1e-9, "time {} vs {}", r.time, expect);
    }

    #[test]
    fn trees_plan_splits_remainders_first() {
        let trees = Sbt::k_rotated(2, NodeId(0), 2);
        let plan = one_to_all_trees_plan(2, &[0, 5, 2, 1], &trees);
        // dst 1: 5 elems over 2 trees -> 3 + 2; dst 2: 1 + 1; dst 3: 1.
        let sizes: Vec<u64> = plan.blocks.iter().map(|b| b.elems).collect();
        assert_eq!(sizes, vec![3, 2, 1, 1, 1]);
    }

    /// §3.1, k = 2 regime: the reflected pairing balances edge loads
    /// better than the optimally rotated pairing — the paper credits
    /// reflection with a maximum of N/2 + 1 element transfers over any
    /// edge versus N/2 + √(N/2) for rotation.
    #[test]
    fn k2_reflection_beats_rotation_on_edge_load() {
        let n = 6; // N = 64
                   // One element per destination per tree (PQ/N = 2, k = 2).
        let sizes = [2u64; 64];
        let run = |trees: &[Sbt]| {
            report(
                &one_to_all_trees_plan(n, &sizes, trees),
                MachineParams::unit(PortMode::AllPorts),
            )
        };
        let rot = run(&Sbt::k_rotated(n, NodeId(0), 2));
        let refl = run(&Sbt::reflected_pair(n, NodeId(0)));
        assert_eq!(refl.max_link_elems, 64 / 2 + 1, "reflection max edge load should be N/2 + 1");
        assert!(
            rot.max_link_elems > refl.max_link_elems,
            "rotation load {} should exceed reflection load {}",
            rot.max_link_elems,
            refl.max_link_elems
        );
    }

    #[test]
    fn sbnt_plan_round_count_is_max_path_length() {
        for n in [4, 5] {
            let plan = all_to_all_sbnt_plan(n, &uniform(n, 1));
            assert_eq!(plan.rounds.len(), n as usize);
            assert_eq!(report(&plan, MachineParams::unit(PortMode::AllPorts)).rounds, n as usize);
        }
    }

    #[test]
    fn n_port_time_beats_one_port_exchange() {
        // For large blocks the SBnT all-to-all transfer time approaches
        // PQ/2N·t_c versus the exchange algorithm's n·PQ/2N·t_c.
        let (n, b) = (4, 64u64);
        let r = report(
            &all_to_all_sbnt_plan(n, &uniform(n, b)),
            MachineParams::unit(PortMode::AllPorts),
        );
        let num = 16.0;
        let pq = b as f64 * num * num;
        let one_port_transfer = n as f64 * pq / (2.0 * num);
        // Within a factor of 2 of the n-port bound, and clearly below the
        // one-port cost.
        assert!(
            r.transfer_time < one_port_transfer / 2.0,
            "{} vs {one_port_transfer}",
            r.transfer_time
        );
        assert!(r.transfer_time >= pq / (2.0 * num) - 1e-9);
    }

    #[test]
    fn max_link_load_near_balanced_bound() {
        // Total element-hops spread over n·N directed links; the max link
        // load should be within 2× of PQ/2N.
        let (n, b) = (4, 8u64);
        let r = report(
            &all_to_all_sbnt_plan(n, &uniform(n, b)),
            MachineParams::unit(PortMode::AllPorts),
        );
        let per_link_bound = b * 16 / 2; // PQ/2N with PQ = b·N².
        assert!(
            r.max_link_elems <= 2 * per_link_bound,
            "max link load {} vs bound {per_link_bound}",
            r.max_link_elems
        );
    }

    #[test]
    fn sbnt_one_to_all_balances_root_ports() {
        // Compared with the SBT (whose heaviest subtree holds half the
        // data), the SBnT splits the root's outflow nearly evenly: the
        // heaviest link carries ≲ 2/n of the total.
        let (n, b) = (5, 8u64);
        let blocks = NodeId::all(n).map(|dst| BlockMeta { src: NodeId(0), dst, elems: b });
        let params = MachineParams::unit(PortMode::AllPorts);
        let r = report(&sbnt_plan(n, blocks.collect()), params.clone());
        let pq = b << n;
        assert!(
            r.max_link_elems <= 2 * pq / n as u64,
            "max link load {} vs balanced bound {}",
            r.max_link_elems,
            2 * pq / n as u64
        );
        // Within a small factor of the n-port one-to-all optimum,
        // (1/n)(1 - 1/N)·PQ·t_c + n·τ. (The paper's reverse-breadth-first
        // *packet* schedule keeps the root streaming continuously; this
        // level-batched forwarding loses a further constant on the deep
        // subtrees.)
        let t_opt =
            (1.0 / n as f64) * (1.0 - 1.0 / 32.0) * pq as f64 * params.t_c + n as f64 * params.tau;
        assert!(r.time <= 3.0 * t_opt, "{} vs 3×{}", r.time, t_opt);
    }

    #[test]
    fn ecube_plan_single_message_takes_distance_rounds() {
        let plan = ecube_route_plan(4, &[(NodeId(0), NodeId(0b1011), 2)]);
        assert_eq!(plan.rounds.len(), 3);
        for round in &plan.rounds {
            assert_eq!(round.msgs.len(), 1);
        }
        // Hops ascend dimensions 0, 1, 3.
        let dims: Vec<u32> = plan.rounds.iter().map(|r| r.msgs[0].dim).collect();
        assert_eq!(dims, vec![0, 1, 3]);
    }

    #[test]
    fn ecube_plan_contention_serializes() {
        // Mirrors ecube::tests::contention_serializes: both messages
        // queue on (1, dim 0); the second waits a round.
        let plan = ecube_route_plan(2, &[(NodeId(1), NodeId(0), 1), (NodeId(1), NodeId(2), 1)]);
        assert_eq!(plan.rounds.len(), 3);
        assert_eq!(plan.rounds[0].msgs.len(), 1);
    }

    #[test]
    fn local_and_empty_router_messages_plan_no_hops() {
        let plan = ecube_route_plan(2, &[(NodeId(2), NodeId(2), 5), (NodeId(0), NodeId(3), 0)]);
        assert!(plan.rounds.is_empty());
        assert_eq!(plan.blocks.len(), 1); // the local block survives; the empty one is dropped
    }

    #[test]
    #[should_panic(expected = "one_to_all_trees_plan needs at least one tree")]
    fn trees_plan_refuses_an_empty_family() {
        let _ = one_to_all_trees_plan(3, &[1; 8], &[]);
    }

    #[test]
    #[should_panic(expected = "distinct (src, dst)")]
    fn exchange_plan_rejects_duplicate_pairs() {
        let b = BlockMeta { src: NodeId(0), dst: NodeId(1), elems: 1 };
        let _ = exchange_plan(1, vec![b, b], &[0], BufferPolicy::Ideal, PortMode::OnePort, "dup");
    }
}

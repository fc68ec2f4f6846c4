//! Static schedule introspection: metadata-only communication plans.
//!
//! Every routing algorithm in this crate is a *schedule* — a sequence
//! of synchronous rounds, each moving a set of `(source, dimension)`
//! messages. The builders here produce the schedules as first-class data
//! ([`CommSchedule`]) without a simulator and without payloads: blocks
//! are `(src, dst, elems)` records ([`BlockMeta`]), and each planned
//! round lists which block ids cross which directed links.
//!
//! The builders do not mirror engines; they *are* the control flow. The
//! block engines ([`crate::exchange`], [`crate::one_to_all`],
//! [`crate::sbnt`], [`crate::some_to_all`]) tag their payloads as
//! [`BlockMeta`], build the rounds with the same `skeleton` functions
//! the planners below call, and hand them to [`crate::exec::execute`];
//! the router ([`crate::graph`]) runs the hop log of the contention
//! simulation that [`ecube_route_plan`] and [`dragonfly_direct_plan`]
//! materialize. So a plan's per-round link claims coincide, round for
//! round and link for link, with the
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
//! LRU [`PlanCache`] (see [`cache`]) plus the `*_cached` wrappers below
//! make repeated requests for the same shape pay construction once.
//!
//! Builders never panic on *invariant* violations (a plan for a broken
//! schedule is still a plan — `cubecheck` reports the breakage as
//! diagnostics); they only assert on malformed inputs (shape mismatches,
//! zero-element blocks).

pub mod cache;
pub mod dragonfly;
pub mod reference;
pub(crate) mod skeleton;

pub use cache::{fingerprint, CacheStats, MachineKey, PlanCache, PlanKey};
pub use dragonfly::{
    dragonfly_direct_plan, dragonfly_direct_plan_cached, dragonfly_swap_exchange_plan,
    dragonfly_swap_exchange_plan_cached,
};

use crate::exchange::BufferPolicy;
use crate::sbt::{common_root, Sbt};
use crate::some_to_all;
use cubeaddr::{DimSet, NodeId};
use cubesim::PortMode;
use cubesync::sync::Arc;
use cubetopo::{Hypercube, TopoSpec, Topology};

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
/// round. Block ids index [`CommSchedule::blocks`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlannedMsg {
    /// Sending node.
    pub src: NodeId,
    /// Port crossed — on the cube, the dimension (the receiver is
    /// `src.neighbor(dim)`); generally, the receiver is
    /// `topo.neighbor(src, dim)` of the schedule's topology.
    pub dim: u32,
    /// Ids of the blocks travelling in this message.
    pub blocks: Vec<u32>,
}

/// One planned round: its messages plus any local-copy work charged in
/// the same round (the gather pass of the buffered exchange policy).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PlanRound {
    /// Messages sent this round, in send order.
    pub msgs: Vec<PlannedMsg>,
    /// `(node, elements)` local-copy charges for this round.
    pub copies: Vec<(NodeId, u64)>,
}

/// A complete static communication schedule.
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
    /// The rounds, in execution order. Rounds with no messages are
    /// real: an execution still pays a round boundary there.
    pub rounds: Vec<PlanRound>,
}

impl CommSchedule {
    /// Total elements carried by one planned message.
    pub fn msg_elems(&self, msg: &PlannedMsg) -> u64 {
        msg.blocks.iter().map(|&i| self.blocks[i as usize].elems).sum()
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

/// Validates block metadata shared by every builder: positive sizes and
/// in-range endpoints.
#[track_caller]
pub(crate) fn check_blocks(topo: &TopoSpec, blocks: &[BlockMeta]) {
    let num = topo.num_nodes() as u64;
    assert!(blocks.len() < u32::MAX as usize, "block id space exhausted");
    for b in blocks {
        assert!(b.elems > 0, "zero-element block {} -> {}: drop virtual blocks", b.src, b.dst);
        assert!(
            b.src.bits() < num && b.dst.bits() < num,
            "block endpoints outside the {}",
            topo.label()
        );
    }
}

/// The memory-contiguous chunks the iPSC implementation sees at exchange
/// step `step_index` (0-based): the exchange works in place, so the
/// elements to send occupy `2^step` equal non-contiguous runs of the
/// local array, because `step` already-processed address bits sit above
/// the bit being exchanged (§8.1: "the local array is partitioned into
/// `2^j` same-sized blocks during step `j`"). Ids are sorted by
/// `(dst, src)` — the local storage order of the blocked array — and
/// split into that many near-equal runs.
fn chunk_ids(mut ids: Vec<u32>, step_index: usize, blocks: &[BlockMeta]) -> Vec<Vec<u32>> {
    if ids.is_empty() {
        return Vec::new();
    }
    ids.sort_by_key(|&i| (blocks[i as usize].dst, blocks[i as usize].src));
    let want = 1usize << step_index.min(62);
    let chunks = want.min(ids.len());
    let per = ids.len().div_ceil(chunks);
    ids.chunks(per).map(<[u32]>::to_vec).collect()
}

/// Plans [`crate::exchange::exchange_over_dims`]: the standard exchange
/// algorithm over `dims` in order, starting from every block at its
/// source, under the given send policy.
///
/// Blocks must have pairwise distinct `(src, dst)` pairs, so that the
/// `(dst, src)` chunk order of the unbuffered and buffered policies is
/// total and a plan reads the same whatever order its blocks were
/// listed in. ([`crate::exchange::exchange_over_dims`] itself accepts
/// duplicates and breaks the tie by holding order.)
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
    let rounds = skeleton::exchange_rounds(n, &blocks, dims, policy);
    CommSchedule {
        name: name.into(),
        topo: TopoSpec::hypercube(n),
        ports,
        dimension_ordered: true,
        blocks,
        rounds,
    }
}

/// Plans [`crate::exchange::all_to_all_exchange`]: one block per
/// `(src, dst)` pair (zero sizes dropped, the diagonal kept in place),
/// exchanged over all `n` dimensions highest first.
#[track_caller]
pub fn all_to_all_exchange_plan(
    n: u32,
    sizes: &[Vec<u64>],
    policy: BufferPolicy,
    ports: PortMode,
) -> CommSchedule {
    let num = cubeaddr::num_nodes(n);
    assert_eq!(sizes.len(), num, "need one size row per source");
    let mut blocks = Vec::new();
    for (s, per_dst) in sizes.iter().enumerate() {
        assert_eq!(per_dst.len(), num, "need one (possibly zero) size per destination");
        for (d, &elems) in per_dst.iter().enumerate() {
            if elems > 0 {
                blocks.push(BlockMeta { src: NodeId(s as u64), dst: NodeId(d as u64), elems });
            }
        }
    }
    let dims: Vec<u32> = (0..n).rev().collect();
    exchange_plan(n, blocks, &dims, policy, ports, format!("all_to_all_exchange/n{n}"))
}

/// Plans [`crate::some_to_all::some_to_all`]: sources are the nodes whose
/// `k_dims` bits are zero (ascending); splitting over `k_dims` runs
/// first (Theorem 1), then all-to-all over `l_dims`, both highest
/// dimension first.
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
    let sources = some_to_all::subcube_nodes(n, k_dims);
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
    let dims = some_to_all::phase_order(l_dims, k_dims, true);
    exchange_plan(n, blocks, &dims, policy, ports, format!("some_to_all/n{n}/k{:#b}", k_dims.0))
}

/// Plans [`crate::one_to_all::one_to_all_sbt`]: SBT routing from `root`,
/// one round per logical dimension, subtree data sent all at once.
/// `sizes[d]` is the element count destined to node `d` (zeros dropped).
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
    let rounds = skeleton::sbt_rounds(n, &blocks, &tree);
    CommSchedule {
        name: format!("one_to_all_sbt/n{n}/root{root}"),
        topo: TopoSpec::hypercube(n),
        ports: PortMode::OnePort,
        // The unrotated, unreflected SBT routes logical = physical
        // dimensions in ascending order.
        dimension_ordered: true,
        blocks,
        rounds,
    }
}

/// Plans [`crate::one_to_all::one_to_all_trees`]: every destination's
/// data split into `trees.len()` near-equal parts (first parts take the
/// remainder), each part routed down its own tree, all trees
/// concurrently (n-port).
///
/// Also plans the derived families: pass `n` rotated trees for
/// [`crate::one_to_all::one_to_all_rotated_sbts`], or the standard +
/// reflected pair for [`crate::one_to_all::one_to_all_reflected_pair`].
#[track_caller]
pub fn one_to_all_trees_plan(n: u32, sizes: &[u64], trees: &[Sbt]) -> CommSchedule {
    let num = cubeaddr::num_nodes(n);
    assert_eq!(sizes.len(), num, "one size per destination node");
    let root = common_root(n, trees);
    let k_trees = trees.len() as u64;
    // Block per (destination, tree) slice, mirroring split_even sizing:
    // part k of a total gets `total/k_trees` plus one of the first
    // `total mod k_trees` remainders.
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
    let rounds = skeleton::trees_rounds(n, &blocks, trees, &tree_of);
    CommSchedule {
        name: format!("one_to_all_trees/n{n}/root{root}/k{}", trees.len()),
        topo: TopoSpec::hypercube(n),
        ports: PortMode::AllPorts,
        // Rotated/reflected trees cross dimensions in cyclically shifted
        // orders; no single channel order covers the family.
        dimension_ordered: false,
        blocks,
        rounds,
    }
}

/// Plans [`crate::sbnt::all_to_all_sbnt`]: every block follows its SBnT
/// path one hop per round, blocks queued at a node for the same port
/// travelling as one message.
#[track_caller]
pub fn all_to_all_sbnt_plan(n: u32, sizes: &[Vec<u64>]) -> CommSchedule {
    let num = cubeaddr::num_nodes(n);
    assert_eq!(sizes.len(), num, "one size row per source");
    let mut blocks = Vec::new();
    for (s, per_dst) in sizes.iter().enumerate() {
        assert_eq!(per_dst.len(), num, "one (possibly zero) size per destination");
        for (d, &elems) in per_dst.iter().enumerate() {
            if elems > 0 {
                blocks.push(BlockMeta { src: NodeId(s as u64), dst: NodeId(d as u64), elems });
            }
        }
    }
    check_blocks(&TopoSpec::hypercube(n), &blocks);
    let rounds = skeleton::sbnt_rounds(n, &blocks);
    CommSchedule {
        name: format!("all_to_all_sbnt/n{n}"),
        topo: TopoSpec::hypercube(n),
        ports: PortMode::AllPorts,
        // SBnT forwarding follows set bits cyclically to the left from
        // the base port — not consistent with any fixed channel order.
        dimension_ordered: false,
        blocks,
        rounds,
    }
}

/// Plans [`crate::ecube::ecube_route`]: dimension-ordered store-and-
/// forward routing, one message per directed link per round, FIFO per
/// link (nodes ascending, dimensions ascending per node, sends
/// dimension-major) — the contention simulation
/// [`dragonfly_direct_plan`] and the router itself share, on a
/// [`Hypercube`].
///
/// `msgs` are `(src, dst, elems)`; zero-element and local messages plan
/// no hops (local blocks still appear in the plan's block list, with an
/// empty path — conservation treats them as already delivered).
#[track_caller]
pub fn ecube_route_plan(n: u32, msgs: &[(NodeId, NodeId, u64)]) -> CommSchedule {
    let blocks: Vec<BlockMeta> = msgs
        .iter()
        .filter(|&&(_, _, elems)| elems > 0)
        .map(|&(src, dst, elems)| BlockMeta { src, dst, elems })
        .collect();
    check_blocks(&TopoSpec::hypercube(n), &blocks);
    let rounds = skeleton::route_rounds(&Hypercube::new(n), &blocks);
    CommSchedule {
        name: format!("ecube_route/n{n}"),
        topo: TopoSpec::hypercube(n),
        ports: PortMode::AllPorts,
        dimension_ordered: true,
        blocks,
        rounds,
    }
}

// --- Cached front-ends -------------------------------------------------
//
// One wrapper per planner: the cache key fingerprints the *complete*
// planner input (see `cache` module docs on keying), so a hit is
// guaranteed byte-identical to the cold construction it replaces.

/// [`exchange_plan`] through a [`PlanCache`].
#[track_caller]
pub fn exchange_plan_cached(
    cache: &PlanCache,
    n: u32,
    blocks: &[BlockMeta],
    dims: &[u32],
    policy: BufferPolicy,
    ports: PortMode,
    name: &str,
) -> Arc<CommSchedule> {
    let key = PlanKey::new("exchange", n)
        .with_fingerprint(fingerprint(&(blocks, dims, policy, ports, name)));
    cache.get_or_build(key, || exchange_plan(n, blocks.to_vec(), dims, policy, ports, name))
}

/// [`all_to_all_exchange_plan`] through a [`PlanCache`].
#[track_caller]
pub fn all_to_all_exchange_plan_cached(
    cache: &PlanCache,
    n: u32,
    sizes: &[Vec<u64>],
    policy: BufferPolicy,
    ports: PortMode,
) -> Arc<CommSchedule> {
    let key = PlanKey::new("all_to_all_exchange", n)
        .with_fingerprint(fingerprint(&(sizes, policy, ports)));
    cache.get_or_build(key, || all_to_all_exchange_plan(n, sizes, policy, ports))
}

/// [`some_to_all_plan`] through a [`PlanCache`].
#[track_caller]
pub fn some_to_all_plan_cached(
    cache: &PlanCache,
    n: u32,
    l_dims: DimSet,
    k_dims: DimSet,
    sizes: &[Vec<u64>],
    policy: BufferPolicy,
    ports: PortMode,
) -> Arc<CommSchedule> {
    let key = PlanKey::new("some_to_all", n)
        .with_fingerprint(fingerprint(&(l_dims.0, k_dims.0, sizes, policy, ports)));
    cache.get_or_build(key, || some_to_all_plan(n, l_dims, k_dims, sizes, policy, ports))
}

/// [`one_to_all_sbt_plan`] through a [`PlanCache`].
#[track_caller]
pub fn one_to_all_sbt_plan_cached(
    cache: &PlanCache,
    n: u32,
    root: NodeId,
    sizes: &[u64],
) -> Arc<CommSchedule> {
    let key = PlanKey::new("one_to_all_sbt", n).with_fingerprint(fingerprint(&(root, sizes)));
    cache.get_or_build(key, || one_to_all_sbt_plan(n, root, sizes))
}

/// [`one_to_all_trees_plan`] through a [`PlanCache`].
#[track_caller]
pub fn one_to_all_trees_plan_cached(
    cache: &PlanCache,
    n: u32,
    sizes: &[u64],
    trees: &[Sbt],
) -> Arc<CommSchedule> {
    let key = PlanKey::new("one_to_all_trees", n).with_fingerprint(fingerprint(&(sizes, trees)));
    cache.get_or_build(key, || one_to_all_trees_plan(n, sizes, trees))
}

/// [`all_to_all_sbnt_plan`] through a [`PlanCache`].
#[track_caller]
pub fn all_to_all_sbnt_plan_cached(
    cache: &PlanCache,
    n: u32,
    sizes: &[Vec<u64>],
) -> Arc<CommSchedule> {
    let key = PlanKey::new("all_to_all_sbnt", n).with_fingerprint(fingerprint(&sizes));
    cache.get_or_build(key, || all_to_all_sbnt_plan(n, sizes))
}

/// [`ecube_route_plan`] through a [`PlanCache`].
#[track_caller]
pub fn ecube_route_plan_cached(
    cache: &PlanCache,
    n: u32,
    msgs: &[(NodeId, NodeId, u64)],
) -> Arc<CommSchedule> {
    let key = PlanKey::new("ecube_route", n).with_fingerprint(fingerprint(&msgs));
    cache.get_or_build(key, || ecube_route_plan(n, msgs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_plan_counts_match_formula() {
        // n=2 all-to-all, 1 elem per pair, Ideal: 2 rounds, every node
        // sends 2 blocks per round.
        let n = 2;
        let sizes = vec![vec![1u64; 4]; 4];
        let plan = all_to_all_exchange_plan(n, &sizes, BufferPolicy::Ideal, PortMode::OnePort);
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
    fn unbuffered_plan_subrounds_sum_to_n_minus_one() {
        let n = 3;
        let sizes = vec![vec![2u64; 8]; 8];
        let plan = all_to_all_exchange_plan(n, &sizes, BufferPolicy::Unbuffered, PortMode::OnePort);
        assert_eq!(plan.rounds.len(), (1 << n) - 1);
    }

    #[test]
    fn buffered_plan_charges_copies_for_gathered_chunks() {
        // Mirrors exchange::tests::buffered_charges_copy_only_for_small_chunks.
        let n = 3;
        let sizes = vec![vec![4u64; 8]; 8];
        let plan = all_to_all_exchange_plan(
            n,
            &sizes,
            BufferPolicy::Buffered { min_direct: 8 },
            PortMode::OnePort,
        );
        assert_eq!(plan.rounds.len(), 4);
        let copied: u64 = plan.rounds.iter().flat_map(|r| &r.copies).map(|&(_, e)| e).sum();
        // Last step: every node gathers 4 chunks x 4 elements = 16.
        assert_eq!(copied, 16 * 8);
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
    fn trees_plan_splits_like_split_even() {
        let n = 2;
        let trees: Vec<Sbt> = (0..n).map(|k| Sbt::rotated(n, NodeId(0), k)).collect();
        let plan = one_to_all_trees_plan(n, &[0, 5, 2, 1], &trees);
        // dst 1: 5 elems over 2 trees -> 3 + 2; dst 2: 1 + 1; dst 3: 1.
        let sizes: Vec<u64> = plan.blocks.iter().map(|b| b.elems).collect();
        assert_eq!(sizes.iter().sum::<u64>(), 8);
        assert!(sizes.contains(&3) && sizes.contains(&2));
    }

    #[test]
    fn sbnt_plan_round_count_is_max_path_length() {
        let n = 4;
        let sizes = vec![vec![1u64; 16]; 16];
        let plan = all_to_all_sbnt_plan(n, &sizes);
        assert_eq!(plan.rounds.len(), n as usize);
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
    #[should_panic(expected = "distinct (src, dst)")]
    fn exchange_plan_rejects_duplicate_pairs() {
        let b = BlockMeta { src: NodeId(0), dst: NodeId(1), elems: 1 };
        let _ = exchange_plan(1, vec![b, b], &[0], BufferPolicy::Ideal, PortMode::OnePort, "dup");
    }
}

//! Swapped Dragonfly planners: Draper's routing algorithms on `D3(K,M)`
//! as static [`CommSchedule`]s.
//!
//! Two of the algorithm family from *Four Algorithms on the Swapped
//! Dragonfly* are planned here, both emitting the same link-claim IR the
//! cube planners emit — so the `cubecheck` rule families (port
//! compliance, edge-disjointness, packet budgets, conservation) verify
//! them unchanged, and [`crate::graph::graph_route`]-style executions
//! can be cross-validated against them:
//!
//! * [`dragonfly_direct_plan`] — *direct* (minimal) routing: every
//!   message follows its local–global–local path one hop per round
//!   with per-link FIFO queueing, exactly mirroring
//!   [`crate::graph::graph_route`] on a [`SwappedDragonfly`] net. The
//!   contention simulation is the `MinimalRoute`-generic one in
//!   `plan::skeleton` that [`crate::plan::ecube_route_plan`] runs on
//!   the cube; this planner only names the topology.
//! * [`dragonfly_swap_exchange_plan`] — the scheduled all-to-all: a
//!   rotation schedule of `2M - 1` rounds (gather toward gateways,
//!   one fully parallel global round, distribute from arrival routers)
//!   in which every directed link carries at most one message per
//!   round by construction, rather than by queueing.
//!
//! Neither family is dimension-ordered — local–global–local channel
//! chains revisit intra-group channels, so no fixed channel order
//! covers them; like the SBnT family their deadlock freedom comes from
//! round-synchronous batching, and the plans say so
//! (`dimension_ordered: false`).

use super::{
    all_to_all_blocks, check_blocks, fingerprint, skeleton, BlockMeta, CommSchedule, PlanCache,
    PlanKey, PlanRound, PlannedMsg,
};
use cubeaddr::NodeId;
use cubesim::PortMode;
use cubesync::sync::Arc;
use cubetopo::{SwappedDragonfly, TopoSpec, Topology};

/// Plans minimal (direct) store-and-forward routing on `D3(K,M)`: every
/// message follows its local–global–local path, one message per
/// directed link per round, FIFO per link — the same decisions as
/// [`crate::graph::graph_route`] on a Dragonfly net (each round's hops
/// listed in channel order here, in landing order there), so the plan's
/// per-round claims coincide with that execution's
/// [`cubesim::CommReport::link_history`].
///
/// `msgs` are `(src, dst, elems)`; zero-element and local messages plan
/// no hops (local blocks still appear in the plan's block list with an
/// empty path — conservation treats them as already delivered).
#[track_caller]
pub fn dragonfly_direct_plan(k: u32, m: u32, msgs: &[(NodeId, NodeId, u64)]) -> CommSchedule {
    let d = SwappedDragonfly::new(k, m);
    let topo = TopoSpec::from(d);
    let blocks: Vec<BlockMeta> = msgs
        .iter()
        .filter(|&&(_, _, elems)| elems > 0)
        .map(|&(src, dst, elems)| BlockMeta { src, dst, elems })
        .collect();
    check_blocks(&topo, &blocks);

    let (rounds, block_ids) = skeleton::route_rounds(&d, &blocks);
    CommSchedule {
        name: format!("dragonfly_direct/{}", d.label()),
        topo,
        ports: PortMode::AllPorts,
        dimension_ordered: false,
        blocks,
        block_ids,
        rounds,
    }
    .checked()
}

/// Plans the scheduled Swapped-Dragonfly all-to-all (`sizes[s][d]`
/// elements from node `s` to node `d`, zeros dropped, the diagonal kept
/// in place): a `2M - 1`-round rotation schedule in which every
/// directed link carries at most one message per round by construction.
///
/// * **Gather** (rounds `t = 1 .. M-1`): router `r` of each group sends
///   one message to router `(r + t) mod M` — the in-group deliveries
///   bound for that router plus the remote-group blocks whose gateway
///   it is. The map `r → (r + t) mod M` is a permutation, so each round
///   uses each directed intra-group link at most once.
/// * **Global** (round `M`): every gateway router forwards each remote
///   group's accumulated blocks over its swap link — all `K·M·(M-1)·K`
///   wired global links fire in the same round, each exactly once.
/// * **Distribute** (rounds `M+1 .. 2M-1`): arrival routers rotate the
///   landed blocks to their final in-group destinations, mirroring the
///   gather phase.
#[track_caller]
pub fn dragonfly_swap_exchange_plan(k: u32, m: u32, sizes: &[Vec<u64>]) -> CommSchedule {
    let d = SwappedDragonfly::new(k, m);
    let topo = TopoSpec::from(d);
    let blocks = all_to_all_blocks(d.num_nodes(), sizes, "need ");
    check_blocks(&topo, &blocks);

    let mm = u64::from(m);
    let kk = u64::from(k);
    let n_rounds = if m > 1 { 2 * m as usize - 1 } else { 1 };
    let global_round = m as usize - 1;
    // `(round, src, port, block id)` hops; a stable sort by the first
    // three groups them into messages, nodes ascending, ports ascending,
    // each message's ids in id order.
    let mut hops: Vec<(usize, u64, u32, u32)> = Vec::new();

    for (id, b) in blocks.iter().enumerate() {
        let id = id as u32;
        let (gs, rs) = d.coords(b.src.bits());
        let (gd, rd) = d.coords(b.dst.bits());
        if b.src == b.dst {
            continue; // diagonal: stays in place, no claims
        }
        if gs == gd {
            // In-group delivery during the gather rotation.
            let t = (rd + mm - rs) % mm;
            hops.push((t as usize - 1, b.src.bits(), d.intra_port(rs, rd), id));
            continue;
        }
        // Remote group: gather to the gateway, cross, distribute.
        let gw = d.gateway_router(gd);
        if rs != gw {
            let t = (gw + mm - rs) % mm;
            hops.push((t as usize - 1, b.src.bits(), d.intra_port(rs, gw), id));
        }
        let gw_node = d.node_at(gs, gw);
        let gp = d.global_port_to(gw, gd).expect("gateway owns the link to gd");
        hops.push((global_round, gw_node, gp, id));
        let ra = gs / kk; // arrival router: the swap of the source group
        if rd != ra {
            let t = (rd + mm - ra) % mm;
            hops.push((global_round + t as usize, d.node_at(gd, ra), d.intra_port(ra, rd), id));
        }
    }

    hops.sort_by_key(|&(round, src, port, _)| (round, src, port));
    let mut rounds: Vec<PlanRound> = (0..n_rounds).map(|_| PlanRound::default()).collect();
    let mut block_ids = Vec::with_capacity(hops.len());
    for msg in hops.chunk_by(|a, b| (a.0, a.1, a.2) == (b.0, b.1, b.2)) {
        let (round, src, port, _) = msg[0];
        let ids = msg.iter().map(|&(.., id)| id);
        rounds[round].msgs.push(PlannedMsg::push(&mut block_ids, NodeId(src), port, ids));
    }

    CommSchedule {
        name: format!("dragonfly_swap_exchange/{}", d.label()),
        topo,
        ports: PortMode::AllPorts,
        dimension_ordered: false,
        blocks,
        block_ids,
        rounds,
    }
    .checked()
}

/// [`dragonfly_direct_plan`] through a [`PlanCache`].
#[track_caller]
pub fn dragonfly_direct_plan_cached(
    cache: &PlanCache,
    k: u32,
    m: u32,
    msgs: &[(NodeId, NodeId, u64)],
) -> Arc<CommSchedule> {
    let key = PlanKey::new("dragonfly_direct", 0, fingerprint(&(k, m, msgs)));
    cache.get_or_build(key, || dragonfly_direct_plan(k, m, msgs))
}

/// [`dragonfly_swap_exchange_plan`] through a [`PlanCache`].
#[track_caller]
pub fn dragonfly_swap_exchange_plan_cached(
    cache: &PlanCache,
    k: u32,
    m: u32,
    sizes: &[Vec<u64>],
) -> Arc<CommSchedule> {
    let key = PlanKey::new("dragonfly_swap_exchange", 0, fingerprint(&(k, m, sizes)));
    cache.get_or_build(key, || dragonfly_swap_exchange_plan(k, m, sizes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn all_to_all_sizes(num: usize, elems: u64) -> Vec<Vec<u64>> {
        (0..num).map(|s| (0..num).map(|t| if s == t { 0 } else { elems }).collect()).collect()
    }

    #[test]
    fn direct_plan_single_message_takes_lgl_rounds() {
        let d = SwappedDragonfly::new(2, 4);
        // (5,3) -> (2,0): local, global, local (see graph router tests).
        let plan =
            dragonfly_direct_plan(2, 4, &[(NodeId(d.node_at(5, 3)), NodeId(d.node_at(2, 0)), 2)]);
        assert_eq!(plan.rounds.len(), 3);
        for round in &plan.rounds {
            assert_eq!(round.msgs.len(), 1);
        }
        assert!(!plan.dimension_ordered);
        assert_eq!(plan.topo, TopoSpec::dragonfly(2, 4));
    }

    #[test]
    fn direct_plan_contention_serializes() {
        // Both messages inject at group 1's gateway on the same global
        // link (see graph::tests::dragonfly_gateway_contention_serializes).
        let d = SwappedDragonfly::new(1, 3);
        let gw = NodeId(d.node_at(0, 1));
        let plan = dragonfly_direct_plan(
            1,
            3,
            &[(gw, NodeId(d.node_at(1, 0)), 1), (gw, NodeId(d.node_at(1, 2)), 1)],
        );
        assert_eq!(plan.rounds.len(), 3);
        assert_eq!(plan.rounds[0].msgs.len(), 1, "global link serializes");
    }

    #[test]
    fn direct_plan_keeps_local_blocks_pathless() {
        let plan =
            dragonfly_direct_plan(2, 2, &[(NodeId(3), NodeId(3), 5), (NodeId(0), NodeId(7), 0)]);
        assert!(plan.rounds.is_empty());
        assert_eq!(plan.blocks.len(), 1);
    }

    #[test]
    fn swap_exchange_has_2m_minus_1_rounds() {
        let d = SwappedDragonfly::new(2, 4);
        let plan = dragonfly_swap_exchange_plan(2, 4, &all_to_all_sizes(d.num_nodes(), 1));
        assert_eq!(plan.rounds.len(), 7);
        assert_eq!(plan.blocks.len(), d.num_nodes() * (d.num_nodes() - 1));
    }

    #[test]
    fn swap_exchange_rounds_are_edge_disjoint() {
        let d = SwappedDragonfly::new(2, 3);
        let plan = dragonfly_swap_exchange_plan(2, 3, &all_to_all_sizes(d.num_nodes(), 2));
        for (i, round) in plan.rounds.iter().enumerate() {
            let mut seen = BTreeSet::new();
            for msg in &round.msgs {
                assert!(
                    seen.insert((msg.src, msg.dim)),
                    "round {i}: link ({}, {}) claimed twice",
                    msg.src,
                    msg.dim
                );
            }
        }
    }

    #[test]
    fn swap_exchange_global_round_fires_every_wired_global_link() {
        let d = SwappedDragonfly::new(2, 3);
        let plan = dragonfly_swap_exchange_plan(2, 3, &all_to_all_sizes(d.num_nodes(), 1));
        let global = &plan.rounds[d.m() as usize - 1];
        // Every wired global link carries one message: each of the KM
        // groups reaches the other KM - 1 groups over exactly one link.
        let expect = d.groups() * (d.groups() - 1);
        assert_eq!(global.msgs.len() as u64, expect);
        for msg in &global.msgs {
            assert!(msg.dim >= d.m() - 1, "global round uses only swap ports");
        }
    }

    #[test]
    fn swap_exchange_chains_connect_src_to_dst() {
        // Replay each block's claims in round order: the hops must chain
        // from its source to its destination over wired links.
        let d = SwappedDragonfly::new(2, 3);
        let plan = dragonfly_swap_exchange_plan(2, 3, &all_to_all_sizes(d.num_nodes(), 1));
        let mut at: Vec<u64> = plan.blocks.iter().map(|b| b.src.bits()).collect();
        for round in &plan.rounds {
            for msg in &round.msgs {
                for &id in plan.ids(msg) {
                    assert_eq!(at[id as usize], msg.src.bits(), "block {id} claimed off-node");
                    at[id as usize] = d.neighbor(msg.src.bits(), msg.dim).expect("wired link");
                }
            }
        }
        for (id, b) in plan.blocks.iter().enumerate() {
            assert_eq!(at[id], b.dst.bits(), "block {id} not delivered");
        }
    }

    #[test]
    fn swap_exchange_m1_is_one_global_round() {
        // D3(2,1): 2 groups of one router; the whole all-to-all is the
        // global round.
        let plan = dragonfly_swap_exchange_plan(2, 1, &all_to_all_sizes(2, 3));
        assert_eq!(plan.rounds.len(), 1);
        assert_eq!(plan.rounds[0].msgs.len(), 2);
    }

    #[test]
    fn cached_wrappers_hit_on_repeat() {
        let cache = PlanCache::new(8);
        let d = SwappedDragonfly::new(2, 2);
        let sizes = all_to_all_sizes(d.num_nodes(), 1);
        let a = dragonfly_swap_exchange_plan_cached(&cache, 2, 2, &sizes);
        let b = dragonfly_swap_exchange_plan_cached(&cache, 2, 2, &sizes);
        assert!(Arc::ptr_eq(&a, &b));
        let msgs = [(NodeId(0), NodeId(5), 4)];
        let c = dragonfly_direct_plan_cached(&cache, 2, 2, &msgs);
        let e = dragonfly_direct_plan_cached(&cache, 2, 2, &msgs);
        assert!(Arc::ptr_eq(&c, &e));
    }

    #[test]
    fn cached_wrappers_key_on_k_and_m() {
        // The same message list plans differently on D3(2,2) and D3(1,3)
        // (8 and 9 nodes): (k, m) is part of each key's fingerprint.
        let cache = PlanCache::new(8);
        let msgs = [(NodeId(0), NodeId(5), 4)];
        let a = dragonfly_direct_plan_cached(&cache, 2, 2, &msgs);
        let b = dragonfly_direct_plan_cached(&cache, 1, 3, &msgs);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.topo, b.topo);
        let sizes = all_to_all_sizes(4, 1);
        let c = dragonfly_swap_exchange_plan_cached(&cache, 1, 2, &sizes);
        let e = dragonfly_swap_exchange_plan_cached(&cache, 4, 1, &sizes);
        assert!(!Arc::ptr_eq(&c, &e));
        assert_ne!(c.topo, e.topo);
        assert_eq!(cache.stats().misses, 4);
    }
}

//! Store-and-forward routing over any [`MinimalRoute`] topology — the
//! one payload router, and the "routing logic" baseline of the paper's
//! Figures 14(b) and 16–18 when the topology is the cube.
//!
//! Every message follows the topology's minimal route (e-cube order on a
//! [`Hypercube`], Draper's local–global–local paths on a
//! [`cubetopo::SwappedDragonfly`]). Each directed link carries one
//! message per round and serves its queue FIFO, which is precisely what
//! makes the naive "just send everything to its destination" transpose
//! slow compared with the scheduled algorithms: contending messages
//! queue.
//!
//! # Data plane
//!
//! The router does not simulate contention itself: it tags the routed
//! messages as [`BlockMeta`], asks the planner's contention simulation
//! (`plan::skeleton::route_hops`, the one place the FIFO discipline
//! lives) for its flat `(sender, port, block)` hop log, and runs the
//! log. The router asks for each round in landing order (port-major,
//! senders ascending per port); the planners ask for the same hops in
//! channel order. A round is one serial pass on the calling thread:
//! every hop is charged to the net ([`SimNet::charge`]: checked, costed
//! and recorded as a send of the block would be) and the round is
//! finished. The net carries no block: a block's data stays in the
//! router's input until its last hop, when it is moved once to its
//! destination's list — in log order, so every node sees its arrivals
//! port-ascending, the reference router's arrival order. Nothing is
//! allocated per hop, the log costs 16 bytes a hop, and the topology's
//! port count is not limited. The router starts no threads and does not read
//! `CUBEBENCH_THREADS`. The full-lattice implementation it replaced
//! survives as [`crate::ecube::reference::RefRouter`], the independent
//! oracle of the contention simulation
//! (`crates/cubecomm/tests/router_equivalence.rs`).
//!
//! [`Hypercube`]: cubetopo::Hypercube

use crate::block::Block;
use crate::ecube::RouteMsg;
use crate::plan::{skeleton, BlockMeta};
use cubeaddr::NodeId;
use cubesim::SimNet;
use cubetopo::MinimalRoute;

/// Routes all messages to their destinations over `net`'s topology with
/// minimal-path store-and-forward routing, one message per directed
/// link per round (FIFO per link). Returns the blocks received per
/// node, in arrival order.
///
/// The router hardware operates independently on every link, so this is
/// an all-port operation regardless of what the node processors could
/// do; run it on a net with [`cubesim::PortMode::AllPorts`].
///
/// # Panics
/// Naming the message, if an endpoint of any message (empty ones
/// included) is not a node of the topology; and on the net's own
/// legality checks.
#[track_caller]
pub fn graph_route<T, G: MinimalRoute>(
    net: &mut SimNet<Block<T>, G>,
    msgs: Vec<RouteMsg<T>>,
) -> Vec<Vec<Block<T>>> {
    let num = net.num_nodes();
    for (i, m) in msgs.iter().enumerate() {
        assert!(
            m.src.index() < num && m.dst.index() < num,
            "block endpoints outside the {}: message {i}: {} -> {}",
            net.topology().label(),
            m.src,
            m.dst
        );
    }
    let mut result: Vec<Vec<Block<T>>> = (0..num).map(|_| Vec::new()).collect();
    // Local messages arrive immediately; the rest get ids in input order
    // and keep their data here until their last hop.
    let mut metas: Vec<BlockMeta> = Vec::new();
    let mut data: Vec<Vec<T>> = Vec::new();
    for m in msgs {
        if m.data.is_empty() {
            continue;
        }
        if m.src == m.dst {
            result[m.dst.index()].push(Block::new(m.src, m.dst, m.data));
        } else {
            metas.push(BlockMeta { src: m.src, dst: m.dst, elems: m.data.len() as u64 });
            data.push(m.data);
        }
    }
    let log = skeleton::route_hops(net.topology(), &metas, skeleton::HopOrder::Landing);
    let mut ids = log.ids.iter();
    for round in log.hops.chunk_by(|a, b| a.2 == b.2) {
        for (&(src, port, _), &id) in round.iter().zip(ids.by_ref()) {
            let b = &metas[id as usize];
            net.charge(NodeId(src), port, b.elems as usize);
            if net.topology().neighbor(src, port) == Some(b.dst.bits()) {
                let arrived = std::mem::take(&mut data[id as usize]);
                result[b.dst.index()].push(Block::new(b.src, b.dst, arrived));
            }
        }
        net.finish_round();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::{MachineParams, PortMode};
    use cubetopo::{SwappedDragonfly, Topology};

    fn dragonfly_net(k: u32, m: u32) -> SimNet<Block<u64>, SwappedDragonfly> {
        SimNet::on_topology(SwappedDragonfly::new(k, m), MachineParams::unit(PortMode::AllPorts))
    }

    #[test]
    fn dragonfly_single_message_takes_lgl_rounds() {
        let d = SwappedDragonfly::new(2, 4);
        let mut net = dragonfly_net(2, 4);
        // (g=5, r=3) -> (g=2, r=0): gateway of group 2 is router 1, so
        // local (3 -> 1), global (5 -> 2, arriving at router 2), local
        // (2 -> 0): three rounds.
        let src = NodeId(d.node_at(5, 3));
        let dst = NodeId(d.node_at(2, 0));
        let out = graph_route(&mut net, vec![RouteMsg { src, dst, data: vec![7u64, 8] }]);
        assert_eq!(out[dst.index()], vec![Block::new(src, dst, vec![7, 8])]);
        let r = net.finalize();
        assert_eq!(r.rounds, 3);
    }

    #[test]
    fn dragonfly_all_to_all_delivers() {
        let d = SwappedDragonfly::new(2, 3);
        let num = d.num_nodes();
        let msgs: Vec<RouteMsg<u64>> = (0..num as u64)
            .flat_map(|s| {
                (0..num as u64).filter(move |&t| t != s).map(move |t| RouteMsg {
                    src: NodeId(s),
                    dst: NodeId(t),
                    data: vec![s * 1000 + t],
                })
            })
            .collect();
        let mut net = dragonfly_net(2, 3);
        let out = graph_route(&mut net, msgs);
        for (t, blks) in out.iter().enumerate() {
            assert_eq!(blks.len(), num - 1, "node {t}");
            for b in blks {
                assert_eq!(b.data, vec![b.src.bits() * 1000 + t as u64]);
            }
        }
        net.finalize();
    }

    #[test]
    fn dragonfly_gateway_contention_serializes() {
        // Two messages injected at group 1's gateway (router 1 of group
        // 0 when K = 1) bound for different routers of group 1: both
        // queue on the single global link, so the second crosses a round
        // late and still needs its intra hop after arrival.
        let d = SwappedDragonfly::new(1, 3);
        let mut net = dragonfly_net(1, 3);
        let gw = NodeId(d.node_at(0, 1));
        let msgs = vec![
            RouteMsg { src: gw, dst: NodeId(d.node_at(1, 0)), data: vec![1u64] },
            RouteMsg { src: gw, dst: NodeId(d.node_at(1, 2)), data: vec![2] },
        ];
        let out = graph_route(&mut net, msgs);
        assert_eq!(out[d.node_at(1, 0) as usize].len(), 1);
        assert_eq!(out[d.node_at(1, 2) as usize].len(), 1);
        let r = net.finalize();
        // Round 1: first message crosses (arriving at router 0, its
        // destination). Round 2: second crosses. Round 3: its intra hop.
        assert_eq!(r.rounds, 3);
    }

    #[test]
    fn routes_on_a_topology_with_more_than_32_ports() {
        // D3(2, 32) has 31 local + 2 global = 33 ports a router. One
        // message per hop class: local, global (group 7's gateway to
        // group 20 is router 10, landing on router 7 / K = 3), and
        // local–global–local.
        let d = SwappedDragonfly::new(2, 32);
        assert_eq!(d.ports(), 33);
        let mut net = dragonfly_net(2, 32);
        let at = |g, r| NodeId(d.node_at(g, r));
        let pairs = [(at(5, 3), at(5, 9)), (at(7, 10), at(20, 3)), (at(40, 3), at(11, 30))];
        let msgs: Vec<RouteMsg<u64>> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| RouteMsg { src, dst, data: vec![i as u64; i + 1] })
            .collect();
        let out = graph_route(&mut net, msgs);
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            assert_eq!(out[dst.index()], vec![Block::new(src, dst, vec![i as u64; i + 1])]);
        }
        let r = net.finalize();
        assert_eq!((r.rounds, r.total_messages), (3, 1 + 1 + 3));
    }

    #[test]
    fn local_and_empty_messages_short_circuit() {
        let mut net = dragonfly_net(2, 2);
        let out = graph_route(
            &mut net,
            vec![
                RouteMsg { src: NodeId(3), dst: NodeId(3), data: vec![5u64] },
                RouteMsg { src: NodeId(0), dst: NodeId(7), data: Vec::new() },
            ],
        );
        assert_eq!(out[3].len(), 1);
        assert_eq!(out[7].len(), 0);
        assert_eq!(net.finalize().rounds, 0);
    }

    #[test]
    fn hypercube_net_runs_the_graph_router_too() {
        let mut net: SimNet<Block<u64>> = SimNet::new(3, MachineParams::unit(PortMode::AllPorts));
        let out = graph_route(
            &mut net,
            vec![RouteMsg { src: NodeId(0), dst: NodeId(0b101), data: vec![9u64] }],
        );
        assert_eq!(out[0b101].len(), 1);
        assert_eq!(net.finalize().rounds, 2);
    }

    /// Unchecked, an out-of-range destination routes forever on the
    /// cube: node 0's next port toward 8 is 3, whose lane is node 1's
    /// port 0.
    #[test]
    #[should_panic(expected = "block endpoints outside the 3-cube: message 1: 0 -> 8")]
    fn out_of_range_destination_is_refused_on_the_cube() {
        let mut net: SimNet<Block<u64>> = SimNet::new(3, MachineParams::unit(PortMode::AllPorts));
        let msgs = vec![
            RouteMsg { src: NodeId(1), dst: NodeId(2), data: vec![1u64] },
            RouteMsg { src: NodeId(0), dst: NodeId(8), data: vec![2] },
        ];
        let _ = graph_route(&mut net, msgs);
    }

    #[test]
    #[should_panic(expected = "block endpoints outside the 3-cube: message 0: 9 -> 9")]
    fn out_of_range_local_message_is_refused_on_the_cube() {
        let mut net: SimNet<Block<u64>> = SimNet::new(3, MachineParams::unit(PortMode::AllPorts));
        let _ = graph_route(
            &mut net,
            vec![RouteMsg { src: NodeId(9), dst: NodeId(9), data: vec![1u64] }],
        );
    }

    #[test]
    #[should_panic(expected = "block endpoints outside the D3(2,3): message 0: 0 -> 18")]
    fn out_of_range_destination_is_refused_on_the_dragonfly() {
        let mut net = dragonfly_net(2, 3);
        let _ = graph_route(
            &mut net,
            vec![RouteMsg { src: NodeId(0), dst: NodeId(18), data: vec![1] }],
        );
    }

    #[test]
    #[should_panic(expected = "block endpoints outside the D3(2,3): message 0: 20 -> 20")]
    fn out_of_range_local_message_is_refused_on_the_dragonfly() {
        let mut net = dragonfly_net(2, 3);
        let _ = graph_route(
            &mut net,
            vec![RouteMsg { src: NodeId(20), dst: NodeId(20), data: vec![1] }],
        );
    }
}

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
//! log. A round is one serial pass on the calling thread: every hop's
//! bare [`Block`] is sent, the round is finished, and
//! [`SimNet::drain_all_with`] hands the deliveries back in send order,
//! each retired at its destination or parked by id for its next hop. A
//! hop moves a block from the parking table to a link slot and back — no
//! buffer allocation on the path, 16 bytes of log per hop, and no limit
//! on the topology's port count. The router starts no threads and does
//! not read `CUBEBENCH_THREADS`. The full-lattice implementation it
//! replaced survives as [`crate::ecube::reference::RefRouter`], the
//! independent oracle of the contention simulation
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
pub fn graph_route<T, G: MinimalRoute>(
    net: &mut SimNet<Block<T>, G>,
    msgs: Vec<RouteMsg<T>>,
) -> Vec<Vec<Block<T>>> {
    let mut result: Vec<Vec<Block<T>>> = (0..net.num_nodes()).map(|_| Vec::new()).collect();
    // Local messages arrive immediately; the rest get ids in input order
    // and wait, parked, for their hops.
    let mut metas: Vec<BlockMeta> = Vec::new();
    let mut parked: Vec<Option<Block<T>>> = Vec::new();
    for m in msgs {
        if m.data.is_empty() {
            continue;
        }
        if m.src == m.dst {
            result[m.dst.index()].push(Block::new(m.src, m.dst, m.data));
        } else {
            metas.push(BlockMeta { src: m.src, dst: m.dst, elems: m.data.len() as u64 });
            parked.push(Some(Block::new(m.src, m.dst, m.data)));
        }
    }
    let (hops, bounds) = skeleton::route_hops(net.topology(), &metas);
    for w in bounds.windows(2) {
        let round = &hops[w[0]..w[1]];
        for &(src, port, id) in round {
            let block = parked[id as usize].take().expect("a block makes one hop per round");
            net.send(NodeId(src), port, block);
        }
        net.finish_round();
        // Deliveries come back in send order — the i-th is `round[i]` —
        // so every node sees its arrivals port-ascending, the reference
        // router's arrival order.
        let mut sent = round.iter();
        net.drain_all_with(|at, _, block| {
            let &(_, _, id) = sent.next().expect("one delivery per hop");
            if block.dst == at {
                result[at.index()].push(block);
            } else {
                parked[id as usize] = Some(block);
            }
        });
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
}

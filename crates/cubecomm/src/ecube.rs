//! Dimension-ordered (e-cube) store-and-forward routing — the "routing
//! logic" baseline used by the paper's Figures 14(b) and 16–18.
//!
//! Every message follows the dimensions of `src ⊕ dst` in ascending
//! order. Each directed link carries one message per round (the router
//! serializes contending messages), which is precisely what makes the
//! naive "just send everything to its destination" transpose slow
//! compared with the scheduled algorithms: contending messages queue.
//!
//! [`ecube_route`] is [`graph_route`] on the cube: the e-cube order is
//! [`cubetopo::Hypercube`]'s [`cubetopo::MinimalRoute`], and the round
//! loop is documented in [`crate::graph`]. The full-lattice router both
//! replaced survives as [`reference::RefRouter`], the oracle of the
//! equivalence property test
//! (`crates/cubecomm/tests/router_equivalence.rs`).

pub mod reference;

use crate::block::Block;
use crate::graph::graph_route;
use cubeaddr::NodeId;
use cubesim::SimNet;

/// A message handed to the router.
#[derive(Clone, Debug)]
pub struct RouteMsg<T> {
    /// Origin node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// The elements.
    pub data: Vec<T>,
}

/// The next dimension an e-cube message crosses from `cur` toward `dst`,
/// or `None` on arrival.
pub fn ecube_next_dim(cur: NodeId, dst: NodeId) -> Option<u32> {
    let diff = cur.bits() ^ dst.bits();
    if diff == 0 {
        None
    } else {
        Some(diff.trailing_zeros())
    }
}

/// Routes all messages to their destinations with dimension-ordered
/// store-and-forward routing, one message per directed link per round
/// (FIFO per link). Returns the blocks received per node, in arrival
/// order.
///
/// The router hardware operates independently on every link, so this is
/// an all-port operation regardless of what the node processors could do;
/// run it on a net with [`cubesim::PortMode::AllPorts`].
pub fn ecube_route<T>(net: &mut SimNet<Block<T>>, msgs: Vec<RouteMsg<T>>) -> Vec<Vec<Block<T>>> {
    graph_route(net, msgs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::{MachineParams, PortMode};

    fn net(n: u32) -> SimNet<Block<u64>> {
        SimNet::new(n, MachineParams::unit(PortMode::AllPorts))
    }

    #[test]
    fn next_dim_is_lowest_differing() {
        assert_eq!(ecube_next_dim(NodeId(0b000), NodeId(0b110)), Some(1));
        assert_eq!(ecube_next_dim(NodeId(0b010), NodeId(0b110)), Some(2));
        assert_eq!(ecube_next_dim(NodeId(0b110), NodeId(0b110)), None);
    }

    #[test]
    fn single_message_takes_distance_rounds() {
        let mut net = net(4);
        let out = ecube_route(
            &mut net,
            vec![RouteMsg { src: NodeId(0), dst: NodeId(0b1011), data: vec![1, 2] }],
        );
        assert_eq!(out[0b1011], vec![Block::new(NodeId(0), NodeId(0b1011), vec![1, 2])]);
        let r = net.finalize();
        assert_eq!(r.rounds, 3);
    }

    #[test]
    fn contention_serializes() {
        // Two messages from different sources forced through the same
        // first link (node 1 → node 0): one waits a round.
        let mut net = net(2);
        let msgs = vec![
            RouteMsg { src: NodeId(1), dst: NodeId(0), data: vec![10] },
            RouteMsg { src: NodeId(1), dst: NodeId(2), data: vec![20] },
        ];
        // Both use link (1, dim 0)? dst 0: diff = 1 → dim 0. dst 2:
        // diff = 3 → dim 0 first. Yes: both queue on (1, 0).
        let out = ecube_route(&mut net, msgs);
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[2].len(), 1);
        let r = net.finalize();
        // Second message needs round 2 for hop 1 and round 3 for hop 2.
        assert_eq!(r.rounds, 3);
    }

    #[test]
    fn all_to_all_by_router_delivers() {
        let n = 3;
        let num = cubeaddr::num_nodes(n);
        let msgs: Vec<RouteMsg<u64>> = (0..num as u64)
            .flat_map(|s| {
                (0..num as u64).filter(move |&d| d != s).map(move |d| RouteMsg {
                    src: NodeId(s),
                    dst: NodeId(d),
                    data: vec![s * 100 + d],
                })
            })
            .collect();
        let mut net = net(n);
        let out = ecube_route(&mut net, msgs);
        for (d, blks) in out.iter().enumerate() {
            assert_eq!(blks.len(), num - 1, "node {d}");
            for b in blks {
                assert_eq!(b.data, vec![b.src.bits() * 100 + d as u64]);
            }
        }
        net.finalize();
    }

    #[test]
    fn transpose_pattern_congestion_exceeds_distance() {
        // The node-permutation x → tr(x) routed by e-cube suffers link
        // contention: rounds exceed the diameter for n = 6 while the
        // scheduled SPT algorithm needs only n routing steps per packet.
        let n = 6;
        let half = n / 2;
        let msgs: Vec<RouteMsg<u64>> = (0..(1u64 << n))
            .filter_map(|x| {
                let (hi, lo) = cubeaddr::split(x, half);
                let t = cubeaddr::concat(lo, hi, half);
                (t != x).then(|| RouteMsg { src: NodeId(x), dst: NodeId(t), data: vec![x; 8] })
            })
            .collect();
        let mut net = net(n);
        let _ = ecube_route(&mut net, msgs);
        let r = net.finalize();
        assert!(r.rounds >= n as usize, "rounds {} below diameter", r.rounds);
    }

    #[test]
    fn empty_messages_dropped() {
        let mut net = net(2);
        let out = ecube_route(
            &mut net,
            vec![RouteMsg { src: NodeId(0), dst: NodeId(3), data: Vec::<u64>::new() }],
        );
        assert!(out.iter().all(|v| v.is_empty()));
        assert_eq!(net.finalize().rounds, 0);
    }

    #[test]
    fn local_message_arrives_immediately() {
        let mut net = net(2);
        let out =
            ecube_route(&mut net, vec![RouteMsg { src: NodeId(2), dst: NodeId(2), data: vec![5] }]);
        assert_eq!(out[2].len(), 1);
        assert_eq!(net.finalize().rounds, 0);
    }

    #[test]
    fn sparse_probe_on_large_cube_is_cheap_and_correct() {
        // A 2-message probe on an n=14 net routes exactly as on a small
        // one.
        let mut net = net(14);
        let far = (1u64 << 14) - 1;
        let out = ecube_route(
            &mut net,
            vec![
                RouteMsg { src: NodeId(0), dst: NodeId(far), data: vec![7, 8] },
                RouteMsg { src: NodeId(far), dst: NodeId(0), data: vec![9] },
            ],
        );
        assert_eq!(out[far as usize], vec![Block::new(NodeId(0), NodeId(far), vec![7, 8])]);
        assert_eq!(out[0], vec![Block::new(NodeId(far), NodeId(0), vec![9])]);
        let r = net.finalize();
        assert_eq!(r.rounds, 14);
        assert_eq!(r.total_messages, 28);
    }

    #[test]
    fn arrival_order_interleaves_rounds_by_dimension() {
        // Three messages with the same destination but different last
        // hops: arrivals at the destination come out round-major, then
        // dimension-ascending within a round — the reference router's
        // order.
        let mut net = net(3);
        let msgs = vec![
            // 1 hop on dim 2: arrives round 1 via dim 2.
            RouteMsg { src: NodeId(0b011), dst: NodeId(0b111), data: vec![1] },
            // 1 hop on dim 0: arrives round 1 via dim 0.
            RouteMsg { src: NodeId(0b110), dst: NodeId(0b111), data: vec![2] },
            // 2 hops (dims 0 then 1): arrives round 2.
            RouteMsg { src: NodeId(0b100), dst: NodeId(0b111), data: vec![3] },
        ];
        let out = ecube_route(&mut net, msgs);
        let got: Vec<u64> = out[0b111].iter().map(|b| b.data[0]).collect();
        assert_eq!(got, vec![2, 1, 3]);
        net.finalize();
    }
}

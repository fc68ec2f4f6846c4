//! Behaviour pins for `exchange_over_dims`, the exchange's payload front
//! door: inputs it accepts that no planner test exercises, because the
//! planner is stricter (`exchange_plan` rejects duplicate `(src, dst)`
//! pairs) and plans every block from its source, not from its holder.

use cubeaddr::NodeId;
use cubecomm::exchange::{exchange_over_dims, BufferPolicy};
use cubecomm::{Block, BlockMsg};
use cubesim::{MachineParams, PortMode, SimNet};

const POLICIES: [BufferPolicy; 3] =
    [BufferPolicy::Ideal, BufferPolicy::Unbuffered, BufferPolicy::Buffered { min_direct: 2 }];

fn one_port_net(n: u32) -> SimNet<BlockMsg<u64>> {
    SimNet::new(n, MachineParams::unit(PortMode::OnePort))
}

/// `(src tag, data)` of the blocks delivered to one node, sorted.
fn delivered(blocks: &[Block<u64>]) -> Vec<(u64, Vec<u64>)> {
    let mut got: Vec<(u64, Vec<u64>)> =
        blocks.iter().map(|b| (b.src.bits(), b.data.clone())).collect();
    got.sort();
    got
}

#[test]
fn exchange_accepts_two_blocks_with_the_same_src_dst_pair() {
    for policy in POLICIES {
        let mut held: Vec<Vec<Block<u64>>> = vec![Vec::new(); 4];
        held[1] = vec![
            Block::new(NodeId(1), NodeId(2), vec![10, 11]),
            Block::new(NodeId(1), NodeId(2), vec![20]),
            Block::new(NodeId(1), NodeId(0), vec![30]),
        ];
        let mut net = one_port_net(2);
        let result = exchange_over_dims(&mut net, held, &[1, 0], policy);
        assert_eq!(delivered(&result[2]), vec![(1, vec![10, 11]), (1, vec![20])], "{policy:?}");
        assert_eq!(delivered(&result[0]), vec![(1, vec![30])], "{policy:?}");
        assert!(result[1].is_empty() && result[3].is_empty(), "{policy:?}");
        assert_eq!(net.finalize().total_elems, 3 + 3 + 1, "{policy:?}");
    }
}

#[test]
fn exchange_routes_from_the_holder_not_from_the_src_tag() {
    // The block says it came from node 5 but sits at node 0: it is routed
    // 0 -> 3 (dims 1 and 0 only) and keeps its tag.
    for policy in POLICIES {
        let mut held: Vec<Vec<Block<u64>>> = vec![Vec::new(); 8];
        held[0] = vec![Block::new(NodeId(5), NodeId(3), vec![7, 8])];
        held[6] = vec![Block::new(NodeId(6), NodeId(6), vec![9])];
        let mut net = one_port_net(3);
        let result = exchange_over_dims(&mut net, held, &[1, 0], policy);
        assert_eq!(result[3], vec![Block::new(NodeId(5), NodeId(3), vec![7, 8])], "{policy:?}");
        assert_eq!(result[6], vec![Block::new(NodeId(6), NodeId(6), vec![9])], "{policy:?}");
        let report = net.finalize();
        assert_eq!((report.rounds, report.total_messages), (2, 2), "{policy:?}");
    }
}

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
//! The router keeps its state in the flat style of [`SimNet`]: one *lane*
//! per node that any message path touches, holding that node's outgoing
//! FIFO queues as intrusive lists threaded through a single per-lane slab
//! (inline tail cursors, a free list for retired entries — no per-queue
//! allocation), and a bitmask of the non-empty queues. Blocks travel the
//! wire as bare [`Block`] payloads, so a forwarding hop moves a block
//! from slab to commit buffer to link slot and back — no buffer
//! allocation anywhere on the path. Liveness is a single
//! undelivered-message counter plus a bitmap of lanes with queued blocks,
//! so a round costs O(messages in flight + touched nodes), never
//! O(nodes · ports); lanes are built lazily from the injected messages'
//! paths, so a 2-message probe on a 14-cube allocates a handful of
//! queues, not ~230 000.
//!
//! A round is one serial pass on the calling thread: every live lane
//! pops its queue heads into per-port commit buffers, the buffers go to
//! [`SimNet::send_batch`] port-major, and [`SimNet::drain_all_with`]
//! retires each landed block or requeues it on the port
//! [`MinimalRoute::next_port`] names. The router starts no threads and
//! does not read `CUBEBENCH_THREADS`. The full-lattice implementation it
//! replaced survives as [`crate::ecube::reference::RefRouter`], the
//! oracle of `crates/cubecomm/tests/router_equivalence.rs`.
//!
//! [`Hypercube`]: cubetopo::Hypercube

use crate::block::Block;
use crate::ecube::RouteMsg;
use cubeaddr::NodeId;
use cubesim::SimNet;
use cubetopo::MinimalRoute;

/// Sentinel for the intrusive FIFO links in a lane's slab.
const NIL: u32 = u32::MAX;

/// Most ports per node the router supports: the per-lane FIFO cursors
/// live in inline arrays of this size so building a lane allocates
/// nothing. [`SimNet`]'s dense `nodes · ports` lattice runs out of memory
/// long before this bound bites on a cube.
const MAX_LANE_PORTS: usize = 32;

/// Per-touched-node router state: the node's outgoing queues.
///
/// The queues are intrusive circular FIFOs threaded through one slab:
/// `slab[i]` holds a block and the index of its queue successor, the tail
/// entry links back to the head (so one cursor per queue finds both
/// ends), and retired entries chain from `free` for reuse. One growable
/// allocation per lane (often none for pass-through lanes) instead of a
/// `VecDeque` per port.
struct Lane<T> {
    /// The node this lane belongs to.
    node: NodeId,
    /// FIFO entries: `(block, next index)`; `next` doubles as the free
    /// list link once the block is taken.
    slab: Vec<(Option<Block<T>>, u32)>,
    /// Head of the slab free list.
    free: u32,
    /// FIFO tail per port (`NIL` when that queue is empty); the head is
    /// the tail's successor.
    tails: [u32; MAX_LANE_PORTS],
    /// Bit `p` set ⇔ queue `p` is non-empty (the active-slot list).
    qmask: u64,
}

impl<T> Lane<T> {
    fn new(node: NodeId) -> Self {
        Lane { node, slab: Vec::new(), free: NIL, tails: [NIL; MAX_LANE_PORTS], qmask: 0 }
    }

    /// Appends `block` to the port-`port` FIFO.
    fn push(&mut self, port: u32, block: Block<T>) {
        let idx = if self.free == NIL {
            self.slab.push((Some(block), NIL));
            (self.slab.len() - 1) as u32
        } else {
            let i = self.free;
            let entry = &mut self.slab[i as usize];
            self.free = entry.1;
            *entry = (Some(block), NIL);
            i
        };
        let p = port as usize;
        let tail = self.tails[p];
        if tail == NIL {
            self.slab[idx as usize].1 = idx; // 1-entry ring: head == tail
        } else {
            let head = self.slab[tail as usize].1;
            self.slab[idx as usize].1 = head;
            self.slab[tail as usize].1 = idx;
        }
        self.tails[p] = idx;
        self.qmask |= 1 << port;
    }

    /// Pops the head of the port-`port` FIFO (must be non-empty).
    fn pop(&mut self, port: u32) -> Block<T> {
        let p = port as usize;
        let tail = self.tails[p];
        let head = self.slab[tail as usize].1;
        let entry = &mut self.slab[head as usize];
        let block = entry.0.take().expect("qmask bit set on empty queue");
        let next = entry.1;
        entry.1 = self.free;
        self.free = head;
        if head == tail {
            self.tails[p] = NIL;
            self.qmask &= !(1 << port);
        } else {
            self.slab[tail as usize].1 = next;
        }
        block
    }

    /// Pops the head of every non-empty queue (one message per outgoing
    /// link per round), ports ascending, into the per-port commit
    /// buffers.
    fn stage_into(&mut self, commit: &mut [Vec<(NodeId, Block<T>)>]) {
        let mut mask = self.qmask;
        while mask != 0 {
            let p = mask.trailing_zeros();
            mask &= mask - 1;
            let block = self.pop(p);
            commit[p as usize].push((self.node, block));
        }
    }
}

/// Every node a message set's routes visit under `topo`'s routing
/// function (sources, intermediate hops and destinations), sorted
/// ascending, deduplicated. Local and empty messages touch nothing. The
/// router sizes its queue storage from this list instead of the full
/// node lattice.
fn touched_nodes<T, G: MinimalRoute>(topo: &G, msgs: &[RouteMsg<T>]) -> Vec<u64> {
    // Mark path nodes in a bitmap, then read it back in word order: the
    // result comes out sorted and deduplicated without sorting the
    // per-message path multiset. The bitmap is nodes/64 words — 2 KB on
    // a 14-cube, nothing like the queue lattice this sizing avoids.
    let mut seen = vec![0u64; topo.num_nodes().div_ceil(64)];
    for m in msgs {
        if m.data.is_empty() || m.src == m.dst {
            continue;
        }
        let dst = m.dst.bits();
        let mut cur = m.src.bits();
        while let Some(p) = topo.next_port(cur, dst) {
            seen[(cur / 64) as usize] |= 1 << (cur % 64);
            cur = topo.neighbor(cur, p).unwrap_or_else(|| {
                panic!("{}: route for {cur} -> {dst} uses unwired port {p}", topo.label())
            });
        }
        seen[(dst / 64) as usize] |= 1 << (dst % 64);
    }
    let mut touched = Vec::new();
    for (w, &word) in seen.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            touched.push((w * 64) as u64 + u64::from(bits.trailing_zeros()));
            bits &= bits - 1;
        }
    }
    touched
}

/// Routes all messages to their destinations over `net`'s topology with
/// minimal-path store-and-forward routing, one message per directed
/// link per round (FIFO per link). Returns the blocks received per
/// node, in arrival order.
///
/// The router hardware operates independently on every link, so this is
/// an all-port operation regardless of what the node processors could
/// do; run it on a net with [`cubesim::PortMode::AllPorts`].
pub fn graph_route<T: Send, G: MinimalRoute>(
    net: &mut SimNet<Block<T>, G>,
    msgs: Vec<RouteMsg<T>>,
) -> Vec<Vec<Block<T>>> {
    let topo = net.topology().clone();
    let ports = net.ports() as usize;
    assert!(
        ports <= MAX_LANE_PORTS,
        "router supports up to {MAX_LANE_PORTS} ports per node; the {} has {ports}",
        topo.label()
    );
    let num = net.num_nodes();
    let mut result: Vec<Vec<Block<T>>> = (0..num).map(|_| Vec::new()).collect();

    // Lazily sized queue storage: one lane per touched node, found by a
    // dense node → lane translation (a single flat u32 array, not a
    // queue lattice).
    let touched = touched_nodes(&topo, &msgs);
    let mut lane_of: Vec<u32> = vec![u32::MAX; num];
    for (i, &x) in touched.iter().enumerate() {
        lane_of[x as usize] = i as u32;
    }
    let mut lanes: Vec<Lane<T>> = touched.iter().map(|&x| Lane::new(NodeId(x))).collect();

    // Live-lane bitmap: bit set ⇔ that lane has a queued block. Kept in
    // lock-step with the lanes' qmasks; scanning it in word order visits
    // the live lanes sorted for free.
    let mut live = vec![0u64; lanes.len().div_ceil(64)];

    // Inject: local messages arrive immediately; the rest queue at their
    // source on their first port, in input order. `pending` counts the
    // undelivered ones: the O(1) liveness test that replaces the
    // reference router's full-lattice queue scan.
    let mut pending = 0usize;
    for m in msgs {
        if m.data.is_empty() {
            continue;
        }
        match topo.next_port(m.src.bits(), m.dst.bits()) {
            None => result[m.dst.index()].push(Block::new(m.src, m.dst, m.data)),
            Some(p) => {
                let li = lane_of[m.src.index()];
                lanes[li as usize].push(p, Block::new(m.src, m.dst, m.data));
                live[(li / 64) as usize] |= 1 << (li % 64);
                pending += 1;
            }
        }
    }

    // Per-port commit buffers, reused across rounds.
    let mut commit: Vec<Vec<(NodeId, Block<T>)>> = (0..ports).map(|_| Vec::new()).collect();

    while pending > 0 {
        // Stage: one queue head per non-empty outgoing link, grouped
        // port-major with nodes ascending within each port. A lane whose
        // queues just drained leaves the live set; it re-enters when a
        // block lands on it below.
        for (w, word) in live.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let lane = &mut lanes[w * 64 + bit as usize];
                lane.stage_into(&mut commit);
                if lane.qmask == 0 {
                    *word &= !(1 << bit);
                }
            }
        }
        // Commit: batch-send per port — all legality checks and cost
        // accounting in a fixed order.
        for (p, staged) in commit.iter_mut().enumerate() {
            net.send_batch(p as u32, staged.drain(..));
        }
        net.finish_round();
        // Drain: one pass over the inbox, in send order, so every node
        // sees its deliveries port-ascending — the reference router's
        // arrival and requeue order. Retire arrivals, requeue the rest.
        net.drain_all_with(|dst, _, b| match topo.next_port(dst.bits(), b.dst.bits()) {
            None => {
                result[dst.index()].push(b);
                pending -= 1;
            }
            Some(np) => {
                let li = lane_of[dst.index()];
                lanes[li as usize].push(np, b);
                live[(li / 64) as usize] |= 1 << (li % 64);
            }
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::{MachineParams, PortMode};
    use cubetopo::{Hypercube, SwappedDragonfly, Topology};

    fn dragonfly_net(k: u32, m: u32) -> SimNet<Block<u64>, SwappedDragonfly> {
        SimNet::on_topology(SwappedDragonfly::new(k, m), MachineParams::unit(PortMode::AllPorts))
    }

    #[test]
    fn lane_fifo_preserves_order_across_reuse() {
        let mut lane: Lane<u64> = Lane::new(NodeId(0));
        for v in 0..5u64 {
            lane.push(2, Block::new(NodeId(0), NodeId(4), vec![v]));
        }
        lane.push(0, Block::new(NodeId(0), NodeId(1), vec![9]));
        assert_eq!(lane.qmask, 0b101);
        for v in 0..5u64 {
            assert_eq!(lane.pop(2).data, vec![v]);
        }
        assert_eq!(lane.qmask, 0b001);
        // Freed slots get reused without disturbing FIFO order.
        let before = lane.slab.len();
        for v in 5..8u64 {
            lane.push(2, Block::new(NodeId(0), NodeId(4), vec![v]));
        }
        assert_eq!(lane.slab.len(), before);
        assert_eq!(lane.pop(0).data, vec![9]);
        for v in 5..8u64 {
            assert_eq!(lane.pop(2).data, vec![v]);
        }
        assert_eq!(lane.qmask, 0);
    }

    #[test]
    fn touched_nodes_covers_paths_only() {
        // Two messages on a 14-cube touch at most their two e-cube
        // paths, not the 2^14-node lattice: the lazily sized router
        // allocates queues for a handful of lanes.
        let msgs = vec![
            RouteMsg { src: NodeId(0), dst: NodeId(0b101), data: vec![1u64] },
            RouteMsg { src: NodeId(0b11_0000_0000_0000), dst: NodeId(1), data: vec![2] },
        ];
        let touched = touched_nodes(&Hypercube::new(14), &msgs);
        // Message 1: 0 → 1 → 101 touches {0, 1, 101}. Message 2 crosses
        // dims {0, 12, 13}: 4 nodes. Node 1 is shared.
        assert_eq!(touched.len(), 3 + 4 - 1);
        assert!(touched.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        for m in &msgs {
            assert!(touched.contains(&m.src.bits()));
            assert!(touched.contains(&m.dst.bits()));
        }
    }

    #[test]
    fn touched_nodes_skips_local_and_empty() {
        let msgs = vec![
            RouteMsg { src: NodeId(5), dst: NodeId(5), data: vec![1u64] },
            RouteMsg { src: NodeId(0), dst: NodeId(7), data: Vec::new() },
        ];
        assert!(touched_nodes(&Hypercube::new(3), &msgs).is_empty());
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

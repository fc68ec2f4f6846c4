//! The round-synchronous network simulator, generic over [`Topology`].

use crate::cost::{link_slots, LinkTotals, RoundCost};
use crate::params::{MachineParams, PortMode};
use crate::report::CommReport;
use cubeaddr::NodeId;
use cubetopo::{Hypercube, Topology};

/// A message payload with a size measured in *matrix elements* — the unit
/// the cost model charges for.
///
/// `Vec<T>` counts its length; composite messages (e.g. a batch of
/// source-tagged blocks in an all-to-all exchange) implement this to count
/// only their data elements, not their headers.
pub trait Payload {
    /// Number of cost-model elements carried.
    fn elems(&self) -> usize;
}

impl<T> Payload for Vec<T> {
    fn elems(&self) -> usize {
        self.len()
    }
}

macro_rules! scalar_payloads {
    ($($t:ty),*) => {$(
        impl Payload for $t {
            fn elems(&self) -> usize {
                1
            }
        }
    )*};
}

// A bare scalar is one matrix element on the wire; lets control-plane
// algorithms (token passing, reductions) run on the simulator without a
// wrapping allocation.
scalar_payloads!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// A simulated ensemble network carrying payloads of type `P` over a
/// machine graph `T` (a [`Topology`]; the Boolean `n`-cube by default,
/// built with [`SimNet::new`] — other topologies via
/// [`SimNet::on_topology`]).
///
/// Execution alternates between *send phases* and round boundaries:
///
/// ```text
/// net.send(src, dim, data);   // any number of sends, charges and local_copy calls
/// net.finish_round();         // cost accounting + delivery
/// let data = net.recv(dst, dim);  // drain everything delivered
/// net.send(...);              // next round's sends may interleave with recvs
/// net.finish_round();
/// ...
/// let report = net.finalize();
/// ```
///
/// Legality rules enforced (panicking with a diagnostic on violation,
/// since a violation is a bug in the routing algorithm under test):
///
/// * `send` targets a wired neighbor by construction (`src` + port; on
///   the cube, port ≡ dimension — the API keeps the paper's `dim` name);
/// * a directed link carries at most one message per round, whether it
///   is a payload ([`SimNet::send`]) or only a charge for one
///   ([`SimNet::charge`]);
/// * in [`PortMode::OnePort`], a node uses at most one port per round
///   (counting both its outgoing and incoming message, which may share the
///   link — a bidirectional exchange);
/// * every delivered message must be `recv`ed before the next round ends —
///   store-and-forward algorithms must explicitly pick messages up;
/// * nothing may remain in flight at [`SimNet::finalize`].
///
/// The round's communication time is `τ·(max packets over links) +
/// t_c·(max elements over links)`; for the uniform-message rounds of all
/// the paper's algorithms this equals the maximum per-link cost. Local
/// work charged with [`SimNet::local_copy`] adds
/// `t_copy·(max per-node copied elements)`.
///
/// ```
/// use cubesim::{MachineParams, PortMode, SimNet};
/// use cubeaddr::NodeId;
///
/// let mut net: SimNet<Vec<u32>> = SimNet::new(2, MachineParams::unit(PortMode::OnePort));
/// net.send(NodeId(0), 1, vec![7, 8, 9]);
/// net.finish_round();
/// assert_eq!(net.recv(NodeId(2), 1), vec![7, 8, 9]);
/// let report = net.finalize();
/// assert_eq!(report.time, 4.0); // 1 start-up + 3 elements, unit costs
/// ```
///
/// # Performance
///
/// A message claims its link by *sender channel* (`src · ports + port`;
/// `src · n + dim` on the cube), the same for a payload and a charge.
/// Two things are dense over the channels, both allocated zeroed at
/// construction so an idle channel costs no resident page: a one-bit
/// "claimed this round" bitmap (128 KiB on the paper's 65 536-node
/// 16-cube), cleared at the boundary from the round's claims, and the
/// channel's cumulative element total in a [`LinkTotals`] (`u32`, so
/// 4 MiB at n = 16, widened to `u64` on the first overflow). `send` and
/// `charge` fold each updated total into `max_link_elems`: totals only
/// grow, so the running maximum is what a final scan would find.
///
/// Only payloads need a receiver-side index, for [`SimNet::recv`]: an
/// 8-byte pair of *stamps* per link slot (`dst · ports + rp`), allocated
/// zeroed on the first payload `send` — 8 MiB at n = 16, never on a net
/// that only charges. Every payload is stamped with its 1-based sequence
/// number, and the net keeps the payload counts before this round and
/// before the last one. A stamp between the two is a payload delivered
/// at the last boundary, and its distance from the second is its place
/// in the inbox; anything older is stale and means nothing. Keeping two
/// stamps lets a link carry its next round's payload before its
/// delivered one is received.
///
/// Everything else is per round and compact: the claims (channel,
/// elements), the payloads and their receiver slots sit in send order in
/// vectors that grow to the busiest round's message count and are
/// recycled. `send`, `charge`, `recv` and `has_message` are O(1);
/// nothing is written to the dense side on receipt, so drains walk only
/// the compact inbox, and the unconsumed checks are a counter of
/// delivered-but-unreceived payloads (the inbox is scanned only to name
/// an offender). Stamps are `u32`: when a boundary leaves fewer than one
/// per link below `u32::MAX`, every link is rebased once, O(links) — on
/// the 16-cube once per ≈ 2^32 payloads, and never within a round.
/// Construction is O(N·ports) in the machine size and refuses a graph of
/// more than 2^31 − 1 directed links, so two rounds of stamps always fit
/// (the 26-cube is the largest cube). On [`Hypercube`] every topology
/// query monomorphizes to bit arithmetic, so the generic layer costs
/// nothing.
pub struct SimNet<P, T: Topology = Hypercube> {
    topo: T,
    /// Cached `topo.ports()` — the stride of every flat slab.
    ports: u32,
    /// Cached `topo.num_nodes()`.
    num: usize,
    params: MachineParams,
    /// Number of directed-link slots (`num × ports`).
    links: usize,
    /// This round's claims, payload sends and charges alike, in claim
    /// order: each one's sender channel and element count — the round's
    /// cost, its link events and the bits to clear in `claimed`.
    claims: Vec<(u32, u32)>,
    /// One bit per sender channel, set while the channel is claimed
    /// this round.
    claimed: Vec<u64>,
    /// Per sender channel, the cumulative element count.
    totals: LinkTotals,
    /// This round's payloads, in send order; delivered at the boundary.
    out_msgs: Vec<Option<P>>,
    /// Parallel to `out_msgs`: each payload's link slot `dst * ports +
    /// rp`, where `rp` is the *receiver's* port for the link (on the
    /// cube, the shared dimension).
    out_slots: Vec<u32>,
    /// Payloads delivered at the last round boundary, in the order they
    /// were sent; `None` once received.
    in_msgs: Vec<Option<P>>,
    /// Parallel to `in_msgs` (consumed payloads stay listed until the
    /// next boundary).
    in_slots: Vec<u32>,
    /// Delivered payloads not yet received or drained.
    pending: usize,
    /// Per link slot, `(last, prev)`: the stamps of the last two
    /// payloads sent on the link (0: none). Empty until the first
    /// payload is sent; a tuple, not a struct, so the zeroed vector comes
    /// from the allocator's zeroed pages instead of a fill.
    stamps: Vec<(u32, u32)>,
    /// Payloads sent before this round (stamps above it are this
    /// round's; this round's `i`-th payload is stamped `round_start + i +
    /// 1`).
    round_start: u32,
    /// Payloads sent before the last round: the inbox holds the stamps
    /// `prev_start + 1 ..= round_start`, in order.
    prev_start: u32,
    /// Ports used per node this round (bit mask), for port checks.
    dims_used: Vec<u64>,
    /// Nodes with a non-zero `dims_used` mask this round.
    dims_touched: Vec<usize>,
    /// Elements locally copied per node this round.
    copies: Vec<usize>,
    /// Nodes with a non-zero copy charge this round.
    copies_touched: Vec<usize>,
    /// When set, every finish_round appends a RoundDetail.
    record_history: bool,
    /// When set, every finish_round appends the round's link events.
    record_links: bool,
    report: CommReport,
}

impl<P: Payload> SimNet<P> {
    /// Creates an idle `n`-cube network under the given cost model.
    pub fn new(n: u32, params: MachineParams) -> Self {
        Self::on_topology(Hypercube::new(n), params)
    }

    /// Cube dimension.
    pub fn n(&self) -> u32 {
        self.topo.n()
    }
}

impl<P: Payload, T: Topology> SimNet<P, T> {
    /// Creates an idle network over an arbitrary machine graph.
    pub fn on_topology(topo: T, params: MachineParams) -> Self {
        let nodes = topo.num_nodes();
        let ports = topo.ports();
        // The two rounds in play stamp at most one message per link each,
        // and their stamps must fit u32 together.
        let links = link_slots(&topo);
        SimNet {
            ports,
            num: nodes,
            topo,
            params,
            links,
            claims: Vec::new(),
            claimed: vec![0; links.div_ceil(64)],
            totals: LinkTotals::new(links),
            out_msgs: Vec::new(),
            out_slots: Vec::new(),
            in_msgs: Vec::new(),
            in_slots: Vec::new(),
            pending: 0,
            stamps: Vec::new(),
            round_start: 0,
            prev_start: 0,
            dims_used: vec![0; nodes],
            dims_touched: Vec::new(),
            copies: vec![0; nodes],
            copies_touched: Vec::new(),
            record_history: false,
            record_links: false,
            report: CommReport::default(),
        }
    }

    /// Dense index of the directed-link slot `(node, port)`.
    #[inline]
    fn slot(&self, node: NodeId, port: u32) -> usize {
        node.index() * self.ports as usize + port as usize
    }

    /// Enables per-round history recording (see
    /// [`CommReport::history`]); costs a small allocation per round.
    pub fn record_history(&mut self) {
        self.record_history = true;
    }

    /// Enables per-round link-event recording (see
    /// [`CommReport::link_history`]) — the space-time diagram of the
    /// run. Costs an allocation per message; keep off for large sweeps.
    pub fn record_links(&mut self) {
        self.record_links = true;
    }

    /// The machine graph being simulated.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Uniform per-node port count (`n` on the cube).
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num
    }

    /// The cost model in force.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    #[track_caller]
    fn check_node(&self, x: NodeId) {
        assert!(x.index() < self.num, "node {x} outside the {}", self.topo.label());
    }

    /// Sends `data` from `src` across port `dim` (on the cube, dimension
    /// `dim`: to `src.neighbor(dim)`), to be delivered at the next round
    /// boundary. The receiver picks it up with
    /// [`SimNet::recv`]`(dst, rp)` where `rp` is the far end's port for
    /// the link (`dim` itself on the cube).
    ///
    /// # Panics
    /// On empty payloads, out-of-range nodes, out-of-range or unwired
    /// ports, or when the directed link was already used this round.
    #[track_caller]
    pub fn send(&mut self, src: NodeId, dim: u32, data: P) {
        let (dst, rp) = self.claim(src, dim, data.elems());
        if self.stamps.is_empty() {
            self.stamps = vec![(0, 0); self.links];
        }
        let slot = self.slot(dst, rp);
        self.out_msgs.push(Some(data));
        self.out_slots.push(slot as u32);
        // At most one payload per link per round, and `finish_round`
        // keeps `round_start` a link count below u32::MAX, so the stamp
        // fits.
        let (last, _) = self.stamps[slot];
        self.stamps[slot] = (self.round_start + self.out_msgs.len() as u32, last);
    }

    /// Charges a message of `elems` elements from `src` across port
    /// `dim` without carrying a payload: it is checked, costed and
    /// recorded exactly as [`SimNet::send`] of such a message would be,
    /// and never delivered. For executors that move their data
    /// themselves along routes fixed in advance.
    ///
    /// # Panics
    /// As [`SimNet::send`], with its messages.
    #[track_caller]
    pub fn charge(&mut self, src: NodeId, dim: u32, elems: usize) {
        self.claim(src, dim, elems);
    }

    /// What every message, payload or charge, does to its link: the
    /// checks (node and port in range, wired, non-empty, at most
    /// `u32::MAX` elements, the directed link free this round), the
    /// claim, the link total and the one-port marks. Returns the
    /// receiver and its port.
    #[track_caller]
    #[inline]
    fn claim(&mut self, src: NodeId, dim: u32, elems: usize) -> (NodeId, u32) {
        self.check_node(src);
        assert!(dim < self.ports, "dimension {dim} outside the {}", self.topo.label());
        assert!(elems > 0, "empty message from {src} on dim {dim}; skip empty sends");
        let dst = NodeId(self.topo.neighbor(src.index() as u64, dim).unwrap_or_else(|| {
            panic!("send from {src} on unwired port {dim} of the {}", self.topo.label())
        }));
        let rp = self.topo.reverse_port(src.index() as u64, dim).unwrap();
        let channel = self.slot(src, dim);
        let (word, bit) = (channel / 64, 1u64 << (channel % 64));
        assert!(
            self.claimed[word] & bit == 0,
            "link contention: directed link {src}--dim {dim}--> {dst} used twice in round {}",
            self.report.rounds
        );
        let elems32 = u32::try_from(elems).unwrap_or_else(|_| {
            panic!("message from {src} on dim {dim} carries {elems} elements, over the u32 limit")
        });
        self.claimed[word] |= bit;
        self.claims.push((channel as u32, elems32));
        let total = self.totals.add(channel, elems32);
        // Totals only grow, so the running maximum is the final one.
        self.report.max_link_elems = self.report.max_link_elems.max(total);
        // Port-usage masks only feed the one-port legality check; under
        // all-port rules skip the bookkeeping (two random-access writes
        // per message on the hottest path).
        if self.params.ports == PortMode::OnePort {
            self.mark_dim(src.index(), dim);
            self.mark_dim(dst.index(), rp);
        }
        (dst, rp)
    }

    /// Records `node` using port `dim` this round (for port-legality
    /// checks).
    #[inline]
    fn mark_dim(&mut self, node: usize, dim: u32) {
        if self.dims_used[node] == 0 {
            self.dims_touched.push(node);
        }
        self.dims_used[node] |= 1 << dim;
    }

    /// Hands every message delivered at the last round boundary and not
    /// yet received to `consume` as `(destination, dimension, payload)`,
    /// **in send order** (the order the previous round's `send` calls
    /// were made). A consumer that sends in a fixed order gets its
    /// deliveries back in that same fixed order, and one that scatters
    /// them into its own per-node storage needs no buffer in between.
    pub fn drain_all_with(&mut self, mut consume: impl FnMut(NodeId, u32, P)) {
        let n = self.ports as usize;
        for (msg, &slot) in self.in_msgs.iter_mut().zip(&self.in_slots) {
            if let Some(data) = msg.take() {
                let slot = slot as usize;
                self.pending -= 1;
                consume(NodeId((slot / n) as u64), (slot % n) as u32, data);
            }
        }
    }

    /// Where in the inbox the message delivered on `(dst, dim)` at the
    /// last boundary sits, if one was (received or not): whichever of the
    /// link's two stamps falls in `prev_start + 1 ..= round_start`.
    #[inline]
    fn inbox_pos(&self, dst: NodeId, dim: u32) -> Option<usize> {
        if dst.index() >= self.num || dim >= self.ports {
            return None;
        }
        // No stamps: the net never carried a payload.
        let &(last, prev) = self.stamps.get(self.slot(dst, dim))?;
        // Wrapping: a stamp at or below `prev_start` lands far above the
        // inbox length, like one above `round_start`.
        [last, prev]
            .into_iter()
            .map(|stamp| stamp.wrapping_sub(self.prev_start).wrapping_sub(1) as usize)
            .find(|&pos| pos < self.in_msgs.len())
    }

    /// Receives the message delivered to `dst` on its port `dim` at the
    /// last round boundary (on the cube, the message sent across
    /// dimension `dim` by the neighbor).
    ///
    /// # Panics
    /// If no such message is pending.
    #[track_caller]
    pub fn recv(&mut self, dst: NodeId, dim: u32) -> P {
        self.check_node(dst);
        let msg = self.inbox_pos(dst, dim).and_then(|pos| self.in_msgs[pos].take());
        if msg.is_some() {
            self.pending -= 1;
        }
        msg.unwrap_or_else(|| {
            panic!(
                "recv at {dst} on dim {dim}: no message delivered (round {})",
                self.report.rounds
            )
        })
    }

    /// True when a message is pending for `dst` on `dim`.
    pub fn has_message(&self, dst: NodeId, dim: u32) -> bool {
        self.inbox_pos(dst, dim).is_some_and(|pos| self.in_msgs[pos].is_some())
    }

    /// Charges `elems` elements of local copy/rearrangement work to `node`
    /// in the current round.
    #[track_caller]
    pub fn local_copy(&mut self, node: NodeId, elems: usize) {
        self.check_node(node);
        let x = node.index();
        if elems > 0 && self.copies[x] == 0 {
            self.copies_touched.push(x);
        }
        self.copies[x] += elems;
    }

    /// Closes the current round: verifies port legality, charges the cost
    /// model, and delivers this round's messages.
    ///
    /// # Panics
    /// If a one-port node used several dimensions, or if messages
    /// delivered at the previous boundary were never received.
    #[track_caller]
    pub fn finish_round(&mut self) {
        if self.pending != 0 {
            if let Some(i) = self.in_msgs.iter().position(Option::is_some) {
                let slot = self.in_slots[i] as usize;
                let (dst, dim) = (slot / self.ports as usize, slot % self.ports as usize);
                panic!(
                    "unconsumed message at node {dst} on dim {dim} when round {} ended",
                    self.report.rounds
                );
            }
        }
        if self.params.ports == PortMode::OnePort {
            for &node in &self.dims_touched {
                let mask = self.dims_used[node];
                assert!(
                    mask.count_ones() <= 1,
                    "one-port violation: node {node} used dims {mask:#b} in round {}",
                    self.report.rounds
                );
            }
        }
        let mut cost = RoundCost::default();
        for &(channel, elems) in &self.claims {
            cost.send(&self.params, elems as usize);
            // Every bit set in the word is one of this round's claims.
            self.claimed[channel as usize / 64] = 0;
        }
        for &x in &self.copies_touched {
            cost.copy(self.copies[x]);
        }
        cost.close(&self.params, &mut self.report, self.record_history);
        if self.record_links {
            // A channel names the sender and its port (dim, on the
            // cube), so channel order is `(src, dim)` order.
            let n = self.ports;
            let mut events: Vec<crate::report::LinkEvent> = self
                .claims
                .iter()
                .map(|&(channel, elems)| crate::report::LinkEvent {
                    src: u64::from(channel / n),
                    dim: channel % n,
                    elems,
                })
                .collect();
            events.sort_unstable_by_key(|e| (e.src, e.dim));
            self.report.link_history.push(events);
        }
        self.claims.clear();

        // Deliver: this round's payloads become the inbox, and their
        // stamps the delivered window. The old inbox was all received
        // (verified above); its stamps go stale by moving the window, not
        // by a sweep. No per-round allocation.
        std::mem::swap(&mut self.in_msgs, &mut self.out_msgs);
        std::mem::swap(&mut self.in_slots, &mut self.out_slots);
        self.out_msgs.clear();
        self.out_slots.clear();
        self.pending = self.in_msgs.len();
        self.prev_start = self.round_start;
        self.round_start += self.in_msgs.len() as u32;
        if self.round_start > u32::MAX - self.links as u32 {
            self.rebase_stamps();
        }
        for &x in &self.dims_touched {
            self.dims_used[x] = 0;
        }
        self.dims_touched.clear();
        for &x in &self.copies_touched {
            self.copies[x] = 0;
        }
        self.copies_touched.clear();
    }

    /// Renumbers every stamp down by `prev_start`, so the window starts
    /// at 0 again: a stamp at or below it (stale) becomes 0. With at most
    /// `links ≤ u32::MAX / 2` messages in the window, `round_start` then
    /// sits a full round of stamps below `u32::MAX`. O(links).
    fn rebase_stamps(&mut self) {
        let base = self.prev_start;
        for (last, prev) in &mut self.stamps {
            *last = last.saturating_sub(base);
            *prev = prev.saturating_sub(base);
        }
        self.prev_start = 0;
        self.round_start -= base;
    }

    /// Test hook: a fresh net whose stamps start at `stamp`, so a short
    /// schedule crosses the rebase point.
    #[cfg(test)]
    fn start_stamps_at(&mut self, stamp: u32) {
        assert!(self.round_start == 0 && stamp <= u32::MAX - self.links as u32);
        self.prev_start = stamp;
        self.round_start = stamp;
    }

    /// Ends the simulation and returns the accumulated report.
    ///
    /// # Panics
    /// If any message is still in flight or undelivered.
    #[track_caller]
    pub fn finalize(self) -> CommReport {
        assert!(
            self.claims.is_empty(),
            "{} messages sent but the round never finished",
            self.claims.len()
        );
        let pending = self.pending;
        assert!(pending == 0, "{pending} delivered messages never received");
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_net(n: u32, ports: PortMode) -> SimNet<Vec<u64>> {
        SimNet::new(n, MachineParams::unit(ports))
    }

    #[test]
    fn single_exchange_costs_one_startup_plus_elems() {
        let mut net = unit_net(3, PortMode::OnePort);
        net.send(NodeId(0), 0, vec![1, 2, 3]);
        net.send(NodeId(1), 0, vec![4, 5, 6]);
        net.finish_round();
        assert_eq!(net.recv(NodeId(1), 0), vec![1, 2, 3]);
        assert_eq!(net.recv(NodeId(0), 0), vec![4, 5, 6]);
        let r = net.finalize();
        assert_eq!(r.rounds, 1);
        // Unit model: 1 start-up + 3 elements on the critical link.
        assert_eq!(r.time, 4.0);
        assert_eq!(r.total_elems, 6);
        assert_eq!(r.max_link_elems, 3);
    }

    #[test]
    fn rounds_accumulate() {
        let mut net = unit_net(2, PortMode::OnePort);
        for round in 0..3 {
            net.send(NodeId(0), round % 2, vec![7]);
            net.finish_round();
            let got = net.recv(NodeId(0).neighbor(round % 2), round % 2);
            assert_eq!(got, vec![7]);
        }
        let r = net.finalize();
        assert_eq!(r.rounds, 3);
        assert_eq!(r.time, 6.0);
        assert_eq!(r.critical_startups, 3);
    }

    #[test]
    #[should_panic(expected = "link contention")]
    fn duplicate_link_use_panics() {
        let mut net = unit_net(2, PortMode::AllPorts);
        net.send(NodeId(0), 0, vec![1]);
        net.send(NodeId(0), 0, vec![2]);
    }

    #[test]
    #[should_panic(expected = "one-port violation")]
    fn one_port_violation_panics() {
        let mut net = unit_net(3, PortMode::OnePort);
        net.send(NodeId(0), 0, vec![1]);
        net.send(NodeId(0), 1, vec![2]);
        net.finish_round();
    }

    #[test]
    fn all_ports_allows_concurrent_dims() {
        let mut net = unit_net(3, PortMode::AllPorts);
        net.send(NodeId(0), 0, vec![1]);
        net.send(NodeId(0), 1, vec![2, 3]);
        net.send(NodeId(0), 2, vec![4]);
        net.finish_round();
        for d in 0..3 {
            let _ = net.recv(NodeId(0).neighbor(d), d);
        }
        let r = net.finalize();
        assert_eq!(r.rounds, 1);
        // Critical link carries 2 elements: 1·τ + 2·t_c = 3 in unit model.
        assert_eq!(r.time, 3.0);
    }

    #[test]
    #[should_panic(expected = "unconsumed message")]
    fn unconsumed_message_detected() {
        let mut net = unit_net(2, PortMode::OnePort);
        net.send(NodeId(0), 0, vec![1]);
        net.finish_round();
        net.finish_round(); // message to node 1 never received
    }

    #[test]
    #[should_panic(expected = "never received")]
    fn finalize_rejects_pending() {
        let mut net = unit_net(2, PortMode::OnePort);
        net.send(NodeId(0), 0, vec![1]);
        net.finish_round();
        let _ = net.finalize();
    }

    #[test]
    #[should_panic(expected = "no message delivered")]
    fn recv_without_message_panics() {
        let mut net = unit_net(2, PortMode::OnePort);
        let _ = net.recv(NodeId(0), 1);
    }

    #[test]
    #[should_panic(expected = "empty message")]
    fn empty_send_rejected() {
        let mut net = unit_net(2, PortMode::OnePort);
        net.send(NodeId(0), 0, Vec::new());
    }

    #[test]
    fn copy_cost_added() {
        let mut net: SimNet<Vec<u64>> =
            SimNet::new(2, MachineParams::unit(PortMode::OnePort).with_t_copy(2.0));
        net.local_copy(NodeId(0), 5);
        net.local_copy(NodeId(1), 3);
        net.finish_round();
        let r = net.finalize();
        // Round cost = max copy (5 elements) × 2.0.
        assert_eq!(r.time, 10.0);
        assert_eq!(r.copy_time, 10.0);
        assert_eq!(r.max_node_copy_elems, 5);
    }

    #[test]
    fn packetization_charges_multiple_startups() {
        let mut net: SimNet<Vec<u64>> =
            SimNet::new(1, MachineParams::unit(PortMode::OnePort).with_max_packet(4));
        net.send(NodeId(0), 0, (0..10).collect());
        net.finish_round();
        let _ = net.recv(NodeId(1), 0);
        let r = net.finalize();
        // 10 elements in packets of 4 → 3 start-ups + 10 transfer units.
        assert_eq!(r.critical_startups, 3);
        assert_eq!(r.time, 13.0);
    }

    #[test]
    fn pipelined_counts_one_startup() {
        let mut params = MachineParams::unit(PortMode::AllPorts).with_max_packet(4);
        params.pipelined = true;
        let mut net: SimNet<Vec<u64>> = SimNet::new(1, params);
        net.send(NodeId(0), 0, (0..10).collect());
        net.finish_round();
        let _ = net.recv(NodeId(1), 0);
        let r = net.finalize();
        assert_eq!(r.critical_startups, 1);
    }

    #[test]
    fn store_and_forward_two_hops() {
        // 0 → 1 (dim 0) then 1 → 3 (dim 1): payload arrives intact.
        let mut net = unit_net(2, PortMode::OnePort);
        net.send(NodeId(0), 0, vec![42, 43]);
        net.finish_round();
        let got = net.recv(NodeId(1), 0);
        net.send(NodeId(1), 1, got);
        net.finish_round();
        assert_eq!(net.recv(NodeId(3), 1), vec![42, 43]);
        let r = net.finalize();
        assert_eq!(r.rounds, 2);
        assert_eq!(r.time, 6.0);
    }

    #[test]
    fn history_records_rounds() {
        let mut net = unit_net(2, PortMode::OnePort);
        net.record_history();
        net.send(NodeId(0), 0, vec![1, 2]);
        net.finish_round();
        let _ = net.recv(NodeId(1), 0);
        net.send(NodeId(1), 1, vec![3]);
        net.finish_round();
        let _ = net.recv(NodeId(3), 1);
        let r = net.finalize();
        assert_eq!(r.history.len(), 2);
        assert_eq!(r.history[0].total_elems, 2);
        assert_eq!(r.history[0].messages, 1);
        assert_eq!(r.history[1].max_elems, 1);
        assert_eq!(r.history.iter().map(|h| h.time).sum::<f64>(), r.time);
    }

    #[test]
    fn link_events_recorded_sorted() {
        let mut net = unit_net(2, PortMode::AllPorts);
        net.record_links();
        net.send(NodeId(2), 0, vec![7]);
        net.send(NodeId(0), 1, vec![8, 9]);
        net.finish_round();
        let _ = net.recv(NodeId(3), 0);
        let _ = net.recv(NodeId(2), 1);
        let r = net.finalize();
        assert_eq!(r.link_history.len(), 1);
        let round = &r.link_history[0];
        assert_eq!(round.len(), 2);
        assert_eq!((round[0].src, round[0].dim, round[0].elems), (0, 1, 2));
        assert_eq!((round[1].src, round[1].dim, round[1].elems), (2, 0, 1));
    }

    #[test]
    fn drain_all_with_returns_send_order() {
        let mut net = unit_net(2, PortMode::AllPorts);
        // Deliberately interleave dims and nodes; the drain must echo
        // this exact send order back.
        net.send(NodeId(3), 1, vec![1]);
        net.send(NodeId(0), 0, vec![2]);
        net.send(NodeId(2), 1, vec![3]);
        net.finish_round();
        let mut got = Vec::new();
        net.drain_all_with(|dst, dim, data| got.push((dst, dim, data)));
        assert_eq!(
            got,
            vec![(NodeId(1), 1, vec![1]), (NodeId(1), 0, vec![2]), (NodeId(0), 1, vec![3]),]
        );
        let _ = net.finalize();
    }

    #[test]
    fn drain_all_with_skips_already_received() {
        let mut net = unit_net(2, PortMode::AllPorts);
        net.send(NodeId(0), 0, vec![1]);
        net.send(NodeId(0), 1, vec![2]);
        net.finish_round();
        assert_eq!(net.recv(NodeId(1), 0), vec![1]);
        let mut got = Vec::new();
        net.drain_all_with(|dst, dim, data| got.push((dst, dim, data)));
        assert_eq!(got, vec![(NodeId(2), 1, vec![2])]);
        // An empty inbox drains to nothing.
        net.finish_round();
        net.drain_all_with(|_, _, _| panic!("nothing was sent"));
        let _ = net.finalize();
    }

    #[test]
    fn idle_round_costs_nothing() {
        let mut net = unit_net(2, PortMode::OnePort);
        net.finish_round();
        let r = net.finalize();
        assert_eq!(r.rounds, 1);
        assert_eq!(r.time, 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn out_of_range_node_rejected() {
        let mut net = unit_net(2, PortMode::OnePort);
        net.send(NodeId(7), 0, vec![1]);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn out_of_range_dim_rejected() {
        let mut net = unit_net(2, PortMode::OnePort);
        net.send(NodeId(0), 5, vec![1]);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "message from 1 on dim 0 carries 4294967296 elements")]
    fn element_count_beyond_u32_rejected() {
        struct Huge;
        impl Payload for Huge {
            fn elems(&self) -> usize {
                1 << 32
            }
        }
        let mut net: SimNet<Huge> = SimNet::new(1, MachineParams::unit(PortMode::OnePort));
        net.send(NodeId(1), 0, Huge);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "28-cube: 268435456 nodes x 28 ports exceed the 32-bit link index")]
    fn link_count_beyond_u32_rejected() {
        // Refused before anything is allocated.
        let _ = unit_net(28, PortMode::AllPorts);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "27-cube: 134217728 nodes x 27 ports exceed the 32-bit link index")]
    fn two_rounds_of_stamps_must_fit_u32() {
        // 27 · 2^27 links fit u32 once, but not the two rounds in play.
        let _ = unit_net(27, PortMode::AllPorts);
    }

    /// Random legal all-port schedules on the 3-cube, started a few
    /// rounds below the stamp rebase at every phase: each round's sends
    /// are made before the last round's deliveries are received, so links
    /// hold a delivered and a fresh stamp when the rebase renumbers them.
    /// Reports and payloads must equal the reference net's.
    #[test]
    fn stamp_rebase_is_invisible() {
        use crate::reference::ReferenceNet;
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (n, links) = (3u32, 24u32);
        let rounds: Vec<Vec<(NodeId, u32, Vec<u64>)>> = (0..30)
            .map(|r| {
                let mut sends = Vec::new();
                for x in 0..8 {
                    for d in 0..n {
                        // Every fifth round idle, the rest about half full.
                        if r % 5 != 4 && next() % 2 == 0 {
                            sends.push((NodeId(x), d, vec![next() % 100; 1 + (x as usize & 1)]));
                        }
                    }
                }
                sends
            })
            .collect();
        macro_rules! drive {
            ($net:expr) => {{
                let mut net = $net;
                net.record_history();
                net.record_links();
                let mut got = Vec::new();
                let mut delivered: Vec<(NodeId, u32)> = Vec::new();
                for round in &rounds {
                    for (src, dim, data) in round {
                        net.send(*src, *dim, data.clone());
                    }
                    for &(dst, dim) in &delivered {
                        assert!(net.has_message(dst, dim));
                        got.push(net.recv(dst, dim));
                        assert!(!net.has_message(dst, dim));
                    }
                    net.finish_round();
                    delivered = round.iter().map(|(s, d, _)| (s.neighbor(*d), *d)).collect();
                }
                for &(dst, dim) in &delivered {
                    got.push(net.recv(dst, dim));
                }
                (net, got)
            }};
        }
        let (reference, want) =
            drive!(ReferenceNet::new(n, MachineParams::unit(PortMode::AllPorts)));
        let want = (reference.finalize(), want);
        for phase in 0..40 {
            let start = u32::MAX - links - phase;
            let mut net = unit_net(n, PortMode::AllPorts);
            net.start_stamps_at(start);
            let (net, got) = drive!(net);
            assert!(net.round_start < start, "phase {phase}: no rebase");
            assert_eq!((net.finalize(), got), want, "phase {phase}");
        }
    }

    #[test]
    fn payload_and_charge_on_one_link_share_its_total() {
        let mut net = unit_net(2, PortMode::AllPorts);
        net.record_history();
        net.record_links();
        net.send(NodeId(0), 1, vec![1, 2]);
        net.finish_round();
        assert_eq!(net.recv(NodeId(2), 1), vec![1, 2]);
        net.charge(NodeId(0), 1, 3);
        net.finish_round();
        // A charge is never delivered.
        assert!(!net.has_message(NodeId(2), 1));
        let r = net.finalize();
        assert_eq!(r.max_link_elems, 5);
        assert_eq!((r.rounds, r.total_messages, r.total_elems), (2, 2, 5));
        assert_eq!(r.time, 3.0 + 4.0);
        assert_eq!(r.history[1].messages, 1);
        let e = &r.link_history[1][0];
        assert_eq!((e.src, e.dim, e.elems), (0, 1, 3));
    }

    #[test]
    fn payload_and_charge_contend_for_one_link_in_either_order() {
        for charge_first in [false, true] {
            let outcome = std::panic::catch_unwind(|| {
                let mut net = unit_net(2, PortMode::AllPorts);
                if charge_first {
                    net.charge(NodeId(1), 0, 1);
                    net.send(NodeId(1), 0, vec![7]);
                } else {
                    net.send(NodeId(1), 0, vec![7]);
                    net.charge(NodeId(1), 0, 1);
                }
            });
            let text = *outcome.unwrap_err().downcast::<String>().unwrap();
            assert_eq!(text, "link contention: directed link 1--dim 0--> 0 used twice in round 0");
        }
    }

    #[test]
    #[should_panic(expected = "recv at 1 on dim 0: no message delivered (round 1)")]
    fn recv_on_a_net_that_only_charged_panics() {
        let mut net = unit_net(2, PortMode::OnePort);
        net.charge(NodeId(0), 0, 4);
        net.finish_round();
        assert!(!net.has_message(NodeId(1), 0));
        let _ = net.recv(NodeId(1), 0);
    }

    #[test]
    fn charges_keep_the_one_port_rule() {
        let outcome = std::panic::catch_unwind(|| {
            let mut net = unit_net(3, PortMode::OnePort);
            net.charge(NodeId(0), 0, 1);
            net.send(NodeId(2), 1, vec![2]);
            net.finish_round();
        });
        let text = *outcome.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(text, "one-port violation: node 0 used dims 0b11 in round 0");
    }

    #[test]
    #[should_panic(expected = "1 messages sent but the round never finished")]
    fn finalize_rejects_an_unfinished_charge() {
        let mut net = unit_net(2, PortMode::OnePort);
        net.charge(NodeId(0), 0, 1);
        let _ = net.finalize();
    }

    #[test]
    #[should_panic(expected = "empty message from 0 on dim 1; skip empty sends")]
    fn empty_charge_rejected() {
        unit_net(2, PortMode::OnePort).charge(NodeId(0), 1, 0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn link_totals_past_u32_are_exact() {
        let mut net = unit_net(1, PortMode::OnePort);
        let max = u32::MAX as usize;
        for _ in 0..2 {
            net.charge(NodeId(1), 0, max);
            net.finish_round();
        }
        let r = net.finalize();
        assert_eq!(r.max_link_elems, 2 * u64::from(u32::MAX));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "message from 1 on dim 0 carries 4294967296 elements")]
    fn charge_beyond_u32_rejected() {
        unit_net(1, PortMode::OnePort).charge(NodeId(1), 0, 1 << 32);
    }

    #[test]
    fn dragonfly_global_link_round_trip() {
        use cubetopo::SwappedDragonfly;
        let d = SwappedDragonfly::new(2, 2);
        let mut net: SimNet<Vec<u64>, _> =
            SimNet::on_topology(d, MachineParams::unit(PortMode::OnePort));
        net.record_links();
        // Global port 1 (j=0) of (g=3, r=1): target group 1·2+0 = 2,
        // router 3/2 = 1 → node 5. Return port j' = 3 mod 2 = 1 → port 2.
        let src = NodeId(d.node_at(3, 1));
        assert_eq!(d.neighbor(src.0, 1), Some(d.node_at(2, 1)));
        net.send(src, 1, vec![7, 8]);
        net.finish_round();
        let dst = NodeId(d.node_at(2, 1));
        let rp = d.reverse_port(src.0, 1).unwrap();
        assert_eq!(rp, 2);
        assert!(net.has_message(dst, rp));
        assert_eq!(net.recv(dst, rp), vec![7, 8]);
        let r = net.finalize();
        assert_eq!(r.rounds, 1);
        assert_eq!(r.time, 3.0); // 1 start-up + 2 elements
                                 // The link event names the sender's port.
        assert_eq!(r.link_history[0].len(), 1);
        let e = &r.link_history[0][0];
        assert_eq!((e.src, e.dim, e.elems), (src.0, 1, 2));
    }

    #[test]
    #[should_panic(expected = "unwired port")]
    fn dragonfly_unwired_swap_port_rejected() {
        use cubetopo::SwappedDragonfly;
        let d = SwappedDragonfly::new(2, 2);
        let mut net: SimNet<Vec<u64>, _> =
            SimNet::on_topology(d, MachineParams::unit(PortMode::AllPorts));
        // Group 0's swap fixed point sits on router 0, global port j=0.
        net.send(NodeId(d.node_at(0, 0)), 1, vec![1]);
    }

    #[test]
    fn dragonfly_intra_exchange_is_one_port_legal() {
        use cubetopo::SwappedDragonfly;
        let d = SwappedDragonfly::new(1, 3);
        let mut net: SimNet<Vec<u64>, _> =
            SimNet::on_topology(d, MachineParams::unit(PortMode::OnePort));
        // Bidirectional exchange between routers 0 and 1 of group 2 uses
        // one port on each end — legal under one-port rules.
        let (a, b) = (NodeId(d.node_at(2, 0)), NodeId(d.node_at(2, 1)));
        net.send(a, d.intra_port(0, 1), vec![1]);
        net.send(b, d.intra_port(1, 0), vec![2]);
        net.finish_round();
        assert_eq!(net.recv(b, d.intra_port(1, 0)), vec![1]);
        assert_eq!(net.recv(a, d.intra_port(0, 1)), vec![2]);
        let _ = net.finalize();
    }
}

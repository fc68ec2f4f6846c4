//! The paper's §2 round cost, computed in one place.
//!
//! A round costs `τ · (max packets over links) + t_c · (max elements over
//! links) + t_copy · (max elements copied by one node)`, and a run costs
//! the sum over its rounds. Every executor that produces a
//! [`CommReport`] — [`SimNet::finish_round`](crate::SimNet::finish_round)
//! and `cubecheck`'s fold over a schedule — feeds a [`RoundCost`] and
//! [`RoundCost::close`]s it, so their floating-point sums are the same
//! additions in the same order and agree bit for bit.

use crate::params::MachineParams;
use crate::report::{CommReport, RoundDetail};
use cubetopo::Topology;

/// One round's cost inputs, accumulated message by message: its totals
/// and its maxima over links and nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundCost {
    /// Messages sent.
    messages: u64,
    /// Packets over all messages.
    packets: u64,
    /// Elements over all messages.
    elems: u64,
    /// Largest per-link packet count.
    max_packets: usize,
    /// Largest per-link element count.
    max_elems: usize,
    /// Largest per-node local-copy charge.
    max_copy: usize,
}

impl RoundCost {
    /// Charges one message of `elems` elements (on a link of its own:
    /// a link carries at most one message per round).
    #[inline]
    pub fn send(&mut self, params: &MachineParams, elems: usize) {
        let packets = params.packets(elems);
        self.messages += 1;
        self.packets += packets as u64;
        self.elems += elems as u64;
        self.max_packets = self.max_packets.max(packets);
        self.max_elems = self.max_elems.max(elems);
    }

    /// Charges one node's total local-copy work for the round.
    #[inline]
    pub fn copy(&mut self, node_elems: usize) {
        self.max_copy = self.max_copy.max(node_elems);
    }

    /// Adds the round to `report`: one more round, its time split into
    /// start-up, transfer and copy, its critical-path maxima and its
    /// totals, plus a [`RoundDetail`] when `history` is set. Link
    /// totals and link events are the executor's to add.
    pub fn close(self, params: &MachineParams, report: &mut CommReport, history: bool) {
        let startup = self.max_packets as f64 * params.tau;
        let transfer = self.max_elems as f64 * params.t_c;
        let copy = self.max_copy as f64 * params.t_copy;
        report.rounds += 1;
        report.time += startup + transfer + copy;
        report.startup_time += startup;
        report.transfer_time += transfer;
        report.copy_time += copy;
        report.critical_startups += self.max_packets as u64;
        report.critical_elems += self.max_elems as u64;
        report.total_messages += self.messages;
        report.total_elems += self.elems;
        report.total_packets += self.packets;
        report.max_node_copy_elems = report.max_node_copy_elems.max(self.max_copy as u64);
        if history {
            report.history.push(RoundDetail {
                time: startup + transfer + copy,
                messages: self.messages as u32,
                max_elems: self.max_elems as u32,
                total_elems: self.elems,
            });
        }
    }
}

/// Per-directed-link element totals over a run, indexed by sender
/// channel (`src · ports + port`): `u32` until a total first overflows
/// it, `u64` from then on. (A dense `u64` array would double the
/// footprint of every run for a case no figure reaches.) [`SimNet`]
/// and `cubecheck`'s fold keep theirs in one of these, so both find the
/// same `max_link_elems`.
///
/// [`SimNet`]: crate::SimNet
#[derive(Clone, Debug)]
pub struct LinkTotals(Totals);

#[derive(Clone, Debug)]
enum Totals {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl LinkTotals {
    /// All-zero totals for `links` channels (zeroed pages: an idle
    /// channel costs no resident memory).
    pub fn new(links: usize) -> Self {
        LinkTotals(Totals::Narrow(vec![0; links]))
    }

    /// Adds `elems` to `channel`'s total; returns the new total.
    #[inline]
    pub fn add(&mut self, channel: usize, elems: u32) -> u64 {
        match &mut self.0 {
            Totals::Narrow(totals) => match totals[channel].checked_add(elems) {
                Some(total) => {
                    totals[channel] = total;
                    u64::from(total)
                }
                None => self.add_wide(channel, elems),
            },
            Totals::Wide(totals) => {
                totals[channel] += u64::from(elems);
                totals[channel]
            }
        }
    }

    /// [`LinkTotals::add`] past the `u32` range: widens every total to
    /// `u64` first.
    #[cold]
    #[inline(never)]
    fn add_wide(&mut self, channel: usize, elems: u32) -> u64 {
        if let Totals::Narrow(totals) = &self.0 {
            self.0 = Totals::Wide(totals.iter().map(|&t| u64::from(t)).collect());
        }
        self.add(channel, elems)
    }
}

/// The number of directed-link slots of `topo` (`nodes × ports`), which
/// every executor indexes with `u32`s.
///
/// # Panics
/// If a node has more than 64 ports (port sets are 64-bit masks), or if
/// there are more than `2^31 − 1` directed links (so a link index fits
/// either 32-bit integer type; the 26-cube is the largest cube) — before
/// anything is allocated.
#[track_caller]
pub fn link_slots<T: Topology>(topo: &T) -> usize {
    let nodes = topo.num_nodes();
    let ports = topo.ports();
    assert!(ports <= 64, "{}: {ports} ports exceed the 64-bit port masks", topo.label());
    nodes
        .checked_mul(ports as usize)
        .filter(|&links| links <= u32::MAX as usize / 2)
        .unwrap_or_else(|| {
            panic!("{}: {nodes} nodes x {ports} ports exceed the 32-bit link index", topo.label())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortMode;

    #[test]
    fn link_totals_widen_on_the_first_u32_overflow() {
        let mut totals = LinkTotals::new(3);
        assert_eq!(totals.add(1, u32::MAX), u64::from(u32::MAX));
        assert_eq!(totals.add(2, 5), 5);
        // Channel 1 overflows u32: every total carries over into u64.
        assert_eq!(totals.add(1, 2), u64::from(u32::MAX) + 2);
        assert_eq!(totals.add(2, 1), 6);
        assert_eq!(totals.add(0, u32::MAX), u64::from(u32::MAX));
        assert_eq!(totals.add(1, u32::MAX), 2 * u64::from(u32::MAX) + 2);
    }

    #[test]
    fn close_charges_the_maxima() {
        let params = MachineParams::unit(PortMode::AllPorts).with_max_packet(4).with_t_copy(0.5);
        let mut cost = RoundCost::default();
        cost.send(&params, 10);
        cost.send(&params, 3);
        cost.copy(6);
        cost.copy(2);
        let mut report = CommReport::default();
        cost.close(&params, &mut report, true);
        // 3 packets + 10 elements on the critical link, 6 copied × 0.5.
        assert_eq!((report.startup_time, report.transfer_time, report.copy_time), (3.0, 10.0, 3.0));
        assert_eq!(report.time, 16.0);
        assert_eq!((report.critical_startups, report.critical_elems), (3, 10));
        assert_eq!((report.total_messages, report.total_packets, report.total_elems), (2, 4, 13));
        assert_eq!(report.max_node_copy_elems, 6);
        assert_eq!(
            report.history,
            vec![RoundDetail { time: 16.0, messages: 2, max_elems: 10, total_elems: 13 }]
        );
    }
}

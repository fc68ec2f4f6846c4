//! Property test: the flat-indexed [`SimNet`] is observationally
//! equivalent to the HashMap-based [`ReferenceNet`] it replaced.
//!
//! Both nets are driven through identical randomly generated schedules
//! (legal and deliberately illegal ones) and must produce identical
//! [`CommReport`]s, identical received payloads, and identical panic
//! messages at the same points. One property receives part of each
//! round's deliveries early and the rest in send order on both nets; one
//! sends a random half of the messages as payload-free
//! [`SimNet::charge`]s on the flat net only: the reports must still be
//! equal.
//! The `u32` stamp rebase is crossed by a unit test in `net.rs`, the
//! only place that reaches the crate-private hook starting the stamps
//! near `u32::MAX`.

use cubeaddr::NodeId;
use cubesim::reference::ReferenceNet;
use cubesim::{CommReport, MachineParams, PortMode, SimNet};
use cubetest::{catch, Rng};
use proptest::prelude::*;

/// One round of a generated schedule: `(src, dim, payload)` sends plus
/// `(node, elems)` local-copy charges.
struct Round {
    sends: Vec<(NodeId, u32, Vec<u64>)>,
    copies: Vec<(NodeId, usize)>,
}

/// Generates `rounds` legal rounds for an `n`-cube under `ports`.
///
/// One-port rounds pick a single dimension for the whole round (every
/// node then uses at most that one link); all-port rounds sample any
/// duplicate-free set of directed links.
fn legal_schedule(rng: &mut Rng, n: u32, rounds: usize, ports: PortMode) -> Vec<Round> {
    let num = 1u64 << n;
    (0..rounds)
        .map(|_| {
            let mut sends = Vec::new();
            let round_dim = rng.below(n as u64) as u32;
            for x in 0..num {
                for d in 0..n {
                    if ports == PortMode::OnePort && d != round_dim {
                        continue;
                    }
                    if rng.below(3) == 0 {
                        let len = 1 + rng.below(4) as usize;
                        let payload: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
                        sends.push((NodeId(x), d, payload));
                    }
                }
            }
            let copies = (0..rng.below(3))
                .map(|_| (NodeId(rng.below(num)), 1 + rng.below(8) as usize))
                .collect();
            Round { sends, copies }
        })
        .collect()
}

/// The common surface of the two simulators, so one driver can run both.
trait Net {
    fn send(&mut self, src: NodeId, dim: u32, data: Vec<u64>);
    fn recv(&mut self, dst: NodeId, dim: u32) -> Vec<u64>;
    fn has_message(&self, dst: NodeId, dim: u32) -> bool;
    fn local_copy(&mut self, node: NodeId, elems: usize);
    fn finish_round(&mut self);
    fn finalize_report(self) -> CommReport;
    fn record_all(&mut self);
    fn n(&self) -> u32;

    /// Everything delivered, received slot by slot, sorted by
    /// `(destination, dim)`.
    fn drain_all_sorted(&mut self) -> Vec<Delivery> {
        let mut got = Vec::new();
        for x in (0..1u64 << self.n()).map(NodeId) {
            for d in 0..self.n() {
                if self.has_message(x, d) {
                    got.push((x, d, self.recv(x, d)));
                }
            }
        }
        got
    }
}

macro_rules! impl_net {
    ($ty:ident) => {
        impl Net for $ty<Vec<u64>> {
            fn send(&mut self, src: NodeId, dim: u32, data: Vec<u64>) {
                $ty::send(self, src, dim, data)
            }
            fn recv(&mut self, dst: NodeId, dim: u32) -> Vec<u64> {
                $ty::recv(self, dst, dim)
            }
            fn has_message(&self, dst: NodeId, dim: u32) -> bool {
                $ty::has_message(self, dst, dim)
            }
            fn local_copy(&mut self, node: NodeId, elems: usize) {
                $ty::local_copy(self, node, elems)
            }
            fn finish_round(&mut self) {
                $ty::finish_round(self)
            }
            fn finalize_report(self) -> CommReport {
                $ty::finalize(self)
            }
            fn record_all(&mut self) {
                $ty::record_history(self);
                $ty::record_links(self);
            }
            fn n(&self) -> u32 {
                $ty::n(self)
            }
        }
    };
}

impl_net!(SimNet);
impl_net!(ReferenceNet);

/// Runs the schedule to completion: each round sends, closes the round,
/// and receives every delivered message (probed via `has_message` in
/// deterministic node/dim order). Returns the report plus every payload
/// received, in receive order.
fn drive<N: Net>(
    mut net: N,
    n: u32,
    schedule: &[Round],
    record: bool,
) -> (CommReport, Vec<Vec<u64>>) {
    if record {
        net.record_all();
    }
    let num = 1u64 << n;
    let mut received = Vec::new();
    for round in schedule {
        for (src, dim, payload) in &round.sends {
            net.send(*src, *dim, payload.clone());
        }
        for (node, elems) in &round.copies {
            net.local_copy(*node, *elems);
        }
        net.finish_round();
        for x in 0..num {
            for d in 0..n {
                if net.has_message(NodeId(x), d) {
                    received.push(net.recv(NodeId(x), d));
                }
            }
        }
    }
    (net.finalize_report(), received)
}

type Delivery = (NodeId, u32, Vec<u64>);

/// Runs the schedule, receiving each round's deliveries in two passes:
/// first the sends marked in `early`, then the rest, each pass in send
/// order.
fn drive_in_send_order<N: Net>(
    mut net: N,
    schedule: &[Round],
    early: &[Vec<bool>],
) -> (CommReport, Vec<Delivery>) {
    let mut got = Vec::new();
    for (round, early) in schedule.iter().zip(early) {
        for (src, dim, payload) in &round.sends {
            net.send(*src, *dim, payload.clone());
        }
        for (node, elems) in &round.copies {
            net.local_copy(*node, *elems);
        }
        net.finish_round();
        for pass in [true, false] {
            for ((src, dim, _), _) in round.sends.iter().zip(early).filter(|(_, &e)| e == pass) {
                let dst = src.neighbor(*dim);
                assert!(net.has_message(dst, *dim));
                got.push((dst, *dim, net.recv(dst, *dim)));
                assert!(!net.has_message(dst, *dim), "has_message still true after recv");
            }
        }
    }
    (net.finalize_report(), got)
}

/// One step of a directed case.
enum Op {
    Send(u64, u32, Vec<u64>),
    Recv(u64, u32),
    Has(u64, u32),
    DrainAll,
    Finish,
}

/// What a directed case observed before it ended.
#[derive(Debug, PartialEq)]
enum Seen {
    Payload(Vec<u64>),
    Pending(bool),
    Drained(Vec<Delivery>),
}

/// Runs `ops` then `finalize`; returns everything observed on the way
/// and either the report or the text of the panic that stopped the run.
fn run_script<N: Net>(mut net: N, ops: &[Op]) -> (Vec<Seen>, Result<CommReport, String>) {
    let mut seen = Vec::new();
    let log = &mut seen;
    let outcome = catch(move || {
        for op in ops {
            match op {
                Op::Send(src, dim, data) => net.send(NodeId(*src), *dim, data.clone()),
                Op::Recv(dst, dim) => log.push(Seen::Payload(net.recv(NodeId(*dst), *dim))),
                Op::Has(dst, dim) => log.push(Seen::Pending(net.has_message(NodeId(*dst), *dim))),
                Op::DrainAll => log.push(Seen::Drained(net.drain_all_sorted())),
                Op::Finish => net.finish_round(),
            }
        }
        net.finalize_report()
    });
    (seen, outcome)
}

/// Runs a directed case on both nets (all-port 2-cube) and returns the
/// flat net's observations once they are known to equal the reference's.
fn both(ops: &[Op]) -> (Vec<Seen>, Result<CommReport, String>) {
    let flat = run_script(SimNet::<Vec<u64>>::new(2, params(PortMode::AllPorts)), ops);
    let reference = run_script(ReferenceNet::<Vec<u64>>::new(2, params(PortMode::AllPorts)), ops);
    assert_eq!(flat, reference, "flat net diverges from the reference");
    flat
}

fn params(ports: PortMode) -> MachineParams {
    MachineParams::intel_ipsc().with_ports(ports)
}

/// The same directed link used in consecutive rounds: the second send
/// is made while the first delivery still sits unreceived in the inbox.
#[test]
fn link_reused_while_earlier_delivery_pending() {
    let (seen, outcome) = both(&[
        Op::Send(0, 0, vec![1]),
        Op::Finish,
        Op::Send(0, 0, vec![2, 3]),
        Op::Has(1, 0),
        Op::Recv(1, 0),
        Op::Has(1, 0),
        Op::Finish,
        Op::Has(1, 0),
        Op::Recv(1, 0),
    ]);
    assert_eq!(
        seen,
        vec![
            Seen::Pending(true),
            Seen::Payload(vec![1]),
            Seen::Pending(false),
            Seen::Pending(true),
            Seen::Payload(vec![2, 3]),
        ]
    );
    let report = outcome.expect("legal schedule");
    assert_eq!((report.rounds, report.total_messages, report.max_link_elems), (2, 2, 3));
}

#[test]
fn second_recv_on_one_slot_finds_nothing() {
    let (seen, outcome) = both(&[
        Op::Send(2, 1, vec![9]),
        Op::Send(1, 0, vec![8]),
        Op::Finish,
        Op::Recv(0, 1),
        Op::Recv(0, 1),
    ]);
    assert_eq!(seen, vec![Seen::Payload(vec![9])]);
    assert_eq!(outcome.unwrap_err(), "recv at 0 on dim 1: no message delivered (round 1)");
}

#[test]
fn has_message_false_after_recv_and_after_next_boundary() {
    let (seen, outcome) = both(&[
        Op::Send(3, 0, vec![4]),
        Op::Has(2, 0),
        Op::Finish,
        Op::Has(2, 0),
        Op::Recv(2, 0),
        Op::Has(2, 0),
        Op::Finish,
        Op::Has(2, 0),
        Op::Send(3, 0, vec![5]),
        Op::Finish,
        Op::Has(2, 0),
        Op::Recv(2, 0),
    ]);
    assert_eq!(
        seen,
        vec![
            Seen::Pending(false),
            Seen::Pending(true),
            Seen::Payload(vec![4]),
            Seen::Pending(false),
            Seen::Pending(false),
            Seen::Pending(true),
            Seen::Payload(vec![5]),
        ]
    );
    assert_eq!(outcome.expect("legal schedule").rounds, 3);
}

/// Contention is judged against this round's sends only: the link's
/// previous-round message was delivered and received, and one send on
/// it is legal again — the second is not.
#[test]
fn contention_on_link_whose_previous_message_was_received() {
    let (seen, outcome) = both(&[
        Op::Send(0, 1, vec![1]),
        Op::Finish,
        Op::Recv(2, 1),
        Op::Send(0, 1, vec![2]),
        Op::Send(0, 1, vec![3]),
    ]);
    assert_eq!(seen, vec![Seen::Payload(vec![1])]);
    assert_eq!(
        outcome.unwrap_err(),
        "link contention: directed link 0--dim 1--> 2 used twice in round 1"
    );
}

#[test]
fn finalize_with_one_of_many_deliveries_pending() {
    let mut ops: Vec<Op> =
        (0..4).flat_map(|x| (0..2).map(move |d| Op::Send(x, d, vec![x]))).collect();
    ops.push(Op::Finish);
    // Receive all eight but the one node 3 got from node 1.
    for x in 0..4u64 {
        for d in 0..2 {
            if (x, d) != (3, 1) {
                ops.push(Op::Recv(x, d));
            }
        }
    }
    let (seen, outcome) = both(&ops);
    assert_eq!(seen.len(), 7);
    assert_eq!(outcome.unwrap_err(), "1 delivered messages never received");
}

/// A send left in an unfinished round, and a delivery left unconsumed at
/// the next boundary with other traffic around it.
#[test]
fn unfinished_round_and_unconsumed_delivery_rejected() {
    let (_, outcome) =
        both(&[Op::Send(0, 0, vec![1]), Op::Finish, Op::Recv(1, 0), Op::Send(1, 1, vec![2])]);
    assert_eq!(outcome.unwrap_err(), "1 messages sent but the round never finished");
    let (_, outcome) = both(&[
        Op::Send(0, 0, vec![1]),
        Op::Send(3, 1, vec![2]),
        Op::Finish,
        Op::Recv(1, 0),
        Op::Send(0, 0, vec![3]),
        Op::Finish,
    ]);
    assert_eq!(outcome.unwrap_err(), "unconsumed message at node 1 on dim 1 when round 1 ended");
}

/// A link's round-(r+1) send made before its round-r delivery is
/// received: the delivery is found through the older of the link's two
/// stamps, and a link whose only stamp is this round's has nothing.
#[test]
fn send_before_receive_finds_the_delivery_behind_the_new_stamp() {
    let (seen, outcome) = both(&[
        Op::Send(0, 0, vec![1]),
        Op::Send(2, 1, vec![7]),
        Op::Finish,
        Op::Send(1, 1, vec![5]),
        Op::Has(3, 1),
        Op::Send(0, 0, vec![2]),
        Op::Has(1, 0),
        Op::Recv(1, 0),
        Op::Has(1, 0),
        Op::Recv(0, 1),
        Op::Finish,
        Op::Has(1, 0),
        Op::Recv(1, 0),
        Op::Has(3, 1),
        Op::Recv(3, 1),
        Op::Has(1, 0),
    ]);
    assert_eq!(
        seen,
        vec![
            Seen::Pending(false),
            Seen::Pending(true),
            Seen::Payload(vec![1]),
            Seen::Pending(false),
            Seen::Payload(vec![7]),
            Seen::Pending(true),
            Seen::Payload(vec![2]),
            Seen::Pending(true),
            Seen::Payload(vec![5]),
            Seen::Pending(false),
        ]
    );
    let report = outcome.expect("legal schedule");
    assert_eq!((report.rounds, report.total_messages, report.max_link_elems), (2, 4, 2));
}

/// A link used in rounds r and r+2 and idle in between, once with other
/// traffic in round r+1 and once with round r+1 wholly idle: its stale
/// stamp is neither contention nor a delivery.
#[test]
fn stale_stamp_is_neither_contention_nor_delivery() {
    let (seen, outcome) = both(&[
        Op::Send(0, 0, vec![1]),
        Op::Finish,
        Op::Recv(1, 0),
        Op::Send(2, 0, vec![3]),
        Op::Finish,
        Op::Recv(3, 0),
        Op::Has(1, 0),
        Op::Send(0, 0, vec![2]),
        Op::Has(1, 0),
        Op::Finish,
        Op::Recv(1, 0),
        Op::Finish,
        Op::Has(1, 0),
        Op::Send(0, 0, vec![4]),
        Op::Finish,
        Op::Has(1, 0),
        Op::Recv(1, 0),
        Op::Finish,
        Op::Recv(1, 0),
    ]);
    assert_eq!(
        seen,
        vec![
            Seen::Payload(vec![1]),
            Seen::Payload(vec![3]),
            Seen::Pending(false),
            Seen::Pending(false),
            Seen::Payload(vec![2]),
            Seen::Pending(false),
            Seen::Pending(true),
            Seen::Payload(vec![4]),
        ]
    );
    assert_eq!(outcome.unwrap_err(), "recv at 1 on dim 0: no message delivered (round 6)");
}

/// Receiving every delivery leaves nothing behind the stamps: a `recv`
/// on an emptied slot must still find nothing, and a slot received
/// before is left out of the sweep.
#[test]
fn recv_after_a_drain_emptied_the_slot() {
    let sends = || [Op::Send(0, 0, vec![1]), Op::Send(1, 1, vec![2]), Op::Send(2, 0, vec![3])];
    let mut ops: Vec<Op> = sends().into_iter().collect();
    ops.extend([Op::Finish, Op::Recv(3, 1), Op::DrainAll, Op::Has(1, 0), Op::Recv(1, 0)]);
    let (seen, outcome) = both(&ops);
    assert_eq!(
        seen,
        vec![
            Seen::Payload(vec![2]),
            Seen::Drained(vec![(NodeId(1), 0, vec![1]), (NodeId(3), 0, vec![3])]),
            Seen::Pending(false),
        ]
    );
    assert_eq!(outcome.unwrap_err(), "recv at 1 on dim 0: no message delivered (round 1)");

    let mut ops: Vec<Op> = sends().into_iter().collect();
    ops.extend([Op::Finish, Op::DrainAll, Op::Has(3, 1), Op::Finish, Op::Recv(3, 1)]);
    let (seen, outcome) = both(&ops);
    assert_eq!(
        seen,
        vec![
            Seen::Drained(vec![
                (NodeId(1), 0, vec![1]),
                (NodeId(3), 0, vec![3]),
                (NodeId(3), 1, vec![2]),
            ]),
            Seen::Pending(false),
        ]
    );
    assert_eq!(outcome.unwrap_err(), "recv at 3 on dim 1: no message delivered (round 2)");
}

/// Several deliveries left at a boundary: the flat net names the first
/// left in send order (not the lowest slot). The reference keeps its
/// inbox in a hash map and names any one of them.
#[test]
fn unconsumed_check_names_the_first_left_in_send_order() {
    let ops = [
        Op::Send(3, 1, vec![1]),
        Op::Send(2, 0, vec![2]),
        Op::Send(0, 0, vec![3]),
        Op::Finish,
        Op::Recv(1, 1),
        Op::Finish,
    ];
    let left = ["node 3 on dim 0", "node 1 on dim 0"];
    let text = |at: &str| format!("unconsumed message at {at} when round 1 ended");
    let (seen, outcome) = run_script(SimNet::<Vec<u64>>::new(2, params(PortMode::AllPorts)), &ops);
    assert_eq!(seen, vec![Seen::Payload(vec![1])]);
    assert_eq!(outcome.unwrap_err(), text(left[0]));
    let (ref_seen, ref_outcome) =
        run_script(ReferenceNet::<Vec<u64>>::new(2, params(PortMode::AllPorts)), &ops);
    assert_eq!(ref_seen, seen);
    let ref_err = ref_outcome.unwrap_err();
    assert!(left.iter().any(|at| ref_err == text(at)), "reference: {ref_err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Legal schedules: identical reports (costs, histories, link loads)
    /// and identical payload delivery from both implementations.
    #[test]
    fn flat_matches_reference_on_legal_schedules(
        seed in 0u64..u64::MAX,
        n in 1u32..=4,
        rounds in 1usize..=5,
        one_port in prop::bool::ANY,
        record in prop::bool::ANY,
    ) {
        let ports = if one_port { PortMode::OnePort } else { PortMode::AllPorts };
        let schedule = legal_schedule(&mut Rng::new(seed), n, rounds, ports);
        let flat = drive(SimNet::<Vec<u64>>::new(n, params(ports)), n, &schedule, record);
        let reference =
            drive(ReferenceNet::<Vec<u64>>::new(n, params(ports)), n, &schedule, record);
        prop_assert_eq!(&flat.0, &reference.0, "reports diverge (seed {seed} n {n})");
        prop_assert_eq!(&flat.1, &reference.1, "payloads diverge (seed {seed} n {n})");
    }

    /// Legal schedules received in send order after a random part of
    /// each round was received early: same report and same deliveries
    /// from both implementations.
    #[test]
    fn late_recvs_in_send_order_match_reference(
        seed in 0u64..u64::MAX,
        n in 1u32..=4,
        rounds in 1usize..=5,
        one_port in prop::bool::ANY,
    ) {
        let ports = if one_port { PortMode::OnePort } else { PortMode::AllPorts };
        let mut rng = Rng::new(seed);
        let schedule = legal_schedule(&mut rng, n, rounds, ports);
        let early: Vec<Vec<bool>> = schedule
            .iter()
            .map(|round| round.sends.iter().map(|_| rng.below(4) == 0).collect())
            .collect();
        let flat = drive_in_send_order(SimNet::<Vec<u64>>::new(n, params(ports)), &schedule, &early);
        let reference = drive_in_send_order(
            ReferenceNet::<Vec<u64>>::new(n, params(ports)),
            &schedule,
            &early,
        );
        prop_assert_eq!(&flat.0, &reference.0, "reports diverge (seed {seed} n {n})");
        prop_assert_eq!(&flat.1, &reference.1, "deliveries diverge (seed {seed} n {n})");
    }

    /// Legal schedules in which randomly chosen messages go as payload-
    /// free charges on the flat net and as ordinary sends on the
    /// reference: the same report, and the same payloads for the
    /// messages that carried one (a charge is never delivered).
    #[test]
    fn charges_match_reference_sends(
        seed in 0u64..u64::MAX,
        n in 1u32..=4,
        rounds in 1usize..=5,
        one_port in prop::bool::ANY,
        record in prop::bool::ANY,
    ) {
        let ports = if one_port { PortMode::OnePort } else { PortMode::AllPorts };
        let mut rng = Rng::new(seed);
        let schedule = legal_schedule(&mut rng, n, rounds, ports);
        let charged: Vec<Vec<bool>> = schedule
            .iter()
            .map(|round| round.sends.iter().map(|_| rng.below(2) == 0).collect())
            .collect();
        let mut flat = SimNet::<Vec<u64>>::new(n, params(ports));
        let mut reference = ReferenceNet::<Vec<u64>>::new(n, params(ports));
        if record {
            Net::record_all(&mut flat);
            Net::record_all(&mut reference);
        }
        let (mut flat_got, mut reference_got) = (Vec::new(), Vec::new());
        for (round, charged) in schedule.iter().zip(&charged) {
            for ((src, dim, payload), &charge) in round.sends.iter().zip(charged) {
                if charge {
                    flat.charge(*src, *dim, payload.len());
                } else {
                    flat.send(*src, *dim, payload.clone());
                }
                reference.send(*src, *dim, payload.clone());
            }
            for (node, elems) in &round.copies {
                flat.local_copy(*node, *elems);
                reference.local_copy(*node, *elems);
            }
            flat.finish_round();
            reference.finish_round();
            for ((src, dim, _), &charge) in round.sends.iter().zip(charged) {
                let dst = src.neighbor(*dim);
                prop_assert_eq!(flat.has_message(dst, *dim), !charge);
                let payload = reference.recv(dst, *dim);
                if !charge {
                    flat_got.push(flat.recv(dst, *dim));
                    reference_got.push(payload);
                }
            }
        }
        prop_assert_eq!(flat.finalize(), reference.finalize(), "reports diverge (seed {})", seed);
        prop_assert_eq!(flat_got, reference_got, "payloads diverge (seed {})", seed);
    }

    /// Illegal schedules: both implementations must reject the same
    /// violation with the same panic message.
    #[test]
    fn flat_panics_match_reference(
        seed in 0u64..u64::MAX,
        n in 1u32..=4,
        fault in 0u32..4,
    ) {
        // One-port only for the one-port violation; the others need the
        // freedom of all-port schedules.
        let ports = if fault == 1 { PortMode::OnePort } else { PortMode::AllPorts };

        // A clean random prefix round, then exactly one violation.
        let prefix = legal_schedule(&mut Rng::new(seed), n, 1, ports);
        let run = |mut net: Box<dyn Net>| {
            for round in &prefix {
                for (src, dim, payload) in &round.sends {
                    net.send(*src, *dim, payload.clone());
                }
                net.finish_round();
                for x in 0..1u64 << n {
                    for d in 0..n {
                        if net.has_message(NodeId(x), d) {
                            net.recv(NodeId(x), d);
                        }
                    }
                }
            }
            match fault {
                0 => {
                    // Duplicate directed link in one round.
                    net.send(NodeId(0), 0, vec![1]);
                    net.send(NodeId(0), 0, vec![2]);
                }
                1 => {
                    // One-port violation: node 0 uses dims 0 and 1 (via a
                    // receive-side conflict when n == 1 is impossible, so
                    // force n >= 2 by folding dim into range).
                    if n == 1 {
                        // Can't violate one-port on a 1-cube with distinct
                        // dims; use the duplicate-link fault instead.
                        net.send(NodeId(0), 0, vec![1]);
                        net.send(NodeId(0), 0, vec![2]);
                    } else {
                        net.send(NodeId(0), 0, vec![1]);
                        net.send(NodeId(0), 1, vec![2]);
                        net.finish_round();
                    }
                }
                2 => {
                    // Deliver a message and never receive it.
                    net.send(NodeId(0), 0, vec![1]);
                    net.finish_round();
                    net.finish_round();
                }
                _ => {
                    // Receive where nothing was delivered.
                    net.recv(NodeId(0), 0);
                }
            }
        };

        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let flat = catch(|| run(Box::new(SimNet::<Vec<u64>>::new(n, params(ports))))).err();
        let reference =
            catch(|| run(Box::new(ReferenceNet::<Vec<u64>>::new(n, params(ports))))).err();
        std::panic::set_hook(prev);

        prop_assert!(flat.is_some(), "flat net accepted illegal schedule (fault {fault})");
        prop_assert_eq!(&flat, &reference, "panic messages diverge (seed {seed} fault {fault})");
    }
}

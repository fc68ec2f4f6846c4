//! Failure paths of the round door: a malformed round program must end
//! in a diagnostic naming round / node / dim — or in the stall report
//! naming worker and round — never in a hang and never in silently
//! wrong data. Every run sits under a stall timeout, so a regression
//! that turns one of these into a wait fails fast (and, where the
//! diagnostic must not need the stall clock, visibly).

use cuberun::{
    run_rounds, run_rounds_on, with_stall_timeout, with_workers, NodeId, Outbox, RoundInbox,
    RoundProgram,
};
use cubetopo::TopoSpec;
use std::time::{Duration, Instant};

/// A stateless `u64` round program from two closures.
struct Steps<S, R> {
    rounds: u32,
    send: S,
    recv: R,
}

impl<S, R> RoundProgram<u64> for Steps<S, R>
where
    S: Fn(u32, NodeId, &mut Outbox<'_, u64>) + Sync,
    R: Fn(u32, NodeId, &mut RoundInbox<'_, u64>) + Sync,
{
    type State = ();
    type Out = ();
    fn rounds(&self) -> u32 {
        self.rounds
    }
    fn init(&self, _id: NodeId) {}
    fn send(&self, round: u32, id: NodeId, (): &mut (), out: &mut Outbox<'_, u64>) {
        (self.send)(round, id, out);
    }
    fn recv(&self, round: u32, id: NodeId, (): &mut (), inbox: &mut RoundInbox<'_, u64>) {
        (self.recv)(round, id, inbox);
    }
    fn finish(&self, _id: NodeId, (): ()) {}
}

/// Takes the round's dimension the way `core::spmd`'s exchange does.
fn take_or_name(round: u32, id: NodeId, inbox: &mut RoundInbox<'_, u64>) {
    if inbox.take(round).is_none() {
        panic!("round {round}: node {} got nothing on dim {round}", id.bits());
    }
}

/// The message of the panic `run` ends in, under `workers` workers and
/// a stall timeout of `stall`.
fn panic_of<R>(workers: usize, stall: Duration, run: impl FnOnce() -> R) -> String {
    cubetest::catch(|| {
        with_workers(workers, || with_stall_timeout(stall, run));
    })
    .expect_err("a malformed program must not complete")
}

#[test]
fn a_message_that_was_never_sent_is_named_at_once() {
    // Node 5 skips its round-1 send, so its dim-1 neighbor, node 7,
    // finds nothing. That is known the moment round 1's batches are in:
    // the diagnostic must not wait for the stall clock.
    let stall = Duration::from_secs(20);
    for workers in [1usize, 2, 5] {
        let program = Steps {
            rounds: 3,
            send: |round, id: NodeId, out: &mut Outbox<'_, u64>| {
                if (round, id.bits()) != (1, 5) {
                    out.send(round, id.bits());
                }
            },
            recv: take_or_name,
        };
        let start = Instant::now();
        let msg = panic_of(workers, stall, || run_rounds(3, &program));
        assert_eq!(msg, "round 1: node 7 got nothing on dim 1", "workers={workers}");
        assert!(start.elapsed() < stall / 2, "waited for the stall clock");
    }
}

#[test]
fn an_unwired_port_gives_the_link_diagnostic() {
    // Port 1 of node (0, 0) is group 0's swap fixed point on a D3(2,2).
    let program = Steps {
        rounds: 1,
        send: |_, id: NodeId, out: &mut Outbox<'_, u64>| {
            if id.bits() == 0 {
                out.send(1, 7);
            }
        },
        recv: |_, _, _: &mut RoundInbox<'_, u64>| {},
    };
    for workers in [1usize, 2] {
        let msg = panic_of(workers, Duration::from_secs(20), || {
            run_rounds_on(TopoSpec::dragonfly(2, 2), &program)
        });
        assert!(msg.contains("send on port 1 of node 0"), "{msg}");
        assert!(msg.contains("no such link on the D3(2,2)"), "{msg}");
    }
}

#[test]
fn a_panicking_step_is_re_raised_with_its_own_payload_and_the_others_leave() {
    // Node 5's worker panics in round 1 before it posts, so every other
    // worker is (or will be) waiting for a batch that never comes: they
    // must leave on the panic, not on the stall clock.
    let stall = Duration::from_secs(20);
    for workers in [2usize, 5] {
        let program = Steps {
            rounds: 3,
            send: |round, id: NodeId, out: &mut Outbox<'_, u64>| {
                assert!((round, id.bits()) != (1, 5), "boom on node 5 in round 1");
                out.send(round, id.bits());
            },
            recv: take_or_name,
        };
        let start = Instant::now();
        let msg = panic_of(workers, stall, || run_rounds(3, &program));
        assert_eq!(msg, "boom on node 5 in round 1", "workers={workers}");
        assert!(start.elapsed() < stall / 2, "the other workers waited for the stall clock");
    }
}

#[test]
fn a_message_nobody_took_is_reported_with_node_and_dim() {
    // Node 2 sends on dim 0 as well as on the round's dim 1; node 3
    // never takes it.
    let program = Steps {
        rounds: 2,
        send: |round, id: NodeId, out: &mut Outbox<'_, u64>| {
            out.send(round, id.bits());
            if (round, id.bits()) == (1, 2) {
                out.send(0, 99);
            }
        },
        recv: take_or_name,
    };
    for workers in [1usize, 2, 5] {
        let msg = panic_of(workers, Duration::from_secs(20), || run_rounds(2, &program));
        assert_eq!(msg, "node 3 ended with 1 unread messages on dims [0]", "workers={workers}");
    }
}

#[test]
fn a_worker_stuck_in_a_step_is_named_by_the_worker_waiting_for_it() {
    // Two workers on a 2-cube: nodes 0–1 and 2–3. Node 2's round-1 send
    // step outlasts the stall timeout, so worker 0 waits in round 1 for
    // worker 1's batch and must say so.
    let program = Steps {
        rounds: 2,
        send: |round, id: NodeId, out: &mut Outbox<'_, u64>| {
            if (round, id.bits()) == (1, 2) {
                cubesync::thread::sleep(Duration::from_millis(600));
            }
            out.send(round, id.bits());
        },
        recv: take_or_name,
    };
    let msg = panic_of(2, Duration::from_millis(50), || run_rounds(2, &program));
    assert!(msg.contains("SPMD scheduler stalled: no virtual-node progress for 50ms"), "{msg}");
    assert!(msg.contains("worker 0 of the round door, nodes 0..2"), "{msg}");
    assert!(msg.contains("waiting in round 1 for the batch of workers [1]"), "{msg}");
}

//! The round door: a node program with a fixed round structure runs as
//! a per-worker superstep loop over the worker's home range.
//!
//! [`crate::run_spmd`] takes a free-form `async` program and suspends a
//! node wherever it receives. The paper's transposes are not free-form:
//! "for j := n−1 downto 0, every node exchanges on dimension j" is a
//! schedule every processor knows in advance, and the machines ran it
//! bulk-synchronously — a real processor looping over the virtual
//! processors it hosts. [`run_rounds`] executes a [`RoundProgram`] that
//! way. Worker `w`, at home to the same contiguous node range the async
//! door would give it, does for every round `r`:
//!
//! 1. **send** — calls the program's `send` step for every home node. A
//!    message for a home node is moved straight into that node's inbox
//!    (the async door's `Inbox`: `(port, message)` entries in arrival
//!    order, so taking the oldest entry of a port is per-link FIFO); a
//!    message for another worker's node is appended to the batch for
//!    that worker.
//! 2. **post** — pushes *one batch per other active worker, also when
//!    it is empty*, tagged with `r`, into that worker's mailbox under
//!    its lock, and notifies the mailbox's condvar.
//! 3. **collect** — waits on its own mailbox until the batches of round
//!    `r` from all other active workers are there, takes them out and
//!    moves their messages into the inboxes in arrival order.
//! 4. **recv** — calls the program's `recv` step for every home node.
//!
//! After the last round every state is finished in node order; the
//! parts concatenate as they do behind `run_spmd_on`. No node is boxed,
//! spawned or suspended, and a worker blocks at most once per round.
//!
//! # One round ahead, never two
//!
//! A worker posts its batches of round `r + 1` only after it collected
//! round `r`, which needs *our* batch of round `r`; so while we wait in
//! round `r` a mailbox can hold batches of `r` and of `r + 1`, nothing
//! later. A batch of `r + 1` stays in the mailbox until its round: were
//! it delivered early, a `take` in round `r` could see a message of
//! round `r + 1` or not, by timing.
//!
//! # What cannot hang
//!
//! A round is complete when the batches have arrived, not when a count
//! the program declared is met, so a wrong program cannot stall the
//! door: a `recv` step that finds nothing where it expects a message
//! sees `None` at once (and should panic naming round, node and dim),
//! and messages nobody took are reported when the run ends. A panic in
//! any step is caught once per worker, ends the run for the others (a
//! `done` flag stored before every mailbox is locked and notified, so a
//! waiter either reads it under its lock or is woken), and is re-raised
//! from [`run_rounds`] with its original payload. The mailbox wait
//! ticks like the async door's sleep; a worker that saw no batch arrive
//! for the stall timeout panics with a report naming itself, its node
//! range, the round and the workers it waits for. Liveness does not
//! rest on the tick: the `cubesync` model suite runs this door with a
//! wait that never times out.
//!
//! # Determinism
//!
//! As on the async door: every directed link has one sending node, an
//! inbox and a batch keep send order, batches of one sender arrive in
//! round order, and `take` names the link it consumes from. The order
//! in which batches of *different* workers reach an inbox differs by
//! timing and is invisible to the program.

use crate::runtime::{cube, pool_size, run_workers, stall_timeout, wired_neighbor, RunStats};
use crate::sched::{lock, stall_tick, Homes, Inbox};
use cubeaddr::NodeId;
use cubesync::atomic::{AtomicBool, Ordering};
use cubesync::sync::{Condvar, Mutex, PoisonError};
use cubetopo::{TopoSpec, Topology};
use std::ops::Range;
use std::time::{Duration, Instant};

/// A node program with a fixed round structure: every node runs
/// `init`, then for each round `send` followed by `recv`, then
/// `finish`. Within a round every node's `send` step has run — and
/// every message of the round has been delivered — before any `recv`
/// step of the round runs.
///
/// The program is shared by the workers (`Sync`); a node's `State` is
/// created, stepped and finished on its home worker and need not be
/// `Send`.
pub trait RoundProgram<T>: Sync {
    /// What a node carries from round to round.
    type State;
    /// A node's result.
    type Out: Send;

    /// Number of rounds; the same for every node.
    fn rounds(&self) -> u32;

    /// Node `id`'s state before round 0.
    fn init(&self, id: NodeId) -> Self::State;

    /// Node `id`'s sends of `round`.
    fn send(&self, round: u32, id: NodeId, state: &mut Self::State, out: &mut Outbox<'_, T>);

    /// Node `id`'s receives of `round`. A message it leaves in the
    /// inbox is still there in the next round.
    fn recv(&self, round: u32, id: NodeId, state: &mut Self::State, inbox: &mut RoundInbox<'_, T>);

    /// Node `id`'s result, after the last round.
    fn finish(&self, id: NodeId, state: Self::State) -> Self::Out;
}

/// The sending half of a node's ports, handed to [`RoundProgram::send`].
pub struct Outbox<'a, T> {
    lane: &'a mut Lane<T>,
    id: NodeId,
}

impl<T> Outbox<'_, T> {
    /// Sends `msg` to the neighbor across `port`; it arrives tagged
    /// with the receiver's reverse port (on the cube, the same
    /// dimension) and can be taken in this round's `recv` step or any
    /// later one.
    ///
    /// # Panics
    /// With the link diagnostic of [`crate::NodeCtx::send`] if `port` is
    /// out of range or unwired on this topology.
    #[track_caller]
    pub fn send(&mut self, port: u32, msg: T) {
        let lane = &mut *self.lane;
        let peer = wired_neighbor(&lane.topo, self.id, port, "send") as usize;
        let back =
            lane.topo.reverse_port(self.id.bits(), port).expect("a wired link has a reverse port");
        lane.messages += 1;
        match peer.checked_sub(lane.home.start).filter(|&at| at < lane.inboxes.len()) {
            Some(at) => lane.inboxes[at].push(back, msg),
            None => lane.outgoing[lane.homes.worker_of(peer)].push((peer as u32, back, msg)),
        }
    }
}

/// The receiving half of a node's ports, handed to
/// [`RoundProgram::recv`].
pub struct RoundInbox<'a, T> {
    inbox: &'a mut Inbox<T>,
}

impl<T> RoundInbox<'_, T> {
    /// Takes the oldest message that arrived on `port`, or `None` if
    /// nothing sent so far is pending there — the round's sends are all
    /// in, so `None` means nobody sent it.
    pub fn take(&mut self, port: u32) -> Option<T> {
        self.inbox.take(port)
    }
}

/// What one worker sent to the nodes of another in one round: `(node,
/// port, message)` in send order.
struct Batch<T> {
    round: u32,
    from: usize,
    mail: Vec<(u32, u32, T)>,
}

/// A worker's mailbox: the batches other workers posted and it has not
/// collected yet, in arrival order. Only its owner waits on `arrived`.
struct Mailbox<T> {
    batches: Mutex<Vec<Batch<T>>>,
    arrived: Condvar,
}

/// What the workers of one run share.
struct Pool<T> {
    homes: Homes,
    stall_timeout: Duration,
    /// One per worker.
    mailboxes: Vec<Mailbox<T>>,
    /// Set by a worker that panicked, before it notifies every mailbox.
    done: AtomicBool,
}

impl<T> Pool<T> {
    /// Cuts the run short: every waiting worker leaves.
    fn abort(&self) {
        self.done.store(true, Ordering::SeqCst);
        for mailbox in &self.mailboxes {
            drop(lock(&mailbox.batches));
            mailbox.arrived.notify_all();
        }
    }
}

/// A worker's private data plane, which its nodes' [`Outbox`]es write.
struct Lane<T> {
    topo: TopoSpec,
    homes: Homes,
    /// The node ids at home here.
    home: Range<usize>,
    /// One per home node.
    inboxes: Vec<Inbox<T>>,
    /// The batch being filled for each worker (this one's stays empty).
    outgoing: Vec<Vec<(u32, u32, T)>>,
    messages: u64,
}

/// What a worker returns: its home range's results in node order
/// (nothing if the run was cut short) and its counters.
struct Part<R> {
    results: Vec<R>,
    messages: u64,
    parks: u64,
    wakes: u64,
}

/// One worker of a run: the pool, its lane, and its mailbox counters.
struct Worker<'a, T> {
    pool: &'a Pool<T>,
    me: usize,
    lane: Lane<T>,
    parks: u64,
    wakes: u64,
}

impl<T> Worker<'_, T> {
    /// Posts this round's batch to every other active worker.
    fn post(&mut self, round: u32) {
        for to in (0..self.pool.homes.active()).filter(|&to| to != self.me) {
            let mail = std::mem::take(&mut self.lane.outgoing[to]);
            let mailbox = &self.pool.mailboxes[to];
            lock(&mailbox.batches).push(Batch { round, from: self.me, mail });
            mailbox.arrived.notify_all();
        }
    }

    /// Waits for the batch of `round` from every other active worker
    /// and moves their messages into the inboxes, in arrival order.
    /// Returns `false` if the run was cut short.
    fn collect(&mut self, round: u32) -> bool {
        let pool = self.pool;
        let expected = pool.homes.active() - 1;
        if expected == 0 {
            return true;
        }
        let mailbox = &pool.mailboxes[self.me];
        let mut batches = lock(&mailbox.batches);
        // The stall clock: how many batches were here at the last look,
        // and when that last changed.
        let (mut seen, mut since) = (batches.len(), Instant::now());
        let mut parked = false;
        while batches.iter().filter(|b| b.round == round).count() < expected {
            if pool.done.load(Ordering::SeqCst) {
                return false;
            }
            if batches.len() != seen {
                (seen, since) = (batches.len(), Instant::now());
            } else if since.elapsed() >= pool.stall_timeout {
                let report = self.stall_report(round, &batches);
                drop(batches);
                panic!("{report}");
            }
            if !parked {
                parked = true;
                self.parks += 1;
            }
            (batches, _) = mailbox
                .arrived
                .wait_timeout(batches, stall_tick(pool.stall_timeout))
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.wakes += u64::from(parked);
        // A batch of the next round stays where it is.
        let due: Vec<Batch<T>> = batches.extract_if(.., |b| b.round == round).collect();
        drop(batches);
        let start = self.lane.home.start;
        for (node, port, msg) in due.into_iter().flat_map(|b| b.mail) {
            self.lane.inboxes[node as usize - start].push(port, msg);
        }
        true
    }

    /// The stall diagnostic of a worker waiting in `round` with
    /// `batches` in its mailbox.
    fn stall_report(&self, round: u32, batches: &[Batch<T>]) -> String {
        let missing: Vec<usize> = (0..self.pool.homes.active())
            .filter(|&w| w != self.me && !batches.iter().any(|b| b.round == round && b.from == w))
            .collect();
        format!(
            "SPMD scheduler stalled: no virtual-node progress for {:?} (worker {} of the round \
             door, nodes {:?}, waiting in round {round} for the batch of workers {missing:?}) \
             — a step that never returns?",
            self.pool.stall_timeout, self.me, self.lane.home
        )
    }

    /// Panics if a home node still has a message nobody took.
    fn assert_all_read(&mut self) {
        let ports = self.lane.topo.ports();
        for (at, inbox) in self.lane.inboxes.iter_mut().enumerate() {
            if inbox.is_empty() {
                continue;
            }
            let mut dims = Vec::new();
            for port in 0..ports {
                while inbox.take(port).is_some() {
                    dims.push(port);
                }
            }
            panic!(
                "node {} ended with {} unread messages on dims {dims:?}",
                self.lane.home.start + at,
                dims.len()
            );
        }
    }

    /// The whole run of this worker.
    fn run<P: RoundProgram<T>>(&mut self, program: &P) -> Vec<P::Out> {
        let home = self.lane.home.clone();
        if home.is_empty() {
            // A trailing worker of an uneven split: it posts to nobody
            // and nobody waits for it.
            return Vec::new();
        }
        let ids = || home.clone().map(|x| NodeId(x as u64));
        let mut states: Vec<P::State> = ids().map(|id| program.init(id)).collect();
        for round in 0..program.rounds() {
            for (id, state) in ids().zip(&mut states) {
                program.send(round, id, state, &mut Outbox { lane: &mut self.lane, id });
            }
            self.post(round);
            if !self.collect(round) {
                return Vec::new();
            }
            for ((id, state), inbox) in ids().zip(&mut states).zip(&mut self.lane.inboxes) {
                program.recv(round, id, state, &mut RoundInbox { inbox });
            }
        }
        self.assert_all_read();
        ids().zip(states).map(|(id, state)| program.finish(id, state)).collect()
    }
}

/// Runs `program` on every node of an `n`-cube through the round door
/// and returns the per-node results in node order plus run statistics.
///
/// Use it for a program whose communication is a fixed sequence of
/// rounds; a program that decides at run time what to wait for belongs
/// on [`crate::run_spmd`]. Both doors size the pool by
/// [`crate::num_workers`], split the nodes into the same home ranges,
/// and give byte-identical results at any worker count.
///
/// [`RunStats`] on this door: `messages` counts every `Outbox::send`;
/// `parks` / `wakes` count the times a worker blocked on / was released
/// from its mailbox wait (at most once per round per worker); `peak_live`
/// is the node count, since every state is built before round 0;
/// `barriers` is 0 and `steals` the usual zeros.
///
/// The crate docs have an example beside its `run_spmd` twin.
///
/// # Panics
/// If `n > 16`; with a step's own panic; if a node ends with unread
/// messages; or with the stall report if a worker waits for a batch
/// longer than the stall timeout ([`crate::with_stall_timeout`]).
pub fn run_rounds<T: Send, P: RoundProgram<T>>(n: u32, program: &P) -> (Vec<P::Out>, RunStats) {
    run_rounds_on(cube(n), program)
}

/// [`run_rounds`] on an arbitrary [`TopoSpec`] topology, with ports in
/// place of dimensions as on [`crate::run_spmd_on`].
pub fn run_rounds_on<T: Send, P: RoundProgram<T>>(
    topo: TopoSpec,
    program: &P,
) -> (Vec<P::Out>, RunStats) {
    let (num, workers) = (topo.num_nodes(), pool_size(&topo));
    let pool = Pool {
        homes: Homes::new(num, workers),
        stall_timeout: stall_timeout(),
        mailboxes: (0..workers)
            .map(|_| Mailbox { batches: Mutex::new(Vec::new()), arrived: Condvar::new() })
            .collect(),
        done: AtomicBool::new(false),
    };

    let parts = run_workers(workers, |me| {
        let home = pool.homes.range_of(me);
        let lane = Lane {
            topo,
            homes: pool.homes,
            inboxes: home.clone().map(|_| Inbox::new()).collect(),
            home,
            outgoing: (0..workers).map(|_| Vec::new()).collect(),
            messages: 0,
        };
        let mut worker = Worker { pool: &pool, me, lane, parks: 0, wakes: 0 };
        // One catch per worker: the others must be told before the
        // payload travels on.
        let run = std::panic::AssertUnwindSafe(|| worker.run(program));
        let results = std::panic::catch_unwind(run).unwrap_or_else(|payload| {
            pool.abort();
            std::panic::resume_unwind(payload)
        });
        Part { results, messages: worker.lane.messages, parks: worker.parks, wakes: worker.wakes }
    });

    let stats = RunStats {
        messages: parts.iter().map(|p| p.messages).sum(),
        barriers: 0,
        workers,
        peak_live: num as u32,
        parks: parts.iter().map(|p| p.parks).sum(),
        wakes: parts.iter().map(|p| p.wakes).sum(),
        steals: vec![0; workers],
    };
    // The home ranges are contiguous and ascending, so the parts
    // concatenate in node order.
    (parts.into_iter().flat_map(|p| p.results).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_workers;
    use cubetopo::SwappedDragonfly;

    /// Every node adds up what its neighbors hold, one dimension per
    /// round: after `n` rounds every node holds the sum of all ids.
    struct AllDims(u32);

    impl RoundProgram<u64> for AllDims {
        type State = u64;
        type Out = u64;
        fn rounds(&self) -> u32 {
            self.0
        }
        fn init(&self, id: NodeId) -> u64 {
            id.bits() * id.bits() + 1
        }
        fn send(&self, round: u32, _id: NodeId, acc: &mut u64, out: &mut Outbox<'_, u64>) {
            out.send(round, *acc);
        }
        fn recv(&self, round: u32, id: NodeId, acc: &mut u64, inbox: &mut RoundInbox<'_, u64>) {
            // Order-sensitive on purpose: a swapped pair would differ.
            let got = inbox.take(round).expect("the neighbor sent in this round");
            *acc = if (id.bits() >> round) & 1 == 0 { 3 * *acc + got } else { *acc + 3 * got };
        }
        fn finish(&self, _id: NodeId, acc: u64) -> u64 {
            acc
        }
    }

    #[test]
    fn all_dims_exchange_is_identical_at_any_worker_count() {
        // 5 workers on 8 nodes: home ranges of 2, the fifth worker has
        // none and must neither post nor be waited for.
        let (one, stats) = with_workers(1, || run_rounds(3, &AllDims(3)));
        assert_eq!((stats.messages, stats.parks, stats.peak_live, stats.barriers), (24, 0, 8, 0));
        for workers in [2usize, 5] {
            let (results, stats) = with_workers(workers, || run_rounds(3, &AllDims(3)));
            assert_eq!(results, one, "workers={workers}");
            assert_eq!((stats.messages, stats.workers), (24, workers));
            assert_eq!(stats.steals, vec![0; workers]);
            assert!(stats.wakes <= stats.parks && stats.parks <= 3 * workers as u64);
        }
    }

    /// Each router rotates a partial around its group's intra clique:
    /// in round `s` it sends to the router `s + 1` places on and takes
    /// from the one `s + 1` places back — different port numbers on the
    /// two ends of a link.
    struct CliqueRotate(SwappedDragonfly);

    impl RoundProgram<u64> for CliqueRotate {
        type State = u64;
        type Out = u64;
        fn rounds(&self) -> u32 {
            self.0.m() - 1
        }
        fn init(&self, id: NodeId) -> u64 {
            id.bits()
        }
        fn send(&self, round: u32, id: NodeId, acc: &mut u64, out: &mut Outbox<'_, u64>) {
            let (m, (_, r)) = (u64::from(self.0.m()), self.0.coords(id.bits()));
            out.send(self.0.intra_port(r, (r + u64::from(round) + 1) % m), *acc);
        }
        fn recv(&self, round: u32, id: NodeId, acc: &mut u64, inbox: &mut RoundInbox<'_, u64>) {
            let (m, (_, r)) = (u64::from(self.0.m()), self.0.coords(id.bits()));
            let from = self.0.intra_port(r, (r + m - u64::from(round) - 1) % m);
            *acc = acc.wrapping_mul(31).wrapping_add(inbox.take(from).expect("sent this round"));
        }
        fn finish(&self, _id: NodeId, acc: u64) -> u64 {
            acc
        }
    }

    #[test]
    fn dragonfly_messages_arrive_on_the_reverse_port_at_any_worker_count() {
        let program = CliqueRotate(SwappedDragonfly::new(2, 4));
        let run = |workers| with_workers(workers, || run_rounds_on(program.0.into(), &program));
        let (one, stats) = run(1);
        assert_eq!(stats.messages, 32 * 3);
        // What the async door computes for the same rotation.
        let (async_door, _) = crate::run_spmd_on(program.0.into(), |ctx| async move {
            let d = SwappedDragonfly::new(2, 4);
            let (_, r) = d.coords(ctx.id().bits());
            let mut acc = ctx.id().bits();
            for step in 1..4u64 {
                ctx.send(d.intra_port(r, (r + step) % 4), acc);
                let got = ctx.recv(d.intra_port(r, (r + 4 - step) % 4)).await;
                acc = acc.wrapping_mul(31).wrapping_add(got);
            }
            acc
        });
        assert_eq!(one, async_door);
        for workers in [2usize, 5] {
            assert_eq!(run(workers).0, one, "workers={workers}");
        }
    }

    /// Node 0 sends `a`, `b` on dim 0 in round 0 and `c` in round 1;
    /// node 1 takes one message in round 0 and two in round 1.
    struct TwoOnOnePort;

    impl RoundProgram<&'static str> for TwoOnOnePort {
        type State = Vec<&'static str>;
        type Out = Vec<&'static str>;
        fn rounds(&self) -> u32 {
            2
        }
        fn init(&self, _id: NodeId) -> Self::State {
            Vec::new()
        }
        fn send(&self, round: u32, id: NodeId, _: &mut Self::State, out: &mut Outbox<'_, &str>) {
            match (id.bits(), round) {
                (0, 0) => {
                    out.send(0, "a");
                    out.send(0, "b");
                }
                (0, 1) => out.send(0, "c"),
                _ => {}
            }
        }
        fn recv(
            &self,
            round: u32,
            id: NodeId,
            got: &mut Self::State,
            inbox: &mut RoundInbox<'_, &'static str>,
        ) {
            if id.bits() == 1 {
                got.extend(inbox.take(0));
                if round == 1 {
                    got.extend(inbox.take(0));
                    assert_eq!(inbox.take(0), None);
                }
            }
        }
        fn finish(&self, _id: NodeId, got: Self::State) -> Self::Out {
            got
        }
    }

    #[test]
    fn a_link_is_fifo_and_a_message_left_in_the_inbox_waits_for_the_next_round() {
        for workers in [1usize, 2] {
            let (results, stats) = with_workers(workers, || run_rounds(1, &TwoOnOnePort));
            assert_eq!(results, [vec![], vec!["a", "b", "c"]], "workers={workers}");
            assert_eq!(stats.messages, 3);
        }
    }

    #[test]
    fn zero_cube_is_one_node_that_runs_every_step() {
        let (results, stats) = with_workers(4, || run_rounds(0, &AllDims(0)));
        assert_eq!(results, [1]);
        assert_eq!((stats.workers, stats.messages, stats.peak_live), (1, 0, 1));
    }
}

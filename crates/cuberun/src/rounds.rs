//! The executor both front doors run on, and the round door itself.
//!
//! The paper's machines ran every algorithm bulk-synchronously: a real
//! processor looped over the virtual processors it hosted, and the real
//! processors traded messages between two such loops. Each worker of
//! the pool does the same over its home range. One *step* of worker `w`
//! is:
//!
//! 1. **run** — its home nodes do their work. A message for a home node
//!    is moved straight into that node's inbox (`(port, message)`
//!    entries in arrival order, so taking the oldest entry of a port is
//!    per-link FIFO); a message for another worker's node is appended
//!    to the batch for that worker.
//! 2. **post** — pushes *one batch per other active worker, also when
//!    it is empty*, tagged with the step and headed by a small
//!    header, into that worker's mailbox under its lock, and notifies
//!    the mailbox's condvar.
//! 3. **collect** — waits on its own mailbox until the batches of this
//!    step from all other active workers are there, takes them out and
//!    moves their messages into the inboxes in arrival order.
//!
//! The two doors differ only in what "run" is:
//!
//! * **The round door** ([`run_rounds`]) executes a [`RoundProgram`]:
//!   step `r` is round `r`, "run" calls the program's `send` step for
//!   every home node, and after the collect its `recv` step for every
//!   home node. After the last round every state is finished in node
//!   order. No node is boxed, spawned or suspended.
//! * **The async door** ([`crate::run_spmd`]) polls free-form `async`
//!   node programs. A step is a *sweep*: "run" spawns the home range
//!   lazily and polls ready nodes until none is left. A `recv` with
//!   nothing pending parks its node on that port, and a delivery on
//!   that port (local, or from a collected batch) puts the node at the
//!   front of the ready queue. The headers then decide, identically on
//!   every worker, whether the run is finished or the node programs
//!   are deadlocked (see the runtime module).
//!
//! The parts of the workers concatenate in node order. A worker blocks
//! at most once per step.
//!
//! # One step ahead, never two
//!
//! A worker posts its batches of step `s + 1` only after it collected
//! step `s`, which needs *our* batch of step `s`; so while we wait in
//! step `s` a mailbox can hold batches of `s` and of `s + 1`, nothing
//! later. A batch of `s + 1` stays in the mailbox until its step: were
//! it delivered early, a `take` in step `s` could see a message of step
//! `s + 1` or not, by timing.
//!
//! # What cannot hang
//!
//! A step is complete when the batches have arrived, not when a count
//! the program declared is met, so a wrong round program cannot stall
//! the door: a `recv` step that finds nothing where it expects a
//! message sees `None` at once (and should panic naming round, node and
//! dim), and messages nobody took are reported when the run ends. A
//! panic in any step is caught once per worker, ends the run for the
//! others (a `done` flag stored before every mailbox is locked and
//! notified, so a waiter either reads it under its lock or is woken),
//! and is re-raised from the door with its original payload. The
//! mailbox wait ticks; a worker that saw no batch arrive for the stall
//! timeout panics with a report naming itself, its node range, the step
//! and the workers it waits for — a step that never returns. Liveness
//! does not rest on the tick: the `cubesync` model suite runs both
//! doors with a wait that never times out.
//!
//! # Determinism
//!
//! Every directed link has one sending node, an inbox and a batch keep
//! send order, batches of one sender arrive in step order, and a `take`
//! or `recv` names the link it consumes from. The order in which
//! batches of *different* workers reach an inbox differs by timing and
//! is invisible to the program; the pool only decides *when* a node
//! runs, never *what* it observes.

use crate::runtime::{cube, pool_size, run_workers, stall_timeout, wired_neighbor, RunStats};
use crate::sched::{lock, stall_tick, Homes, Inbox};
use cubeaddr::NodeId;
use cubesync::atomic::{AtomicBool, Ordering};
use cubesync::sync::{Condvar, Mutex, PoisonError};
use cubetopo::{TopoSpec, Topology};
use std::collections::VecDeque;
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
        let peer = wired_neighbor(&lane.topo, self.id, port, "send");
        let back =
            lane.topo.reverse_port(self.id.bits(), port).expect("a wired link has a reverse port");
        lane.send(peer as usize, back, msg);
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

/// What the sender of a batch says about itself at the end of a step.
/// Summed over every active worker, it is the same on all of them, so
/// they all take the same decision at the same step boundary. The round
/// door does not read it.
#[derive(Clone, Copy, Default)]
pub(crate) struct Header {
    /// Messages the sender posted to other workers in this step.
    pub(crate) sent: u64,
    /// Its home nodes whose program has not finished.
    pub(crate) unfinished: u64,
}

impl Header {
    pub(crate) fn plus(self, other: Header) -> Header {
        Header { sent: self.sent + other.sent, unfinished: self.unfinished + other.unfinished }
    }
}

/// What one worker sent to the nodes of another in one step: `(node,
/// port, message)` in send order.
struct Batch<T> {
    step: u32,
    from: usize,
    head: Header,
    mail: Vec<(u32, u32, T)>,
}

/// A worker's mailbox: the batches other workers posted and it has not
/// collected yet, in arrival order. Only its owner waits on `arrived`.
struct Mailbox<T> {
    batches: Mutex<Vec<Batch<T>>>,
    arrived: Condvar,
}

/// What the workers of one run share.
pub(crate) struct Pool<T> {
    homes: Homes,
    stall_timeout: Duration,
    /// "round" or "async", for the stall report.
    door: &'static str,
    /// What one step is called on this door ("round" or "sweep").
    step: &'static str,
    /// One per worker.
    mailboxes: Vec<Mailbox<T>>,
    /// Set by a worker that panicked, before it notifies every mailbox.
    done: AtomicBool,
}

/// A worker's private data plane, which its nodes' sends write.
pub(crate) struct Lane<T> {
    pub(crate) topo: TopoSpec,
    homes: Homes,
    /// The node ids at home here.
    pub(crate) home: Range<usize>,
    /// One per home node.
    pub(crate) inboxes: Vec<Inbox<T>>,
    /// The batch being filled for each worker (this one's stays empty).
    outgoing: Vec<Vec<(u32, u32, T)>>,
    /// Home nodes (by index in the home range) a delivery on the port
    /// they are parked on made runnable, next at the front. Always
    /// empty on the round door, where no node parks.
    pub(crate) ready: VecDeque<u32>,
    pub(crate) messages: u64,
    /// Times a node parked (async door) or this worker blocked on its
    /// mailbox, and times either was released.
    pub(crate) parks: u64,
    pub(crate) wakes: u64,
}

impl<T> Lane<T> {
    /// Sends `msg` to node `peer`, arriving on its port `port`: a move
    /// into its inbox if it lives here, else into the batch for its
    /// worker.
    pub(crate) fn send(&mut self, peer: usize, port: u32, msg: T) {
        self.messages += 1;
        match peer.checked_sub(self.home.start).filter(|&at| at < self.inboxes.len()) {
            Some(at) => self.deliver(at, port, msg),
            None => self.outgoing[self.homes.worker_of(peer)].push((peer as u32, port, msg)),
        }
    }

    /// Puts a message into home node `at`'s inbox. A node parked on
    /// exactly that port runs next; a message on any other port wakes
    /// nobody — a re-polled `recv` would still have nothing to take.
    fn deliver(&mut self, at: usize, port: u32, msg: T) {
        let inbox = &mut self.inboxes[at];
        inbox.push(port, msg);
        if inbox.parked == Some(port) {
            inbox.parked = None;
            self.ready.push_front(at as u32);
            self.wakes += 1;
        }
    }

    /// Panics if a home node still has a message nobody took.
    fn assert_all_read(&mut self) {
        let ports = self.topo.ports();
        for (at, inbox) in self.inboxes.iter_mut().enumerate() {
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
                self.home.start + at,
                dims.len()
            );
        }
    }
}

/// What a worker returns: its home range's results in node order and
/// its counters. `results` is empty if the run was cut short or
/// deadlocked.
pub(crate) struct Part<R> {
    pub(crate) results: Vec<R>,
    pub(crate) messages: u64,
    pub(crate) parks: u64,
    pub(crate) wakes: u64,
    /// The largest live-context count this worker knows occurred.
    pub(crate) peak_live: u64,
    /// At a deadlock: the home nodes still waiting, each with the port
    /// it is parked on.
    pub(crate) stuck: Vec<(usize, u32)>,
}

impl<R> Part<R> {
    /// A part with `lane`'s counters and nothing else.
    pub(crate) fn of<T>(lane: &Lane<T>, results: Vec<R>) -> Self {
        Part {
            results,
            messages: lane.messages,
            parks: lane.parks,
            wakes: lane.wakes,
            peak_live: 0,
            stuck: Vec::new(),
        }
    }
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

    /// Posts worker `me`'s batch of `step` to every other active worker,
    /// headed by `head` with its `sent` filled in; returns that header.
    pub(crate) fn post(&self, me: usize, lane: &mut Lane<T>, step: u32, head: Header) -> Header {
        let head = Header { sent: lane.outgoing.iter().map(|o| o.len() as u64).sum(), ..head };
        for to in (0..self.homes.active()).filter(|&to| to != me) {
            let mail = std::mem::take(&mut lane.outgoing[to]);
            let mailbox = &self.mailboxes[to];
            lock(&mailbox.batches).push(Batch { step, from: me, head, mail });
            mailbox.arrived.notify_all();
        }
        head
    }

    /// Waits for the batch of `step` from every other active worker,
    /// moves their messages into `lane`'s inboxes in arrival order and
    /// returns the sum of their headers; `None` if the run was cut
    /// short.
    pub(crate) fn collect(&self, me: usize, lane: &mut Lane<T>, step: u32) -> Option<Header> {
        let expected = self.homes.active() - 1;
        if expected == 0 {
            return Some(Header::default());
        }
        let mailbox = &self.mailboxes[me];
        let mut batches = lock(&mailbox.batches);
        // The stall clock: how many batches were here at the last look,
        // and when that last changed.
        let (mut seen, mut since) = (batches.len(), Instant::now());
        let mut parked = false;
        while batches.iter().filter(|b| b.step == step).count() < expected {
            if self.done.load(Ordering::SeqCst) {
                return None;
            }
            if batches.len() != seen {
                (seen, since) = (batches.len(), Instant::now());
            } else if since.elapsed() >= self.stall_timeout {
                let report = self.stall_report(me, lane, step, &batches);
                drop(batches);
                panic!("{report}");
            }
            if !parked {
                parked = true;
                lane.parks += 1;
            }
            (batches, _) = mailbox
                .arrived
                .wait_timeout(batches, stall_tick(self.stall_timeout))
                .unwrap_or_else(PoisonError::into_inner);
        }
        lane.wakes += u64::from(parked);
        // A batch of the next step stays where it is.
        let due: Vec<Batch<T>> = batches.extract_if(.., |b| b.step == step).collect();
        drop(batches);
        let mut heads = Header::default();
        for batch in due {
            heads = heads.plus(batch.head);
            for (node, port, msg) in batch.mail {
                lane.deliver(node as usize - lane.home.start, port, msg);
            }
        }
        Some(heads)
    }

    /// The stall diagnostic of worker `me` waiting in `step` with
    /// `batches` in its mailbox.
    fn stall_report(&self, me: usize, lane: &Lane<T>, step: u32, batches: &[Batch<T>]) -> String {
        let missing: Vec<usize> = (0..self.homes.active())
            .filter(|&w| w != me && !batches.iter().any(|b| b.step == step && b.from == w))
            .collect();
        format!(
            "SPMD scheduler stalled: no virtual-node progress for {:?} (worker {me} of the {} \
             door, nodes {:?}, waiting in {} {step} for the batch of workers {missing:?}) \
             — a step that never returns?",
            self.stall_timeout, self.door, lane.home, self.step
        )
    }
}

/// Runs `body(pool, w, lane)` for every worker `w` of a pool sized for
/// `topo`, each on its own thread with a fresh lane for its home range,
/// and returns the parts in worker order with the [`RunStats`] they add
/// up to. `door` and `step` name the door and its step in the stall
/// report. A panic in a body ends the run for the others and is
/// re-raised with its own payload.
pub(crate) fn run_pool<T: Send, R: Send>(
    topo: TopoSpec,
    door: &'static str,
    step: &'static str,
    body: impl Fn(&Pool<T>, usize, Lane<T>) -> Part<R> + Sync,
) -> (Vec<Part<R>>, RunStats) {
    let (num, workers) = (topo.num_nodes(), pool_size(&topo));
    let pool = Pool {
        homes: Homes::new(num, workers),
        stall_timeout: stall_timeout(),
        door,
        step,
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
            ready: VecDeque::new(),
            messages: 0,
            parks: 0,
            wakes: 0,
        };
        // One catch per worker: the others must be told before the
        // payload travels on.
        let run = std::panic::AssertUnwindSafe(|| body(&pool, me, lane));
        std::panic::catch_unwind(run).unwrap_or_else(|payload| {
            pool.abort();
            std::panic::resume_unwind(payload)
        })
    });
    let stats = RunStats {
        messages: parts.iter().map(|p| p.messages).sum(),
        workers,
        peak_live: parts.iter().map(|p| p.peak_live).max().unwrap_or(0) as u32,
        parks: parts.iter().map(|p| p.parks).sum(),
        wakes: parts.iter().map(|p| p.wakes).sum(),
        steals: vec![0; workers],
    };
    (parts, stats)
}

/// The round door's worker: `program`'s rounds over `lane`'s home range.
fn round_worker<T, P: RoundProgram<T>>(
    pool: &Pool<T>,
    me: usize,
    mut lane: Lane<T>,
    program: &P,
) -> Part<P::Out> {
    let home = lane.home.clone();
    if home.is_empty() {
        // A trailing worker of an uneven split: it posts to nobody and
        // nobody waits for it.
        return Part::of(&lane, Vec::new());
    }
    let ids = || home.clone().map(|x| NodeId(x as u64));
    let mut states: Vec<P::State> = ids().map(|id| program.init(id)).collect();
    for round in 0..program.rounds() {
        for (id, state) in ids().zip(&mut states) {
            program.send(round, id, state, &mut Outbox { lane: &mut lane, id });
        }
        pool.post(me, &mut lane, round, Header::default());
        if pool.collect(me, &mut lane, round).is_none() {
            return Part::of(&lane, Vec::new());
        }
        for ((id, state), inbox) in ids().zip(&mut states).zip(&mut lane.inboxes) {
            program.recv(round, id, state, &mut RoundInbox { inbox });
        }
    }
    lane.assert_all_read();
    let results = ids().zip(states).map(|(id, state)| program.finish(id, state)).collect();
    // Every state exists from before round 0 to after the last.
    Part { peak_live: lane.topo.num_nodes() as u64, ..Part::of(&lane, results) }
}

/// Runs `program` on every node of an `n`-cube through the round door
/// and returns the per-node results in node order plus run statistics.
///
/// Use it for a program whose communication is a fixed sequence of
/// rounds; a program that decides at run time what to wait for belongs
/// on [`crate::run_spmd`]. Both doors size the pool by
/// [`crate::num_workers`], split the nodes into the same home ranges,
/// run the same worker loop, and give byte-identical results at any
/// worker count.
///
/// [`RunStats`] on this door: `messages` counts every `Outbox::send`;
/// `parks` / `wakes` count the times a worker blocked on / was released
/// from its mailbox wait (at most once per round per worker); `peak_live`
/// is the node count, since every state is built before round 0;
/// `steals` is the usual zeros.
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
/// place of dimensions. A node's `Outbox::send(p, …)` crosses the link
/// at its port `p`, and the message arrives tagged with the neighbor's
/// *reverse* port, so `RoundInbox::take(q)` takes what the neighbor
/// across port `q` sent. A send on an unwired port (the Swapped
/// Dragonfly's fixed-point gateway ports) panics with the link
/// diagnostic.
pub fn run_rounds_on<T: Send, P: RoundProgram<T>>(
    topo: TopoSpec,
    program: &P,
) -> (Vec<P::Out>, RunStats) {
    let (parts, stats) =
        run_pool(topo, "round", "round", |pool, me, lane| round_worker(pool, me, lane, program));
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
        assert_eq!((stats.messages, stats.parks, stats.peak_live), (24, 0, 8));
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
        let d = SwappedDragonfly::new(2, 4);
        let program = CliqueRotate(d);
        let run = |workers| with_workers(workers, || run_rounds_on(d.into(), &program));
        let (one, stats) = run(1);
        assert_eq!(stats.messages, 32 * 3);
        // The same rotation computed sequentially, round by round.
        let m = u64::from(d.m());
        let mut expect: Vec<u64> = (0..d.num_nodes() as u64).collect();
        for round in 1..m {
            expect = (0..d.num_nodes() as u64)
                .map(|x| {
                    let (g, r) = d.coords(x);
                    let from = d.node_at(g, (r + m - round) % m);
                    expect[x as usize].wrapping_mul(31).wrapping_add(expect[from as usize])
                })
                .collect();
        }
        assert_eq!(one, expect);
        for workers in [2usize, 5] {
            assert_eq!(run(workers).0, one, "workers={workers}");
        }
    }

    /// In one round every node sends its id over every wired port and
    /// takes one message from each.
    struct NeighborIds(SwappedDragonfly);

    impl NeighborIds {
        fn wired(&self, id: NodeId) -> impl Iterator<Item = u32> + '_ {
            (0..self.0.ports()).filter(move |&p| self.0.neighbor(id.bits(), p).is_some())
        }
    }

    impl RoundProgram<u64> for NeighborIds {
        type State = Vec<u64>;
        type Out = Vec<u64>;
        fn rounds(&self) -> u32 {
            1
        }
        fn init(&self, _id: NodeId) -> Vec<u64> {
            Vec::new()
        }
        fn send(&self, _round: u32, id: NodeId, _: &mut Vec<u64>, out: &mut Outbox<'_, u64>) {
            self.wired(id).for_each(|p| out.send(p, id.bits()));
        }
        fn recv(&self, _: u32, id: NodeId, got: &mut Vec<u64>, inbox: &mut RoundInbox<'_, u64>) {
            got.extend(self.wired(id).map(|p| inbox.take(p).expect("every wired port sent")));
        }
        fn finish(&self, _id: NodeId, got: Vec<u64>) -> Vec<u64> {
            got
        }
    }

    #[test]
    fn dragonfly_neighbor_sweep_delivers_on_reverse_ports() {
        // A take on port p must yield exactly neighbor(me, p)'s id, the
        // global links' swap included.
        let d = SwappedDragonfly::new(2, 3);
        let (results, stats) = run_rounds_on(d.into(), &NeighborIds(d));
        let mut links = 0u64;
        for x in 0..d.num_nodes() as u64 {
            let expect: Vec<u64> = (0..d.ports()).filter_map(|p| d.neighbor(x, p)).collect();
            links += expect.len() as u64;
            assert_eq!(results[x as usize], expect, "node {x}");
        }
        assert_eq!(stats.messages, links, "one message per wired directed link");
    }

    /// Node 0 sends on port 1, which is unwired on a D3(2,2).
    struct SendOnPortOne;

    impl RoundProgram<u64> for SendOnPortOne {
        type State = ();
        type Out = ();
        fn rounds(&self) -> u32 {
            1
        }
        fn init(&self, _id: NodeId) {}
        fn send(&self, _round: u32, id: NodeId, _: &mut (), out: &mut Outbox<'_, u64>) {
            if id.bits() == 0 {
                out.send(1, 7);
            }
        }
        fn recv(&self, _round: u32, _id: NodeId, _: &mut (), _: &mut RoundInbox<'_, u64>) {}
        fn finish(&self, _id: NodeId, _: ()) {}
    }

    #[test]
    fn unwired_port_panics_with_a_link_diagnostic() {
        // Port 1 of node (0, 0) is group 0's swap fixed point on a
        // D3(2,2): unwired, so a send must fail loudly, not deadlock.
        let msg =
            cubetest::catch(|| run_rounds_on(SwappedDragonfly::new(2, 2).into(), &SendOnPortOne))
                .unwrap_err();
        assert!(msg.contains("send on port 1 of node 0"), "{msg}");
        assert!(msg.contains("no such link on the D3(2,2)"), "{msg}");
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

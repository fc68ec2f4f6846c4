//! Seeded-mutation suite: eight known concurrency bugs re-introduced
//! into miniature copies of the repo's protocols, each proven *caught*
//! by the model checker — and each correct twin proven clean — so the
//! checker's coverage claims are themselves tested.
//!
//! | mutation | protocol mirrored | detector that fires |
//! |---|---|---|
//! | hint stored outside the mailbox lock   | `cuberun` worker mailbox         | livelock |
//! | sleeper re-checks before registering   | `cuberun` worker mailbox + sleep | lost wakeup |
//! | waiters released at the local report   | `cuberun` per-worker barrier report | panic (early release) |
//! | later-round batch counted for this round | `cuberun` round-door batch mailbox | result non-determinism |
//! | mailbox checked, unlocked, then waited on | `cuberun` round-door batch mailbox | lost wakeup |
//! | barrier generation off-by-one  | `cuberun` generation barrier    | panic (early release) |
//! | Relaxed sleeper registration   | `cuberun` sleeper Dekker pair   | lost wakeup (weak memory) |
//! | cache overwrite without re-check | `PlanCache` build-outside-lock | panic (split identity) |
//!
//! The first three are the whole cross-thread surface of the sharded
//! scheduler: everything else a message or a barrier touches is private
//! to one worker. The next two are the round door's: its batch mailbox
//! is the only thing its workers share.
//!
//! Like the engine suite, this drives [`cubesync::model`] types
//! directly and runs in the plain `cargo test` pass.

use cubesync::model::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use cubesync::model::sync::{Condvar, Mutex};
use cubesync::model::{check, check_with, thread, Config};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Mutations 1 + 2: the worker mailbox (cuberun sched.rs) — the only
// lock a message can take. A sender on another worker pushes under the
// mailbox lock, sets the "non-empty" hint if the mailbox was empty, and
// pokes sleepers; the owner drains when it reads the hint, and with
// nothing to run registers as a sleeper, re-checks the mailbox under
// its lock, and sleeps.
// ---------------------------------------------------------------------

struct WorkerMailbox {
    mail: Mutex<Vec<u32>>,
    /// The hint the owner tests without the lock.
    full: AtomicBool,
    sleep: Mutex<()>,
    cv: Condvar,
    sleepers: AtomicUsize,
}

#[derive(Clone, Copy, PartialEq)]
enum MailBug {
    None,
    /// The sender sets the hint after releasing the mailbox lock.
    HintOutsideLock,
    /// The sleeper looks into its mailbox first and registers second.
    RecheckBeforeRegister,
}

/// A cross-worker `send`.
fn post(mb: &WorkerMailbox, msg: u32, bug: MailBug) {
    let mut mail = mb.mail.lock().unwrap();
    mail.push(msg);
    let first = mail.len() == 1;
    if first && bug != MailBug::HintOutsideLock {
        mb.full.store(true, Ordering::SeqCst);
    }
    drop(mail);
    if first && bug == MailBug::HintOutsideLock {
        mb.full.store(true, Ordering::SeqCst);
    }
    if mb.sleepers.load(Ordering::SeqCst) > 0 {
        let _sleep = mb.sleep.lock().unwrap();
        mb.cv.notify_all();
    }
}

/// The owner's scheduling loop, until `expect` messages have arrived;
/// returns them in arrival order.
fn drain_or_sleep(mb: &WorkerMailbox, expect: usize, bug: MailBug) -> Vec<u32> {
    let mut got = Vec::new();
    while got.len() < expect {
        if mb.full.load(Ordering::SeqCst) {
            let mut mail = mb.mail.lock().unwrap();
            got.append(&mut mail);
            mb.full.store(false, Ordering::SeqCst);
            continue;
        }
        // Nothing to run: sleep, unless mail raced in.
        let sleep = mb.sleep.lock().unwrap();
        if bug == MailBug::RecheckBeforeRegister {
            if !mb.mail.lock().unwrap().is_empty() {
                continue;
            }
            mb.sleepers.fetch_add(1, Ordering::SeqCst);
        } else {
            mb.sleepers.fetch_add(1, Ordering::SeqCst);
            if !mb.mail.lock().unwrap().is_empty() {
                mb.sleepers.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
        }
        drop(mb.cv.wait(sleep).unwrap());
        mb.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
    got
}

/// One worker posts two messages to another; the result — what the
/// owner received, in order — must be the same under every schedule.
fn mailbox_handoff(bug: MailBug) -> Vec<u32> {
    let mb = Arc::new(WorkerMailbox {
        mail: Mutex::new(Vec::new()),
        full: AtomicBool::new(false),
        sleep: Mutex::new(()),
        cv: Condvar::new(),
        sleepers: AtomicUsize::new(0),
    });
    thread::scope(|s| {
        let owner_mb = Arc::clone(&mb);
        let owner = s.spawn(move || drain_or_sleep(&owner_mb, 2, bug));
        post(&mb, 1, bug);
        post(&mb, 2, bug);
        owner.join().expect("owner does not panic")
    })
}

#[test]
fn worker_mailbox_is_clean() {
    let report = check(|| {
        let got = mailbox_handoff(MailBug::None);
        assert_eq!(got, [1, 2], "a mailbox keeps send order");
        got
    });
    assert!(report.exhaustive, "small config must be fully enumerated");
}

#[test]
#[should_panic(expected = "livelock")]
fn mutation_hint_stored_outside_the_mailbox_lock_is_caught() {
    // Between the sender's unlock and its hint store the owner is told
    // two things: the sleep re-check, under the lock, finds mail and
    // refuses to sleep; the drain test, on the hint, finds none and
    // refuses to drain. It spins for as long as the sender stays
    // descheduled.
    check_with(Config { max_steps: 2_000, ..Config::default() }, || {
        mailbox_handoff(MailBug::HintOutsideLock)
    });
}

#[test]
#[should_panic(expected = "lost wakeup")]
fn mutation_sleeper_recheck_before_registering_is_caught() {
    // The owner finds its mailbox empty; the sender then posts, reads a
    // sleeper count of zero and skips the notify; the owner registers
    // and sleeps on mail nobody will announce.
    check(|| mailbox_handoff(MailBug::RecheckBeforeRegister));
}

// ---------------------------------------------------------------------
// Mutation 3: the per-worker barrier report (cuberun sched.rs). Every
// worker counts the arrivals of its own nodes and reports once, under
// the barrier lock, when its range is complete; the last reporter
// advances the generation, and a worker's waiters may run only once it
// has seen the new generation. The oracle counts arrivals across the
// ensemble.
// ---------------------------------------------------------------------

struct ShardedBarrier {
    /// Workers whose whole range has arrived.
    reported: Mutex<usize>,
    generation: AtomicU64,
    /// Stands in for the sleep condvar a worker with only waiters left
    /// sleeps on.
    cv: Condvar,
    arrivals: AtomicUsize,
}

const BARRIER_WORKERS: usize = 2;
const NODES_PER_WORKER: usize = 2;

fn sharded_barrier_worker(b: &ShardedBarrier, release_at_report: bool) {
    // Polling the home range: every node arrives and waits.
    for _ in 0..NODES_PER_WORKER {
        b.arrivals.fetch_add(1, Ordering::SeqCst);
    }
    // The range is complete: report once.
    let mut reported = b.reported.lock().unwrap();
    *reported += 1;
    if *reported == BARRIER_WORKERS {
        *reported = 0;
        b.generation.store(1, Ordering::SeqCst);
        b.cv.notify_all();
    }
    // SEEDED BUG when `release_at_report`: "my range is complete" is
    // taken for "the episode is complete".
    while !release_at_report && b.generation.load(Ordering::SeqCst) == 0 {
        reported = b.cv.wait(reported).unwrap();
    }
    drop(reported);
    // The waiters run.
    for _ in 0..NODES_PER_WORKER {
        assert_eq!(
            b.arrivals.load(Ordering::SeqCst),
            BARRIER_WORKERS * NODES_PER_WORKER,
            "crossed the barrier before every node arrived"
        );
    }
}

fn sharded_barrier(release_at_report: bool) {
    let barrier = Arc::new(ShardedBarrier {
        reported: Mutex::new(0),
        generation: AtomicU64::new(0),
        cv: Condvar::new(),
        arrivals: AtomicUsize::new(0),
    });
    thread::scope(|s| {
        for _ in 0..BARRIER_WORKERS {
            let barrier = Arc::clone(&barrier);
            s.spawn(move || sharded_barrier_worker(&barrier, release_at_report));
        }
    });
}

#[test]
fn per_worker_barrier_report_is_clean() {
    let report = check(|| sharded_barrier(false));
    assert!(report.exhaustive, "small config must be fully enumerated");
}

#[test]
#[should_panic(expected = "crossed the barrier before every node arrived")]
fn mutation_waiters_released_at_the_local_report_is_caught() {
    check(|| sharded_barrier(true));
}

// ---------------------------------------------------------------------
// Mutations 4 + 5: the round door's batch mailbox (cuberun rounds.rs).
// Every round, each worker posts one batch — tagged with the round —
// into every other worker's mailbox under its lock and notifies; the
// owner waits until the batches *of its round* are all there and takes
// those out, leaving a batch of the next round (a neighbour may run one
// round ahead) where it is.
// ---------------------------------------------------------------------

struct BatchMailbox {
    /// `(round, message)` in arrival order.
    batches: Mutex<Vec<(u32, u32)>>,
    arrived: Condvar,
}

#[derive(Clone, Copy, PartialEq)]
enum BatchBug {
    None,
    /// Any batch in the mailbox counts toward the round being
    /// collected, and the oldest ones are taken whatever their round.
    CountsLaterRound,
    /// The owner looks into the mailbox, lets go of the lock, and only
    /// then waits.
    CheckThenWait,
}

const POSTERS: usize = 2;
const BATCH_ROUNDS: u32 = 2;

/// One worker's posts of `round` to the owner.
fn post_batch(mb: &BatchMailbox, round: u32, msg: u32) {
    mb.batches.lock().unwrap().push((round, msg));
    mb.arrived.notify_all();
}

/// The owner's collect step: what the nodes see in `round`, sorted —
/// nodes take by link, so the order in which different workers' batches
/// arrived is invisible to them.
fn collect(mb: &BatchMailbox, round: u32, bug: BatchBug) -> Vec<u32> {
    let due = |b: &(u32, u32)| bug == BatchBug::CountsLaterRound || b.0 == round;
    let mut batches = mb.batches.lock().unwrap();
    while batches.iter().filter(|b| due(b)).count() < POSTERS {
        if bug == BatchBug::CheckThenWait {
            drop(batches);
            batches = mb.batches.lock().unwrap();
        }
        batches = mb.arrived.wait(batches).unwrap();
    }
    let mut taken = Vec::new();
    batches.retain(|b| {
        let take = taken.len() < POSTERS && due(b);
        if take {
            taken.push(b.1);
        }
        !take
    });
    taken.sort_unstable();
    taken
}

/// Two workers post a batch per round to a third, which collects round
/// by round; returns what its nodes saw in each round.
fn batch_rounds(bug: BatchBug) -> Vec<Vec<u32>> {
    let mb = Arc::new(BatchMailbox { batches: Mutex::new(Vec::new()), arrived: Condvar::new() });
    thread::scope(|s| {
        let owner_mb = Arc::clone(&mb);
        let owner =
            s.spawn(move || (0..BATCH_ROUNDS).map(|r| collect(&owner_mb, r, bug)).collect());
        let poster_mb = Arc::clone(&mb);
        s.spawn(move || (0..BATCH_ROUNDS).for_each(|r| post_batch(&poster_mb, r, 10 + r)));
        (0..BATCH_ROUNDS).for_each(|r| post_batch(&mb, r, 20 + r));
        owner.join().expect("owner does not panic")
    })
}

#[test]
fn round_batch_mailbox_is_clean() {
    let report = check(|| {
        let seen = batch_rounds(BatchBug::None);
        assert_eq!(seen, [[10, 20], [11, 21]], "a round sees that round's batches");
        seen
    });
    assert!(report.exhaustive, "small config must be fully enumerated");
}

#[test]
#[should_panic(expected = "result non-determinism")]
fn mutation_later_round_batch_counted_for_this_round_is_caught() {
    // One poster runs a round ahead: its batches of rounds 0 and 1 are
    // both in the mailbox before the other's batch of round 0, make up
    // the count, and the nodes take a round-1 message in round 0.
    check(|| batch_rounds(BatchBug::CountsLaterRound));
}

#[test]
#[should_panic(expected = "lost wakeup")]
fn mutation_mailbox_checked_then_unlocked_then_waited_on_is_caught() {
    // The last batch lands, and its notify fires, between the owner's
    // look and its wait.
    check(|| batch_rounds(BatchBug::CheckThenWait));
}

// ---------------------------------------------------------------------
// Mutation 6: the generation-counted barrier (cuberun sched.rs).
// ---------------------------------------------------------------------

struct MiniBarrier {
    /// (generation, arrived)
    state: Mutex<(u64, usize)>,
    cv: Condvar,
}

fn barrier_wait(b: &MiniBarrier, parties: usize, off_by_one: bool) {
    let mut st = b.state.lock().unwrap();
    // SEEDED BUG when `off_by_one`: snapshotting the *next* generation
    // makes the wait predicate immediately false — the waiter falls
    // through the barrier before the last arrival.
    let gen = if off_by_one { st.0 + 1 } else { st.0 };
    st.1 += 1;
    if st.1 == parties {
        st.1 = 0;
        st.0 += 1;
        b.cv.notify_all();
    } else {
        while st.0 == gen {
            st = b.cv.wait(st).unwrap();
        }
    }
}

fn barrier_rounds(off_by_one: bool) {
    let barrier = Arc::new(MiniBarrier { state: Mutex::new((0, 0)), cv: Condvar::new() });
    let counter = Arc::new(AtomicUsize::new(0));
    thread::scope(|s| {
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            let counter = Arc::clone(&counter);
            s.spawn(move || {
                for round in 1..=2u64 {
                    counter.fetch_add(1, Ordering::SeqCst);
                    barrier_wait(&barrier, 2, off_by_one);
                    assert!(
                        counter.load(Ordering::SeqCst) >= 2 * round as usize,
                        "crossed the barrier before every party arrived"
                    );
                }
            });
        }
    });
}

#[test]
fn generation_barrier_is_clean() {
    let report = check(|| barrier_rounds(false));
    assert!(report.exhaustive, "small config must be fully enumerated");
}

#[test]
#[should_panic(expected = "crossed the barrier before every party arrived")]
fn mutation_barrier_generation_off_by_one_is_caught() {
    check(|| barrier_rounds(true));
}

// ---------------------------------------------------------------------
// Mutation 7: the sleeper-registration Dekker pair (cuberun sched.rs
// `sleep`/`notify_sleepers`). Correctness rests on both sides of the
// store/load pair being SeqCst; the mutation downgrades them to
// Relaxed, which weak-memory exploration turns into stale reads.
// ---------------------------------------------------------------------

fn sleeper_protocol(order: Ordering) {
    let work = Arc::new(AtomicBool::new(false));
    let sleepers = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new((Mutex::new(()), Condvar::new()));
    thread::scope(|s| {
        let (work1, sleepers1, gate1) =
            (Arc::clone(&work), Arc::clone(&sleepers), Arc::clone(&gate));
        s.spawn(move || {
            // Register as a sleeper *before* the final work check: the
            // Dekker-style pair with the producer's store/load below.
            sleepers1.store(1, order);
            if !work1.load(order) {
                let (lock, cv) = &*gate1;
                let mut guard = lock.lock().unwrap();
                while !work1.load(Ordering::SeqCst) {
                    guard = cv.wait(guard).unwrap();
                }
            }
        });

        // Producer: publish work, then wake any registered sleeper.
        work.store(true, order);
        if sleepers.load(order) > 0 {
            let (lock, cv) = &*gate;
            let _guard = lock.lock().unwrap();
            cv.notify_all();
        }
    });
}

#[test]
fn seqcst_sleeper_registration_is_clean_under_weak_memory() {
    let report = check_with(Config { weak_memory: true, ..Config::default() }, || {
        sleeper_protocol(Ordering::SeqCst)
    });
    assert!(report.exhaustive, "small config must be fully enumerated");
}

#[test]
#[should_panic(expected = "lost wakeup")]
fn mutation_relaxed_sleeper_registration_is_caught() {
    // Relaxed lets the producer read a stale `sleepers == 0` while the
    // sleeper reads a stale `work == false`: both sides miss each other
    // and the sleeper waits forever.
    check_with(Config { weak_memory: true, ..Config::default() }, || {
        sleeper_protocol(Ordering::Relaxed)
    });
}

// ---------------------------------------------------------------------
// Mutation 8: the plan cache's build-outside-lock protocol
// (cubecomm::plan::cache::PlanCache::get_or_build). Losing the
// racing-builder re-check lets two builders hand out *different* plans
// for the same key.
// ---------------------------------------------------------------------

fn get_or_build(
    cache: &Mutex<HashMap<u64, Arc<usize>>>,
    key: u64,
    builds: &AtomicUsize,
    recheck: bool,
) -> Arc<usize> {
    if let Some(hit) = cache.lock().unwrap().get(&key) {
        return Arc::clone(hit);
    }
    // Build outside the lock (the whole point of the protocol: plan
    // construction is expensive and must not serialize readers).
    let plan = Arc::new(builds.fetch_add(1, Ordering::SeqCst));
    let mut map = cache.lock().unwrap();
    if recheck {
        // A racing builder may have inserted while we built: keep the
        // cached plan, discard ours.
        if let Some(existing) = map.get(&key) {
            return Arc::clone(existing);
        }
    }
    map.insert(key, Arc::clone(&plan));
    plan
}

fn cache_race(recheck: bool) {
    let cache = Arc::new(Mutex::new(HashMap::new()));
    let builds = Arc::new(AtomicUsize::new(0));
    let (a, b) = thread::scope(|s| {
        let (cache1, builds1) = (Arc::clone(&cache), Arc::clone(&builds));
        let h = s.spawn(move || get_or_build(&cache1, 7, &builds1, recheck));
        let b = get_or_build(&cache, 7, &builds, recheck);
        (h.join().expect("builder does not panic"), b)
    });
    // Both callers may have built (that is allowed — construction is
    // outside the lock), but they must agree on one canonical plan.
    assert!(builds.load(Ordering::SeqCst) <= 2);
    assert!(Arc::ptr_eq(&a, &b), "two callers hold different plans for the same key");
}

#[test]
fn cache_build_outside_lock_is_clean() {
    let report = check(|| cache_race(true));
    assert!(report.exhaustive, "small config must be fully enumerated");
}

#[test]
#[should_panic(expected = "two callers hold different plans for the same key")]
fn mutation_cache_double_build_without_recheck_is_caught() {
    check(|| cache_race(false));
}

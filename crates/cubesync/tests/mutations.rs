//! Seeded-mutation suite: seven known concurrency bugs re-introduced
//! into miniature copies of the repo's protocols, each proven *caught*
//! by the model checker — and each correct twin proven clean — so the
//! checker's coverage claims are themselves tested.
//!
//! | mutation | protocol mirrored | detector that fires |
//! |---|---|---|
//! | dropped parked-flag clear      | `cuberun` mailbox park/wake     | lost wakeup |
//! | missing re-check under lock    | `cuberun` two-phase park        | lost wakeup |
//! | barrier generation off-by-one  | `cuberun` generation barrier    | panic (early release) |
//! | Relaxed sleeper registration   | `cuberun` sleeper Dekker pair   | lost wakeup (weak memory) |
//! | cache overwrite without re-check | `PlanCache` build-outside-lock | panic (split identity) |
//! | waker compares the wrong port  | `cuberun` port-tagged inbox     | lost wakeup |
//! | park re-check accepts any port | `cuberun` port-tagged inbox     | livelock |
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
// Mutations 1 + 2: the mailbox park/wake protocol (cuberun sched.rs).
// A worker publishes "I am parked" under the slot lock and sleeps until
// the flag is cleared; a producer publishes work in an atomic want cell
// and wakes the worker if it finds the flag set.
// ---------------------------------------------------------------------

const WANT_NONE: u64 = u64::MAX;

struct MailSlot {
    want: AtomicU64,
    parked: Mutex<bool>,
    cv: Condvar,
}

/// The park/wake protocol with two seeded mutations behind flags:
/// `clear_on_wake = false` drops the producer's parked-flag clear,
/// `recheck_under_lock = false` parks without the locked re-check of
/// the want cell.
fn park_wake(clear_on_wake: bool, recheck_under_lock: bool) {
    let slot = Arc::new(MailSlot {
        want: AtomicU64::new(WANT_NONE),
        parked: Mutex::new(false),
        cv: Condvar::new(),
    });
    thread::scope(|s| {
        let worker_slot = Arc::clone(&slot);
        s.spawn(move || {
            // Fast path: work already posted.
            if worker_slot.want.load(Ordering::SeqCst) != WANT_NONE {
                return;
            }
            let mut parked = worker_slot.parked.lock().unwrap();
            // Two-phase park: the re-check under the lock closes the
            // window between the fast-path miss and going to sleep.
            if recheck_under_lock && worker_slot.want.load(Ordering::SeqCst) != WANT_NONE {
                return;
            }
            *parked = true;
            while *parked {
                parked = worker_slot.cv.wait(parked).unwrap();
            }
            assert_ne!(
                worker_slot.want.load(Ordering::SeqCst),
                WANT_NONE,
                "woken with nothing to do"
            );
        });

        // Producer: publish work, then wake the worker if it parked.
        slot.want.store(7, Ordering::SeqCst);
        let mut parked = slot.parked.lock().unwrap();
        if *parked {
            if clear_on_wake {
                *parked = false;
            }
            slot.cv.notify_one();
        }
    });
}

#[test]
fn park_wake_protocol_is_clean() {
    let report = check(|| park_wake(true, true));
    assert!(report.exhaustive, "small config must be fully enumerated");
}

#[test]
#[should_panic(expected = "lost wakeup")]
fn mutation_dropped_parked_flag_clear_is_caught() {
    // The producer notifies but leaves `parked` set; the worker's
    // predicate loop re-checks, still sees itself parked, and sleeps
    // through a signal that will never repeat.
    check(|| park_wake(false, true));
}

#[test]
#[should_panic(expected = "lost wakeup")]
fn mutation_missing_recheck_under_lock_is_caught() {
    // Without the locked re-check, work posted between the fast-path
    // miss and the park is invisible: the producer saw `parked ==
    // false` and skipped the notify.
    check(|| park_wake(true, false));
}

// ---------------------------------------------------------------------
// Mutation 3: the generation-counted barrier (cuberun sched.rs).
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
// Mutation 4: the sleeper-registration Dekker pair (cuberun sched.rs
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
// Mutation 5: the plan cache's build-outside-lock protocol
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

// ---------------------------------------------------------------------
// Mutations 6 + 7: the port-tagged inbox (cuberun sched.rs). One inbox
// per node holds messages from every link, so both the waker's test
// ("is the node parked on *this* port?") and the parker's locked
// re-check ("did a message *for the awaited port* race in?") name a
// port. The worker thread below is a node awaiting port A while a
// neighbor delivers on port B and another on port A.
// ---------------------------------------------------------------------

const PORT_A: u32 = 0;
const PORT_B: u32 = 1;
/// The A-neighbor's *own* number for the link — what its `send` was
/// called with, as opposed to the receiver-side tag the message carries.
const PORT_A_SENDER_SIDE: u32 = 7;

struct PortInbox {
    /// Receiver-side port tags of the pending messages, arrival order.
    pending: Vec<u32>,
    parked: Option<u32>,
}

struct PortNode {
    inbox: Mutex<PortInbox>,
    /// Stands in for the ready queue: the parked node sleeps here.
    ready: Condvar,
}

#[derive(Clone, Copy, PartialEq)]
enum PortBug {
    None,
    /// The waker tests `parked` against the sender-side port number.
    WakerComparesOwnPort,
    /// The park re-check asks "inbox non-empty?" instead of "anything
    /// for the awaited port?".
    RecheckAcceptsAnyPort,
}

/// A neighbor's `send`: store the message under its receiver-side tag,
/// wake the node only if it is parked on `wake_if_parked_on`.
fn deliver(node: &PortNode, tag: u32, wake_if_parked_on: u32) {
    let mut inbox = node.inbox.lock().unwrap();
    inbox.pending.push(tag);
    if inbox.parked == Some(wake_if_parked_on) {
        inbox.parked = None;
        node.ready.notify_one();
    }
}

fn port_park_wake(bug: PortBug) {
    let node = Arc::new(PortNode {
        inbox: Mutex::new(PortInbox { pending: Vec::new(), parked: None }),
        ready: Condvar::new(),
    });
    thread::scope(|s| {
        let me = Arc::clone(&node);
        s.spawn(move || {
            let mut woken = false;
            loop {
                // Phase one — poll `recv(PORT_A)`.
                {
                    let mut inbox = me.inbox.lock().unwrap();
                    if let Some(at) = inbox.pending.iter().position(|&p| p == PORT_A) {
                        inbox.pending.remove(at);
                        return;
                    }
                }
                assert!(!woken, "woken with nothing to take on the awaited port");
                // Phase two — park, after the context was released.
                let mut inbox = me.inbox.lock().unwrap();
                let raced_in = if bug == PortBug::RecheckAcceptsAnyPort {
                    !inbox.pending.is_empty()
                } else {
                    inbox.pending.contains(&PORT_A)
                };
                if raced_in {
                    continue; // back on the ready queue: poll again
                }
                inbox.parked = Some(PORT_A);
                while inbox.parked.is_some() {
                    inbox = me.ready.wait(inbox).unwrap();
                }
                woken = true;
            }
        });
        let b_neighbor = Arc::clone(&node);
        s.spawn(move || deliver(&b_neighbor, PORT_B, PORT_B));
        let wake_on =
            if bug == PortBug::WakerComparesOwnPort { PORT_A_SENDER_SIDE } else { PORT_A };
        deliver(&node, PORT_A, wake_on);
    });
}

#[test]
fn port_tagged_park_wake_is_clean() {
    let report = check(|| port_park_wake(PortBug::None));
    assert!(report.exhaustive, "small config must be fully enumerated");
}

#[test]
#[should_panic(expected = "lost wakeup")]
fn mutation_waker_compares_wrong_port_is_caught() {
    // On the cube both ends of a link carry the same number, which is
    // why this bug would pass every cube test: the miniature gives the
    // two ends different numbers, as the Dragonfly does. The node parks
    // on the receiver-side port; the waker looks for the sender-side
    // one, stores the message and walks away.
    check(|| port_park_wake(PortBug::WakerComparesOwnPort));
}

#[test]
#[should_panic(expected = "livelock")]
fn mutation_park_recheck_accepting_any_port_is_caught() {
    // With B's message pending and A's not yet sent, the re-check keeps
    // answering "something raced in", the node keeps going back on the
    // ready queue, and its poll keeps finding nothing for port A.
    check_with(Config { max_steps: 2_000, ..Config::default() }, || {
        port_park_wake(PortBug::RecheckAcceptsAnyPort)
    });
}

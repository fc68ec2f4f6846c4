//! The model-checking backend: a deterministic user-level scheduler
//! that explores thread interleavings of a closed concurrent test body.
//!
//! [`check`] runs the body repeatedly. Model threads are real OS
//! threads, but a single "baton" serializes them: exactly one runs at a
//! time, and at every *visible operation* (lock, unlock, condvar
//! wait/notify, atomic access, spawn, join, yield) the running thread
//! hands control to whichever thread the current *schedule* names next.
//! A schedule is the sequence of such choices; the explorer enumerates
//! schedules depth-first (systematic, preemption-bounded — the CHESS
//! strategy: most concurrency bugs hide behind a small number of
//! preemptions), switching to seeded-random sampling once a schedule
//! budget is exceeded.
//!
//! Detected and reported with the failing schedule's event trail:
//!
//! * **Deadlock** — no thread can run, at least one is blocked.
//! * **Lost wakeup** — the deadlock special case where every blocked
//!   thread sits in a condvar wait that no future signal can reach.
//! * **Livelock** — a schedule exceeds the per-execution step budget.
//! * **Panics** — an assertion that only fails on rare interleavings.
//! * **Result non-determinism** — the body returns a different value
//!   under different schedules (the repo's protocols all promise
//!   byte-identical results at any thread count).
//!
//! # Weak-memory exploration
//!
//! With [`Config::weak_memory`], loads with an ordering weaker than
//! `SeqCst` may additionally return *stale* values: any value the
//! loading thread has not yet been forced to observe (per-location
//! coherence is respected; `SeqCst` loads and all read-modify-writes
//! see the newest value). This is deliberately *stronger* than C11 —
//! it ignores happens-before edges from unrelated locations and
//! mutexes — so it over-reports: a protocol it passes needs no fence
//! argument beyond "the Dekker-style pairs are SeqCst", and a protocol
//! it fails is relying on subtler reasoning that this repo's audit
//! table (DESIGN.md) must then spell out. The seeded
//! `Relaxed`-instead-of-`SeqCst` mutation of a sleeper protocol is
//! caught exactly this way.

pub mod atomic;
mod engine;
pub mod sync;
pub mod thread;

pub(crate) use engine::Engine;

use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Exploration limits and options for one [`check`] run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum preemptions (switching away from a runnable thread) per
    /// schedule during systematic exploration; `None` removes the bound
    /// (full depth-first search). Two or three preemptions reach the
    /// overwhelming majority of real concurrency bugs at a fraction of
    /// the schedule count.
    pub preemption_bound: Option<usize>,
    /// Systematic-exploration budget: once this many schedules have
    /// run without finishing the depth-first search, fall back to
    /// seeded-random sampling.
    pub max_schedules: usize,
    /// Number of seeded-random schedules to sample after the
    /// systematic budget is spent.
    pub random_schedules: usize,
    /// Seed for the random fallback (and nothing else — systematic
    /// exploration is deterministic).
    pub seed: u64,
    /// Let non-`SeqCst` loads return stale values (see module docs).
    pub weak_memory: bool,
    /// Per-execution step budget; exceeding it is reported as a
    /// possible livelock.
    pub max_steps: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: Some(2),
            max_schedules: 50_000,
            random_schedules: 200,
            seed: 0x5EED_C0DE,
            weak_memory: false,
            max_steps: 50_000,
        }
    }
}

/// What one [`check`] call explored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Report {
    /// Total schedules executed (systematic + random).
    pub schedules: usize,
    /// Whether the systematic search finished — every schedule within
    /// the preemption bound was executed. `false` means the budget was
    /// hit and the tail of the state space was only sampled.
    pub exhaustive: bool,
}

/// Model-checks `body` under the default [`Config`].
///
/// See [`check_with`].
pub fn check<R, F>(body: F) -> Report
where
    F: Fn() -> R,
    R: Hash + std::fmt::Debug,
{
    check_with(Config::default(), body)
}

/// Model-checks `body`: runs it once per explored schedule and panics
/// with a diagnostic (including the failing schedule's event trail) on
/// deadlock, lost wakeup, livelock, a panic inside the body, or result
/// non-determinism across schedules.
///
/// The body must be *closed* (join every thread it spawns before
/// returning, which `thread::scope` guarantees) and deterministic up to
/// scheduling: same inputs, no ambient randomness or time. Its return
/// value is hashed and compared across schedules.
///
/// # Panics
/// On any detected violation — which is the point: `#[test]` bodies
/// wrap protocol code in `check` and let failures surface as test
/// failures carrying the interleaving that triggered them.
pub fn check_with<R, F>(config: Config, body: F) -> Report
where
    F: Fn() -> R,
    R: Hash + std::fmt::Debug,
{
    let engine = Arc::new(Engine::new(config));
    let mut first: Option<(u64, String)> = None;
    let mut schedules = 0usize;
    loop {
        engine.begin_execution();
        engine::set_current(Some((Arc::clone(&engine), 0)));
        let result = catch_unwind(AssertUnwindSafe(&body));
        engine::set_current(None);
        schedules += 1;
        match result {
            Ok(ref r) => {
                engine.finish_root();
                if let Some(failure) = engine.failure() {
                    panic!("model check failed after {schedules} schedule(s): {failure}");
                }
                let mut h = DefaultHasher::new();
                r.hash(&mut h);
                let digest = h.finish();
                match &first {
                    None => first = Some((digest, format!("{r:?}"))),
                    Some((d0, repr0)) if *d0 != digest => panic!(
                        "model check failed after {schedules} schedule(s): result \
                         non-determinism — schedule 1 returned {repr0}, this schedule \
                         returned {r:?}\n{}",
                        engine.event_trail()
                    ),
                    Some(_) => {}
                }
            }
            Err(payload) => {
                engine.root_panicked(payload);
                let failure = engine
                    .failure()
                    .unwrap_or_else(|| "panic escaped without a recorded failure".into());
                panic!("model check failed after {schedules} schedule(s): {failure}");
            }
        }
        engine.note_budget(schedules);
        if !engine.advance() {
            break;
        }
    }
    Report { schedules, exhaustive: engine.exhausted() }
}

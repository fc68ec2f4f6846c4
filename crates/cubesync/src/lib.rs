//! The workspace's single audited concurrency surface.
//!
//! Every crate in the workspace that needs a lock, a condition
//! variable, an atomic, or a thread imports it from here instead of
//! `std::sync` / `std::thread` (a CI grep gate enforces this). The
//! facade has two backends:
//!
//! * **Production** (default): pure re-exports of `std` — zero cost, no
//!   wrappers, no branches. `cubesync::sync::Mutex` *is*
//!   `std::sync::Mutex`.
//! * **Model checking** (`RUSTFLAGS="--cfg cubesync_model"`): the same
//!   names resolve to instrumented types from [`model`] that route
//!   every visible operation (lock, unlock, condvar wait/notify, atomic
//!   access, spawn, join, yield) through a deterministic user-level
//!   scheduler. [`model::check`] then runs a closed concurrent test
//!   body under *every* bounded-preemption thread interleaving (with a
//!   seeded-random fallback past a schedule budget), detecting
//!   deadlocks, lost wakeups (a condvar wait no future signal can
//!   reach), livelocks, panics on rare interleavings, and result
//!   non-determinism across schedules.
//!
//! The [`model`] module itself is compiled unconditionally — its own
//! engine tests and the seeded-mutation suite (which model-check small
//! *copies* of the repo's protocols with known bugs re-introduced) run
//! in the normal `cargo test` pass. The `--cfg cubesync_model` build is
//! only needed to re-thread the *real* `cubesim` sweep fan-out,
//! `cuberun` and `cubecomm::plan::cache` code onto the instrumented types, which
//! `crates/cubesync/tests/real_protocols.rs` does in CI's `model-check`
//! step.
//!
//! # What is modeled, and what is passed through
//!
//! Modeled under `cubesync_model`: [`sync::Mutex`], [`sync::Condvar`],
//! the [`atomic`] integer/bool types, [`thread::spawn`] /
//! [`thread::scope`] / [`thread::yield_now`] / [`thread::sleep`].
//! Passed through to `std` in *both* backends (not modeled, documented
//! here so the audit surface is explicit):
//!
//! * [`sync::Arc`] — reference counting is `std`'s problem, not a
//!   protocol under test.
//! * [`sync::OnceLock`], [`sync::Barrier`] — used only on cold setup
//!   paths (env-var parsing, the legacy thread-per-node reference
//!   runtime) that the model suite never exercises.
//! * [`channel`] — the crossbeam-shim MPSC channels of the legacy
//!   reference runtime.
//!
//! `Condvar::wait_timeout` under the model never times out: the model
//! explores schedules, not wall-clock time, so a protocol whose
//! liveness depends on a timeout backstop shows up as the deadlock it
//! really is. That is exactly the property the `cuberun` sleep protocol
//! is checked for — no lost wakeups *without* the stall-detector tick.

pub mod model;

/// Locks, guards and shared-ownership types.
///
/// `Mutex`/`Condvar`/`MutexGuard`/`WaitTimeoutResult` switch backends
/// with `--cfg cubesync_model`; `Arc`, `OnceLock`, `Barrier`,
/// `PoisonError` and `LockResult` are always `std`'s (see the crate
/// docs for why).
pub mod sync {
    pub use std::sync::{Arc, Barrier, LockResult, OnceLock, PoisonError, Weak};

    #[cfg(not(cubesync_model))]
    pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

    #[cfg(cubesync_model)]
    pub use crate::model::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
}

/// Atomic integers and the `Ordering` enum.
///
/// Under the model backend every access is a scheduling point, and
/// loads with an ordering weaker than `SeqCst` may (when the checked
/// body opts into weak-memory exploration) return stale values — see
/// [`model::Config::weak_memory`].
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    #[cfg(not(cubesync_model))]
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};

    #[cfg(cubesync_model)]
    pub use crate::model::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
}

/// Thread spawning, scoped threads, and yields.
pub mod thread {
    pub use std::thread::available_parallelism;

    #[cfg(not(cubesync_model))]
    pub use std::thread::{scope, sleep, spawn, yield_now, JoinHandle, Scope, ScopedJoinHandle};

    #[cfg(cubesync_model)]
    pub use crate::model::thread::{
        scope, sleep, spawn, yield_now, JoinHandle, Scope, ScopedJoinHandle,
    };
}

/// MPSC channels (the crossbeam-shim subset the legacy thread-per-node
/// runtime uses). Never modeled: the reference runtime exists for
/// equivalence tests, not model checking, and its correctness argument
/// is one-OS-thread-per-node blocking receives.
pub mod channel {
    pub use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
}

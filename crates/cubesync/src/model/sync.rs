//! Instrumented `Mutex` / `Condvar` for the model backend.
//!
//! Each wrapper pairs a real `std` primitive (for storage and for
//! pass-through when code runs outside a [`super::check`] body) with a
//! global object id the engine keys its protocol state on. Under a
//! check, the engine decides ownership and blocking *first* — the real
//! inner lock is then always uncontended, which is what lets these
//! types stay entirely safe Rust: the data really is protected by a real
//! `std::sync::Mutex`, the model merely forces who gets it when.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, LockResult, PoisonError};
use std::time::Duration;

use super::engine::{current, next_object_id, Engine};

/// Drop-in replacement for [`std::sync::Mutex`] whose lock ordering is
/// decided by the model engine inside a check body.
pub struct Mutex<T: ?Sized> {
    id: u64,
    inner: std::sync::Mutex<T>,
}

/// Drop-in replacement for [`std::sync::MutexGuard`]. Releases model
/// ownership (a schedule point) before the real inner guard on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    /// `None` only while a `Condvar::wait` has taken the real guard out
    /// (the defused state) — never observable to callers.
    real: Option<std::sync::MutexGuard<'a, T>>,
    ctx: Option<(Arc<Engine>, usize)>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex { id: next_object_id(), inner: std::sync::Mutex::new(value) }
    }

    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let ctx = current();
        if let Some((engine, me)) = &ctx {
            engine.mutex_lock(*me, self.id);
        }
        let real = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(MutexGuard { lock: self, real: Some(real), ctx })
    }

    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").field("id", &self.id).field("inner", &&self.inner).finish()
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard is not defused outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.real.as_mut().expect("guard is not defused outside Condvar::wait")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.real.is_none() {
            return; // defused: Condvar::wait owns the handoff
        }
        if let Some((engine, me)) = &self.ctx {
            // Model release first: the baton guarantees no other model
            // thread can contend for the real lock until our *next*
            // schedule point, long after `self.real` drops below.
            engine.mutex_unlock(*me, self.lock.id);
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Mirror of [`std::sync::WaitTimeoutResult`] (std's cannot be
/// constructed). Under the model a wait never times out — see the crate
/// docs — so `timed_out()` is only `true` on the pass-through path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(pub(crate) bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Drop-in replacement for [`std::sync::Condvar`]. Inside a check body
/// the engine parks and wakes waiters (which waiter a `notify_one`
/// reaches is an explored choice); `wait_timeout` never times out, so
/// timeout-backstopped liveness bugs surface as the deadlocks they are.
pub struct Condvar {
    id: u64,
    inner: std::sync::Condvar,
}

impl Condvar {
    pub fn new() -> Self {
        Condvar { id: next_object_id(), inner: std::sync::Condvar::new() }
    }

    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match guard.ctx.clone() {
            Some((engine, me)) => {
                let lock = guard.lock;
                // Drop the real guard now; no other model thread can
                // run until the engine call below parks us.
                drop(guard.real.take());
                drop(guard); // defused: no model release
                engine.condvar_wait(me, self.id, lock.id);
                // Model ownership is back; the real lock is free.
                let real = lock.inner.lock().unwrap_or_else(PoisonError::into_inner);
                Ok(MutexGuard { lock, real: Some(real), ctx: Some((engine, me)) })
            }
            None => {
                let lock = guard.lock;
                let real = guard.real.take().expect("guard holds the lock");
                drop(guard);
                let real = match self.inner.wait(real) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                Ok(MutexGuard { lock, real: Some(real), ctx: None })
            }
        }
    }

    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        if guard.ctx.is_some() {
            // Model: timeouts do not exist; this is a plain wait.
            let guard = match self.wait(guard) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            return Ok((guard, WaitTimeoutResult(false)));
        }
        let mut guard = guard;
        let lock = guard.lock;
        let real = guard.real.take().expect("guard holds the lock");
        drop(guard);
        let (real, timed_out) = match self.inner.wait_timeout(real, dur) {
            Ok((g, t)) => (g, t.timed_out()),
            Err(poisoned) => {
                let (g, t) = poisoned.into_inner();
                (g, t.timed_out())
            }
        };
        Ok((MutexGuard { lock, real: Some(real), ctx: None }, WaitTimeoutResult(timed_out)))
    }

    pub fn notify_one(&self) {
        match current() {
            Some((engine, me)) => engine.condvar_notify(me, self.id, false),
            None => self.inner.notify_one(),
        }
    }

    pub fn notify_all(&self) {
        match current() {
            Some((engine, me)) => engine.condvar_notify(me, self.id, true),
            None => self.inner.notify_all(),
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").field("id", &self.id).finish()
    }
}

//! The data plane both front doors share: the split of the node ids
//! into home ranges ([`Homes`]), the per-node [`Inbox`], and the lock
//! and tick helpers of the batch wait.
//!
//! Every worker owns a contiguous range of node ids — its *home* range
//! — for the whole run, the way one of the paper's real processors
//! hosts its virtual processors (the `rp` / `vp` address fields): the
//! nodes' inboxes and states are plain data of the worker's thread. No
//! node migrates and no worker touches another's nodes, so none of it
//! needs a lock. The assumption is the one the paper makes: SPMD
//! programs are symmetric, so equal ranges are equal work. A skewed
//! program is still correct, but the pool does not rebalance it.
//!
//! The executor that runs on these — one superstep loop per worker,
//! one batch per other worker per step — is [`crate::rounds`].

use cubesync::sync::{Mutex, MutexGuard, PoisonError};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Duration;

/// Locks a mutex, recovering the guard if a panicking node program
/// poisoned it (the panic itself is propagated separately; diagnostic
/// state behind the lock is still worth reading).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long a blocked worker waits between two looks at the stall
/// clock: a quarter of the stall timeout, within [10 ms, 1 s].
pub(crate) fn stall_tick(stall_timeout: Duration) -> Duration {
    (stall_timeout / 4).clamp(Duration::from_millis(10), Duration::from_secs(1))
}

/// The split of the node ids over the pool, shared by both front doors:
/// worker `w` is at home to the `w`-th contiguous range of `range` ids
/// (the last non-empty one may be shorter; trailing workers get none
/// when the ranges do not divide evenly).
#[derive(Clone, Copy)]
pub(crate) struct Homes {
    num: usize,
    /// Nodes per home range: node `x` is at home on worker `x / range`.
    range: usize,
}

impl Homes {
    pub(crate) fn new(num: usize, workers: usize) -> Self {
        Homes { num, range: num.div_ceil(workers) }
    }

    /// The node ids at home on worker `w`.
    pub(crate) fn range_of(&self, w: usize) -> Range<usize> {
        (w * self.range).min(self.num)..((w + 1) * self.range).min(self.num)
    }

    /// The worker `node` is at home on.
    pub(crate) fn worker_of(&self, node: usize) -> usize {
        node / self.range
    }

    /// Workers with a non-empty home range.
    pub(crate) fn active(&self) -> usize {
        self.num.div_ceil(self.range)
    }
}

/// Everything in flight towards one node: `(port, message)` entries in
/// arrival order, plus the port the node is parked on.
///
/// `first` is the oldest entry and `rest` the later ones (`first` is
/// `None` only when nothing is pending), so the common case of at most
/// one pending message never touches the heap. Taking the oldest entry
/// of a port is per-link FIFO, because every link has one sender.
pub(crate) struct Inbox<T> {
    first: Option<(u32, T)>,
    rest: VecDeque<(u32, T)>,
    /// The port the node's suspended `recv` awaits; cleared by the
    /// delivery on that port, which also makes the node ready. Always
    /// `None` on the round door, where no node ever suspends.
    pub(crate) parked: Option<u32>,
}

impl<T> Inbox<T> {
    pub(crate) fn new() -> Self {
        Inbox { first: None, rest: VecDeque::new(), parked: None }
    }

    /// Whether nothing is pending on any port.
    pub(crate) fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// Appends a message that arrived on `port`.
    pub(crate) fn push(&mut self, port: u32, msg: T) {
        if self.first.is_none() {
            self.first = Some((port, msg));
        } else {
            self.rest.push_back((port, msg));
        }
    }

    /// Removes the oldest message that arrived on `port`. A backlog on
    /// other ports costs one tag comparison per entry ahead of it.
    pub(crate) fn take(&mut self, port: u32) -> Option<T> {
        if matches!(self.first, Some((p, _)) if p == port) {
            let taken = std::mem::replace(&mut self.first, self.rest.pop_front());
            return taken.map(|(_, msg)| msg);
        }
        let at = self.rest.iter().position(|&(p, _)| p == port)?;
        self.rest.remove(at).map(|(_, msg)| msg)
    }
}

#[cfg(test)]
mod tests {
    use super::Inbox;

    #[test]
    fn inbox_is_fifo_per_port_and_inline_for_one_message() {
        let mut inbox = Inbox::new();
        assert_eq!(inbox.take(0), None::<&str>);
        inbox.push(3, "a0");
        assert_eq!(inbox.rest.capacity(), 0, "one pending message stays inline");
        inbox.push(5, "b0");
        inbox.push(3, "a1");
        inbox.push(5, "b1");
        assert_eq!(inbox.take(4), None);
        assert_eq!(inbox.take(5), Some("b0"));
        assert_eq!(inbox.take(5), Some("b1"));
        assert_eq!(inbox.take(5), None);
        assert_eq!(inbox.take(3), Some("a0"));
        assert_eq!(inbox.take(3), Some("a1"));
        assert!(inbox.first.is_none() && inbox.rest.is_empty());
    }
}

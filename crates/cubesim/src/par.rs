//! Scoped-thread parallel helpers for per-node data-plane work.
//!
//! Two consumers share this module: the experiment sweeps (independent
//! `(n, PQ, preset)` simulation points fanned out with [`par_map`]) and
//! the field-map data plane (per-node gather/scatter/permute loops
//! fanned out with [`par_for_each_mut`] while the central `SimNet` cost
//! accounting stays serial). The store-and-forward router
//! (`cubecomm::graph`) is deliberately not a consumer: a node's work in
//! one round is tiny next to a scoped-thread fork, and forking it once
//! per round measured 2.6–3.8× slower than the serial loop.
//!
//! Every helper returns results **in input order** and runs each item on
//! exactly one worker, so a parallel run is byte-identical to the
//! sequential one whenever the per-item work is deterministic — the
//! property the `fieldmap_equivalence` suite checks across thread counts.
//!
//! The worker count is `cubesync::thread::available_parallelism`,
//! overridable with the `CUBEBENCH_THREADS` environment variable (`1`
//! forces the sequential path; useful for timing comparisons) or,
//! scoped and thread-local, with [`with_threads`] (used by tests to pin
//! a count without mutating the process environment). A set but
//! malformed `CUBEBENCH_THREADS` (garbage, empty, or `0`) panics with
//! the offending value instead of silently falling back to one thread.
//!
//! All synchronization goes through the `cubesync` facade, so the
//! [`ClaimCursor`] claim protocol and the scoped fan-out are
//! model-checked by `crates/cubesync/tests/real_protocols.rs`.

use cubesync::atomic::{AtomicUsize, Ordering};
use cubesync::thread;
use std::cell::Cell;

thread_local! {
    /// Worker-count override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Worker threads to use for sweeps and data-plane fan-out.
///
/// # Panics
/// If `CUBEBENCH_THREADS` is set but not a positive integer — a silent
/// one-thread fallback would quietly serialize a benchmark run.
pub fn num_threads() -> usize {
    if let Some(t) = OVERRIDE.with(Cell::get) {
        return t;
    }
    match std::env::var("CUBEBENCH_THREADS") {
        Ok(v) => parse_thread_count("CUBEBENCH_THREADS", &v),
        Err(_) => thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// Strict thread-count parsing for environment overrides: anything but
/// a positive integer is a configuration error worth stopping for.
fn parse_thread_count(var: &str, raw: &str) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => panic!("{var} must be a positive integer thread count, got {raw:?}"),
    }
}

/// Runs `f` with [`num_threads`] pinned to `threads` on the current
/// thread (restored on exit, even across a panic). Nested calls shadow
/// each other; spawned workers themselves see the default count.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(threads.max(1)))));
    f()
}

/// A work-claiming cursor over the index range `0..limit`: each call to
/// [`claim`](ClaimCursor::claim) hands out the next unclaimed index
/// exactly once, across any number of threads.
///
/// This is the machinery behind [`par_map`]'s load balancing: uneven
/// item costs balance because idle workers simply claim the next index.
/// (The `cuberun` worker pool once seeded its node contexts from one;
/// its workers now own fixed ranges and claim nothing.)
pub struct ClaimCursor {
    next: AtomicUsize,
    limit: usize,
}

impl ClaimCursor {
    /// A cursor over `0..limit`.
    pub fn new(limit: usize) -> Self {
        ClaimCursor { next: AtomicUsize::new(0), limit }
    }

    /// Claims the next index, or `None` once all are handed out.
    ///
    /// The load-then-increment keeps the counter from creeping unbounded
    /// when an exhausted cursor is polled in a scheduler loop.
    pub fn claim(&self) -> Option<usize> {
        if self.next.load(Ordering::Relaxed) >= self.limit {
            return None;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.limit).then_some(i)
    }

    /// Whether every index has been handed out (racy by nature: a `false`
    /// may be stale by the time the caller acts on it).
    pub fn is_exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.limit
    }
}

/// Maps `f` over `items` on [`num_threads`] scoped threads; results come
/// back in input order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_with(num_threads(), items, f)
}

/// [`par_map`] with an explicit worker count (work-claiming through a
/// [`ClaimCursor`], so uneven item costs balance).
pub fn par_map_with<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let cursor = ClaimCursor::new(items.len());
    let mut tagged: Vec<(usize, R)> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    while let Some(i) = cursor.claim() {
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("sweep worker panicked")).collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Runs `f(index, item)` for every item, fanning contiguous chunks out
/// over [`num_threads`] scoped threads.
///
/// Unlike [`par_map`], items are mutated in place and the partition is
/// static (near-equal chunks), which fits the data-plane loops: every
/// node costs the same, so work-claiming would only add contention.
pub fn par_for_each_mut<T: Send>(items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    par_for_each_mut_with(num_threads(), items, f);
}

/// [`par_for_each_mut`] with an explicit worker count.
pub fn par_for_each_mut_with<T: Send>(
    threads: usize,
    items: &mut [T],
    f: impl Fn(usize, &mut T) + Sync,
) {
    let threads = threads.min(items.len());
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = items.len().div_ceil(threads);
    thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, block)| {
                let f = &f;
                s.spawn(move || {
                    for (k, item) in block.iter_mut().enumerate() {
                        f(ci * chunk + k, item);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("data-plane worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_cursor_hands_out_each_index_once() {
        let cursor = ClaimCursor::new(1000);
        let claims: Vec<Vec<usize>> = thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        while let Some(i) = cursor.claim() {
                            got.push(i);
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = claims.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
        assert!(cursor.is_exhausted());
        assert_eq!(cursor.claim(), None);
    }

    #[test]
    fn claim_cursor_empty_is_exhausted_immediately() {
        let cursor = ClaimCursor::new(0);
        assert!(cursor.is_exhausted());
        assert_eq!(cursor.claim(), None);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 4, 7] {
            let out = par_map_with(threads, &items, |&x| x * x);
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map_with(4, &[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map_with(4, &[9u32], |&x| x + 1), vec![10]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Early items sleep so later items finish first on real threads.
        let items: Vec<u64> = (0..16).collect();
        let out = par_map_with(4, &items, |&x| {
            if x < 4 {
                thread::sleep(std::time::Duration::from_millis(10));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn par_map_worker_panic_propagates() {
        let items: Vec<u64> = (0..8).collect();
        let _ = par_map_with(2, &items, |&x| {
            assert!(x != 5, "boom");
            x
        });
    }

    #[test]
    fn for_each_mut_sees_every_index_once() {
        for threads in [1, 2, 3, 8, 100] {
            let mut items = vec![0u64; 37];
            par_for_each_mut_with(threads, &mut items, |i, slot| *slot += i as u64 + 1);
            let expect: Vec<u64> = (1..=37).collect();
            assert_eq!(items, expect, "{threads} threads");
        }
    }

    #[test]
    fn for_each_mut_empty_is_fine() {
        let mut items: Vec<u64> = Vec::new();
        par_for_each_mut_with(4, &mut items, |_, _| unreachable!());
    }

    #[test]
    #[should_panic(expected = "data-plane worker panicked")]
    fn for_each_mut_worker_panic_propagates() {
        let mut items = vec![0u64; 8];
        par_for_each_mut_with(4, &mut items, |i, _| assert!(i != 6, "boom"));
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let ambient = num_threads();
        with_threads(3, || {
            assert_eq!(num_threads(), 3);
            with_threads(2, || assert_eq!(num_threads(), 2));
            assert_eq!(num_threads(), 3);
        });
        assert_eq!(num_threads(), ambient);
    }

    #[test]
    fn with_threads_restores_after_panic() {
        let ambient = num_threads();
        let caught = std::panic::catch_unwind(|| with_threads(7, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(num_threads(), ambient);
    }

    #[test]
    fn thread_count_parses_positive_integers() {
        assert_eq!(parse_thread_count("CUBEBENCH_THREADS", "1"), 1);
        assert_eq!(parse_thread_count("CUBEBENCH_THREADS", "16"), 16);
        assert_eq!(parse_thread_count("CUBEBENCH_THREADS", " 8 "), 8);
    }

    #[test]
    #[should_panic(
        expected = "CUBEBENCH_THREADS must be a positive integer thread count, got \"zweiundvierzig\""
    )]
    fn thread_count_rejects_garbage() {
        parse_thread_count("CUBEBENCH_THREADS", "zweiundvierzig");
    }

    #[test]
    #[should_panic(expected = "got \"0\"")]
    fn thread_count_rejects_zero() {
        parse_thread_count("CUBEBENCH_THREADS", "0");
    }

    #[test]
    #[should_panic(expected = "got \"-3\"")]
    fn thread_count_rejects_negatives() {
        parse_thread_count("CUBEBENCH_THREADS", "-3");
    }
}

//! Scoped-thread fan-out for the experiment sweeps.
//!
//! One consumer: `cubebench`'s figure sweep. `figures` fans its
//! generators out with [`par_map`], and each generator fans its
//! independent `(n, PQ, preset)` simulation points out the same way.
//! Threads exist at that one level only — *around* units of work, never
//! inside one — which is the paper's own shape: real processors run in
//! parallel and each loops serially over the virtual processors it
//! hosts. So a [`par_map`] worker runs its items with the count pinned
//! to one: a nested [`par_map`] (a generator's point grid, inside the
//! sweep over generators) is a plain loop, and T workers stay T threads
//! instead of T².
//!
//! Nothing inside a unit of work forks. The planners' per-round
//! materialization, `fieldmap`'s gather / scatter / permute loops (since
//! replaced by one composed move), `two_dim`'s rebuild and the in-place
//! kernel's passes once fanned out here too; measured on the 2-vCPU box
//! at 1 and 2 threads (four alternating `perfbench` runs a side,
//! `wall_ms`), none won:
//!
//! | workload (fan-outs it reached) | 1 thread | 2 threads |
//! | --- | --- | --- |
//! | `cm16-2d-mpt` (`two_dim::rebuild`) | 42.9 – 44.6 | 47.6 – 50.6 |
//! | `cm14-plan-cold` (planner rounds) | 43.4 – 48.2 | 46.8 – 48.6 |
//! | `ipsc6-convert-alg2` (`fieldmap`'s old loops) | 29.1 – 30.1 | 29.9 – 31.3 |
//! | `ipsc6-1d-exchange` (exchange planner) | 19.4 – 20.8 | 20.3 – 21.4 |
//! | `ipsc6-2d-spt` (`two_dim::rebuild`) | 2.37 – 2.60 | 2.31 – 2.55 |
//!
//! and because the levels multiplied, the whole `figures` run was slower
//! at two threads (193–220 ms) than at one (148–161 ms); with one level
//! it is 99–118 ms. The store-and-forward router's per-round fork had
//! already measured 2.6–3.8× slower than its serial loop.
//!
//! [`par_map`] returns results **in input order** and runs each item on
//! exactly one worker, so a parallel run is byte-identical to the
//! sequential one whenever the per-item work is deterministic — CI diffs
//! the router figures' CSVs at one thread and at the default count.
//!
//! The worker count is `cubesync::thread::available_parallelism`,
//! overridable with the `CUBEBENCH_THREADS` environment variable (`1`
//! forces the sequential path; useful for timing comparisons) or,
//! scoped and thread-local, with [`with_threads`] (how `perfbench` and
//! tests pin a count without mutating the process environment;
//! `cuberun` reads [`num_threads`] as its default pool size). A set but
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

/// Worker threads a [`par_map`] on this thread fans out over.
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
/// each other. The pin does not follow work onto other threads: a
/// [`par_map`] worker sees one, any other spawned thread the default.
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
}

/// Maps `f` over `items` on [`num_threads`] scoped threads; results come
/// back in input order. Inside `f` the count is one, so a nested
/// `par_map` runs as a plain loop on its worker.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_with(num_threads(), items, f)
}

/// [`par_map`] with an explicit worker count (work-claiming through a
/// [`ClaimCursor`], so uneven item costs balance).
fn par_map_with<T: Sync, R: Send>(
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
                    with_threads(1, || {
                        let mut out = Vec::new();
                        while let Some(i) = cursor.claim() {
                            out.push((i, f(&items[i])));
                        }
                        out
                    })
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("sweep worker panicked")).collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
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
        assert_eq!(cursor.claim(), None);
    }

    #[test]
    fn claim_cursor_empty_hands_out_nothing() {
        assert_eq!(ClaimCursor::new(0).claim(), None);
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
    fn nested_par_map_sees_one_thread_and_keeps_order() {
        let outer: Vec<u64> = (0..6).collect();
        let inner: Vec<u64> = (0..5).collect();
        let out = par_map_with(3, &outer, |&a| (num_threads(), par_map(&inner, |&b| a * 10 + b)));
        for (a, (seen, row)) in outer.iter().zip(out) {
            assert_eq!(seen, 1, "a par_map worker runs its items at count one");
            assert_eq!(row, inner.iter().map(|b| a * 10 + b).collect::<Vec<_>>());
        }
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

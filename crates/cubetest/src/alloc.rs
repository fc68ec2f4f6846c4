//! The counting global allocator of the allocation gates.
//!
//! A test binary installs it once:
//!
//! ```text
//! #[global_allocator]
//! static GLOBAL: cubetest::alloc::Counting = cubetest::alloc::Counting;
//! ```
//!
//! and then counts, per thread, every allocation ([`Count::All`]) or
//! those of at least a size ([`Count::Big`]). The two counters are
//! independent and thread-local end to end, so gates the harness runs
//! side by side cannot disturb each other, and one gate may count both.

// The workspace denies `unsafe_code` (`[workspace.lints]`); a
// `GlobalAlloc` impl cannot be written without it, so this module is
// allowlisted (scripts/ci.sh grep-gates every other file).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(allocations so far)` while this thread counts every
    /// allocation, whatever its size.
    static ALL: Cell<Option<usize>> = const { Cell::new(None) };
    /// `Some((threshold, seen))` while this thread counts its
    /// allocations of at least `threshold` bytes.
    static BIG: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// [`System`], counting the allocations of threads that armed a
/// [`Count`].
pub struct Counting;

// SAFETY: defers every allocation verbatim to `System`; the only
// addition is a side-effect-free counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: thread-local storage may itself allocate during
        // thread teardown.
        let _ = BIG.try_with(|b| {
            if let Some((threshold, seen)) = b.get() {
                b.set(Some((threshold, seen + (layout.size() >= threshold) as usize)));
            }
        });
        let _ = ALL.try_with(|c| c.set(c.get().map(|seen| seen + 1)));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// One of this thread's two counters.
#[derive(Clone, Copy, Debug)]
pub enum Count {
    /// Every allocation.
    All,
    /// Allocations of at least this many bytes.
    Big(usize),
}

impl Count {
    /// `f`'s value and the allocations it made on this thread, counted
    /// from zero.
    pub fn around<T>(self, f: impl FnOnce() -> T) -> (T, usize) {
        match self {
            Count::All => ALL.with(|c| c.set(Some(0))),
            Count::Big(threshold) => BIG.with(|b| b.set(Some((threshold, 0)))),
        }
        let out = f();
        let seen = match self {
            Count::All => ALL.with(Cell::take),
            Count::Big(_) => BIG.with(Cell::take).map(|(_, seen)| seen),
        };
        (out, seen.expect("counting was on"))
    }

    /// Starts counting on this thread from zero, unless it already
    /// counts — the arming a node program does on a worker thread.
    pub fn start(self) {
        match self {
            Count::All => ALL.with(|c| c.set(c.get().or(Some(0)))),
            Count::Big(threshold) => BIG.with(|b| b.set(b.get().or(Some((threshold, 0))))),
        }
    }

    /// The allocations counted on this thread so far; 0 while it does
    /// not count.
    pub fn so_far(self) -> usize {
        match self {
            Count::All => ALL.with(Cell::get).unwrap_or(0),
            Count::Big(_) => BIG.with(Cell::get).map_or(0, |(_, seen)| seen),
        }
    }
}

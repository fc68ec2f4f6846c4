//! Performance smoke for the in-place C2R transpose kernel: at a
//! vp ≥ 20 local-block shape, the in-place path must not be slower than
//! the scratch gather path it replaces (the `PermPlan::Gather`-style
//! full relocation through a staging buffer). Ignored by default;
//! `scripts/ci.sh` runs it in release mode with `--ignored`.

use cubetranspose::inplace;
use std::time::{Duration, Instant};

/// Best-of-`reps` wall time of `f` (the minimum filters scheduler noise).
fn best_of(reps: usize, mut f: impl FnMut()) -> Duration {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .expect("reps > 0")
}

#[test]
#[ignore = "perf smoke; run in release via scripts/ci.sh"]
fn inplace_no_slower_than_scratch_gather() {
    // vp = 20: a 2^10 x 2^10 u64 local block (8 MiB) — the engine's
    // canonical a = vp/2 local-transpose rotation — realized two ways.
    // Both run serially: the per-node reality inside the engine's
    // node-parallel fan-out.
    let (rows, cols) = (1usize << 10, 1usize << 10);
    let data: Vec<u64> = (0..(rows * cols) as u64).collect();

    // Scratch gather path: one shared relocation table (built outside
    // the timed region, as PermPlan is), applied through a full-size
    // staging buffer per call.
    let table: Vec<u32> = {
        let mut t = Vec::with_capacity(rows * cols);
        for c in 0..cols {
            for r in 0..rows {
                t.push((r * cols + c) as u32);
            }
        }
        t
    };
    let mut src = data.clone();
    let mut staging: Vec<u64> = Vec::with_capacity(rows * cols);
    let gather = best_of(3, || {
        staging.clear();
        staging.extend(table.iter().map(|&g| src[g as usize]));
        std::mem::swap(&mut src, &mut staging);
    });

    let mut buf = data.clone();
    let inplace_t = best_of(3, || {
        inplace::transpose(&mut buf, rows, cols);
        inplace::transpose(&mut buf, cols, rows);
    });
    // The in-place timing covers TWO transposes (there and back, so every
    // rep starts from the same layout); halve it for the per-call figure.
    let inplace_t = inplace_t / 2;

    // Correctness cross-check of what was just timed.
    assert_eq!(buf, data, "in-place roundtrip corrupted the buffer");

    assert!(
        inplace_t <= gather,
        "in-place transpose ({inplace_t:?}) slower than scratch gather ({gather:?}) \
         at {rows}x{cols}"
    );
}

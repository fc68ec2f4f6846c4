//! Time-bounded performance smokes for the virtual-node SPMD scheduler.
//!
//! Three gates, all ignored by default so ordinary debug test runs stay
//! fast; `scripts/ci.sh` runs them in release mode with `--ignored`:
//!
//! * `n12_spmd_transpose_completes_within_bound` — the full n = 12
//!   exchange transpose (4096 virtual nodes) under a generous wall-clock
//!   bound, catching an order-of-magnitude scheduler regression (e.g. a
//!   return to busy-waiting receives).
//! * `n16_virtual_nodes_full_transpose` — the paper's Connection-Machine
//!   scale: a complete transpose across 65 536 virtual nodes, run on 1,
//!   2 and 5 workers, with byte-identical results at every pool size and
//!   every context provably live at once.
//! * `n10_spmd_spt_matches_the_simulator` — the round door's SPT
//!   transpose on 1024 virtual nodes equals the simulator's; CI's
//!   timeout catches a schedule rebuilt per node and step, whose work
//!   grows with the square of the node count.

use boolcube::layout::{Assignment, Encoding, Layout};
use boolcube::run::with_workers;
use boolcube::sim::{MachineParams, PortMode, SimNet};
use boolcube::transpose::spmd::{spmd_transpose_exchange, spmd_transpose_spt};
use boolcube::transpose::two_dim::transpose_spt;
use boolcube::transpose::verify::{assert_transposed, labels};
use std::time::{Duration, Instant};

#[test]
#[ignore = "perf smoke; run in release via scripts/ci.sh"]
fn n12_spmd_transpose_completes_within_bound() {
    // 2^6 x 2^6 matrix on a 12-cube: one element per node.
    let before = Layout::square(6, 6, 6, Assignment::Consecutive, Encoding::Binary);
    let after = before.swapped_shape();
    let m = labels(before.clone());

    let start = Instant::now();
    let (out, stats) = spmd_transpose_exchange(&m, &after);
    let elapsed = start.elapsed();

    assert_transposed(&before, &out);
    assert_eq!(stats.messages, 4096 * 12);
    // Well under a second on a modest core; the bound only catches
    // order-of-magnitude regressions, not scheduler jitter.
    assert!(elapsed < Duration::from_secs(60), "n=12 SPMD transpose took {elapsed:?}");
}

#[test]
#[ignore = "perf smoke; run in release via scripts/ci.sh"]
fn n16_virtual_nodes_full_transpose() {
    // 2^8 x 2^8 matrix on a 16-cube: 65 536 virtual nodes, one element
    // each — the configuration the thread-per-node runtime could never
    // reach (it refuses past n = 10).
    let before = Layout::square(8, 8, 8, Assignment::Consecutive, Encoding::Binary);
    let after = before.swapped_shape();
    let m = labels(before.clone());
    let num = 1u64 << 16;

    let runs: Vec<_> = [1usize, 2, 5]
        .iter()
        .map(|&w| {
            let start = Instant::now();
            let (out, stats) = with_workers(w, || spmd_transpose_exchange(&m, &after));
            let elapsed = start.elapsed();
            assert!(elapsed < Duration::from_secs(120), "n=16 on {w} workers took {elapsed:?}");
            (w, out, stats)
        })
        .collect();

    for (w, out, stats) in &runs {
        // Byte-identical results at every pool size.
        assert_eq!(out, &runs[0].1, "results diverge at {w} workers");
        assert_eq!(stats.messages, num * 16);
        assert_eq!(stats.workers, *w);
        // The exchange chain links every pair of nodes transitively, so
        // no node can finish before all have started: the scheduler
        // really held 2^16 live contexts.
        assert_eq!(stats.peak_live as u64, num, "at {w} workers");
    }
    // Element placement is the transpose (each label lands at its
    // transposed coordinate), matching the simulator semantics the n=12
    // stress test cross-checks directly.
    assert_transposed(&before, &runs[0].1);
}

#[test]
#[ignore = "perf smoke; run in release via scripts/ci.sh"]
fn n10_spmd_spt_matches_the_simulator() {
    // 2^6 x 2^6 matrix on a 10-cube: 1024 virtual nodes, four elements
    // each, every off-diagonal array relayed along its SPT path.
    let before = Layout::square(6, 6, 5, Assignment::Consecutive, Encoding::Binary);
    let after = before.swapped_shape();
    let m = labels(before.clone());
    let (out, _) = spmd_transpose_spt(&m, &after);
    let mut net = SimNet::new(10, MachineParams::unit(PortMode::AllPorts));
    assert_eq!(out, transpose_spt(&m, &after, &mut net, before.elems_per_node()));
    assert_transposed(&before, &out);
}

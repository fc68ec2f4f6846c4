//! SPMD transpose on the virtual-node runtime: run the paper's exchange
//! transposition with real message passing at several cube sizes — up to
//! n = 16, the full 65 536-node Connection-Machine configuration — and
//! print the run statistics. The exchange has a fixed round schedule,
//! so it goes through `cuberun`'s round door: every worker loops over
//! the nodes it hosts, and what parks is a worker waiting for the
//! others' batches, not a node — at most once a round, and only in a
//! round whose exchange pairs straddle two workers' nodes.
//!
//! Run with `cargo run --release --example spmd_transpose`.
//! The pool size is the ambient `cubesim::par` thread count
//! (`CUBEBENCH_THREADS`); results are byte-identical at any size.

use boolcube::layout::{Assignment, Encoding, Layout};
use boolcube::run::num_workers;
use boolcube::transpose::spmd::spmd_transpose_exchange;
use boolcube::transpose::verify::{assert_transposed, labels};
use std::time::Instant;

fn main() {
    println!("worker pool: {} worker(s)\n", num_workers());

    for half in [4u32, 6, 8] {
        let n = 2 * half;
        let before = Layout::square(half, half, half, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        let m = labels(before.clone());

        let start = Instant::now();
        let (out, stats) = spmd_transpose_exchange(&m, &after);
        let elapsed = start.elapsed();
        assert_transposed(&before, &out);

        println!(
            "n = {n:2}: {:>6} virtual nodes, {:>8} messages, {elapsed:>10.2?}",
            before.num_nodes(),
            stats.messages
        );
        println!(
            "        live node states {:>6}, worker parks {:>4}, wakes {:>4}\n",
            stats.peak_live, stats.parks, stats.wakes
        );
    }
}

//! Concurrency stress for the SPMD runtime: thousands of virtual nodes
//! per worker, repeated runs, collective composition, and pool-size
//! independence. These tests exist to shake out ordering assumptions in
//! the scheduler's park/wake machinery — they must pass under arbitrary
//! worker interleavings and at any pool size.

use boolcube::layout::{Assignment, Direction, DistMatrix, Encoding, Layout};
use boolcube::run::{run_spmd, with_workers};
use boolcube::transpose::spmd::spmd_transpose_exchange;
use cubeaddr::NodeId;
use proptest::prelude::*;

/// 64 virtual nodes, repeated transposes: results must be identical each
/// time.
#[test]
fn sixty_four_nodes_repeated_transposes() {
    let before =
        Layout::one_dim(6, 6, Direction::Rows, 6, Assignment::Consecutive, Encoding::Binary);
    let after =
        Layout::one_dim(6, 6, Direction::Rows, 6, Assignment::Consecutive, Encoding::Binary);
    let m = DistMatrix::from_fn(before.clone(), |u, v| (u << 6) | v);
    let (first, stats) = spmd_transpose_exchange(&m, &after);
    assert_eq!(stats.messages, 64 * 6);
    for _ in 0..5 {
        let (again, _) = spmd_transpose_exchange(&m, &after);
        assert_eq!(again, first);
    }
    // And the content is the transpose.
    boolcube::transpose::verify::assert_transposed(&before, &first);
}

/// Collectives compose within one node program: broadcast a seed along
/// a spanning binomial tree, local work, then sum the checksum by
/// exchanging partial sums across every dimension.
#[test]
fn collective_composition_under_contention() {
    for _ in 0..10 {
        let (results, _) = run_spmd(5, |ctx| async move {
            // Node 7 is the root; after step d every node whose relative
            // address is below 2^(d+1) holds the seed.
            let rel = ctx.id().bits() ^ 7;
            let mut seed = (rel == 0).then_some(13u64);
            for d in 0..ctx.n() {
                match rel >> d {
                    0 => ctx.send(d, seed),
                    1 => seed = ctx.recv(d).await,
                    _ => {}
                }
            }
            // The channel type is Option<u64>, so the scan runs on it.
            let mut sum = seed.expect("the broadcast reached this node") * ctx.id().bits();
            for d in 0..ctx.n() {
                sum += ctx.exchange(d, Some(sum)).await.expect("a partial sum");
            }
            sum
        });
        let want: u64 = (0..32u64).map(|x| 13 * x).sum();
        assert!(results.iter().all(|&r| r == want));
    }
}

/// An all-to-all personalized exchange (§3.2, dimensions descending) on
/// the full 64-node cube with uneven payloads: each message carries
/// `(origin, dest, payload)` triples.
#[test]
fn all_to_all_uneven_payloads() {
    let (results, _) = run_spmd(6, |ctx| async move {
        let me = ctx.id().bits();
        let mut held: Vec<(u64, u64, Vec<u64>)> = (0..ctx.num_nodes() as u64)
            .map(|d| (me, d, (0..(me + d) % 5).map(|i| me * 10_000 + d * 100 + i).collect()))
            .collect();
        for j in (0..ctx.n()).rev() {
            let (keep, send): (Vec<_>, Vec<_>) =
                held.into_iter().partition(|&(_, d, _)| ((d ^ me) >> j) & 1 == 0);
            held = keep;
            held.extend(ctx.exchange(j, send).await);
        }
        held.sort_by_key(|&(s, _, _)| s);
        held
    });
    for (d, got) in results.iter().enumerate() {
        assert_eq!(got.len(), 64, "node {d} holds one block per source");
        for (s, (origin, dest, block)) in got.iter().enumerate() {
            assert_eq!((*origin, *dest), (s as u64, d as u64));
            let want: Vec<u64> = (0..(s as u64 + d as u64) % 5)
                .map(|i| s as u64 * 10_000 + d as u64 * 100 + i)
                .collect();
            assert_eq!(block, &want, "block {s} → {d}");
        }
    }
}

/// Gather along a reversed spanning binomial tree under repeated roots:
/// no stale messages leak between runs.
#[test]
fn gather_no_cross_run_leakage() {
    for round in 0..8u64 {
        let root = NodeId(round % 16);
        let (results, _) = run_spmd(4, move |ctx| async move {
            let rel = ctx.id().bits() ^ root.bits();
            let mut held = vec![(ctx.id().bits(), ctx.id().bits() + round * 1000)];
            // The upper half of each relative subcube folds into the lower.
            for j in (0..ctx.n()).rev() {
                match rel >> j {
                    0 => held.extend(ctx.recv(j).await),
                    1 => ctx.send(j, std::mem::take(&mut held)),
                    _ => {}
                }
            }
            held.sort_unstable();
            held.into_iter().map(|(_, v)| v).collect::<Vec<u64>>()
        });
        let want: Vec<u64> = (0..16).map(|x| x + round * 1000).collect();
        assert_eq!(results[root.index()], want);
        assert!(results.iter().enumerate().all(|(x, r)| x == root.index() || r.is_empty()));
    }
}

/// The SPMD transpose and the simulator agree at n = 12 (4096 virtual
/// nodes on a handful of workers): element placement is identical.
#[test]
fn spmd_matches_simulator_n12() {
    let before = Layout::square(6, 6, 6, Assignment::Consecutive, Encoding::Binary);
    let after = before.swapped_shape();
    let m = DistMatrix::from_fn(before.clone(), |u, v| (u << 6) | v);
    let (out, stats) = spmd_transpose_exchange(&m, &after);
    assert_eq!(stats.messages, 4096 * 12);
    boolcube::transpose::verify::assert_transposed(&before, &out);

    let mut net = boolcube::sim::SimNet::new(
        12,
        boolcube::sim::MachineParams::unit(boolcube::sim::PortMode::OnePort),
    );
    let sim = boolcube::transpose::one_dim::transpose_1d_exchange(
        &m,
        &after,
        &mut net,
        boolcube::comm::BufferPolicy::Ideal,
    );
    assert_eq!(out, sim);
}

/// All 65 536 virtual nodes of an n = 16 cube run to completion on the
/// ambient worker pool: every node exchanges with its dimension-0
/// neighbor and the full result vector comes back in node order. (The
/// full n = 16 transpose runs in the release-mode CI perf smoke.)
#[test]
fn n16_every_node_runs() {
    let (results, stats) =
        run_spmd(16, |ctx| async move { ctx.exchange(0, ctx.id().bits()).await });
    assert_eq!(results.len(), 1 << 16);
    assert_eq!(stats.messages, 1 << 16);
    for (x, &got) in results.iter().enumerate() {
        assert_eq!(got, (x ^ 1) as u64, "node {x}");
    }
    assert!(stats.peak_live >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pool-size independence: the same transpose on 1, 2 and 5 workers
    /// produces byte-identical matrices and identical message counts —
    /// scheduling decides *when* a node runs, never *what* it computes.
    #[test]
    fn pool_size_does_not_change_results(half in 2u32..=4, seed in 0u64..1_000_000) {
        let before = Layout::square(half, half, half, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        let m = DistMatrix::from_fn(before.clone(), |u, v| (u << 8) ^ v ^ seed);
        let runs: Vec<_> = [1usize, 2, 5]
            .iter()
            .map(|&w| with_workers(w, || spmd_transpose_exchange(&m, &after)))
            .collect();
        for (out, stats) in &runs[1..] {
            prop_assert_eq!(out, &runs[0].0);
            prop_assert_eq!(stats.messages, runs[0].1.messages);
        }
        prop_assert_eq!(runs[2].1.workers, 5);
        // Correctness of the content: transposing back returns the original.
        let (back, _) = spmd_transpose_exchange(&runs[0].0, &before);
        prop_assert_eq!(&back, &m);
    }
}

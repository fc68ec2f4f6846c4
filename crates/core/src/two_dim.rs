//! Two-dimensional-partitioning transposes (§6.1): SPT, DPT and MPT.
//!
//! With the same assignment scheme and the same number of processor
//! dimensions for rows and columns (`n_r = n_c = n/2`), the transpose is
//! communication between distinct source/destination pairs: node
//! `x = (x_r ‖ x_c)` sends its entire local array to `tr(x) = (x_c ‖ x_r)`
//! at Hamming distance `2H(x)`, `H(x) = Hamming(x_r, x_c)`.
//!
//! * **SPT** (Single Path Transpose): one pipelined path per node, the
//!   dimensions routed highest-to-lowest in (row, column) pairs; paths of
//!   different nodes are edge-disjoint, so packets flow every cycle.
//! * **DPT** (Dual Paths): a second path with each (row, column) pair
//!   reversed carries half the data; both paths of all nodes remain
//!   edge-disjoint.
//! * **MPT** (Multiple Paths): `2H(x)` edge-disjoint paths per node —
//!   the rotations of the SPT dimension sequence and their pair-reversed
//!   mirrors. Nodes in the same `~s` equivalence class share edges but in
//!   different cycles ((2, 2H)-disjoint, Lemma 14); different classes are
//!   fully edge-disjoint (Lemma 13). Data goes out in `4kH(x)` packets,
//!   two per path every `2H(x)` cycles, finishing in `2kH(x) + 1` cycles.
//!
//! The simulator enforces the edge-disjointness claims at runtime: any
//! two packets on one directed link in the same round abort the run.
//!
//! All three build one *flight plan* (`crate::flight`) and run it on the
//! simulator's flight executor; SPT's also runs on `cuberun`'s round door
//! ([`crate::spmd::spmd_transpose_spt`]). A flight is a packet's element
//! count, injection cycle and path; every path a packet rides is written
//! once, by the allocation-free construction behind [`mpt_path`], straight
//! into one byte arena — at the paper's CM size nothing is allocated per
//! path and an unused path is never written. MPT's plan is fixed in
//! advance, so its flights and arena are sized exactly before the first
//! is written. A plan is as long as its last delivery.
//!
//! Each source's packets, in ascending offsets, are one run of the plan
//! and of its ledger, and the runs are in source order. `rebuild` walks
//! both once, in that order, with one cursor: it checks that `s`'s run
//! landed at `tr(s)` and covers its array, then writes `tr(s)`'s output
//! once — the local step of §6.1, the transpose of that array, read from
//! the input into an output allocated up front in destination order on
//! the simulator, and done in place in what travelled on the round door.
//! A flight the walk leaves over is out of source order, and refused.

use crate::flight::{run_flights, FlightPlan, Landing, PathRef};
use cubeaddr::NodeId;
use cubelayout::{CommPattern, DistMatrix, Layout, TransposeSpec};
use cubesim::{Payload, SimNet};
use std::borrow::Cow;

/// A pipelined packet: a slice of the source node's local array.
///
/// No mover builds one: the transposes charge their packets to the net
/// and write each output array once, so this type survives only as the
/// payload type of the nets they take, which callers name. It goes when
/// `SimNet` loses its payload type.
#[derive(Clone, Debug, Default)]
pub struct Packet<T> {
    /// Position of the slice in the source local array.
    pub offset: usize,
    /// The elements.
    pub data: Vec<T>,
}

impl<T> Payload for Packet<T> {
    fn elems(&self) -> usize {
        self.data.len()
    }
}

/// `tr(x) = (x_c ‖ x_r)` for an `n`-cube with `half = n/2` row and column
/// dimensions.
pub fn tr(x: u64, half: u32) -> u64 {
    let (r, c) = cubeaddr::split(x, half);
    cubeaddr::concat(c, r, half)
}

/// `H(x) = Hamming(x_r, x_c)`: half the distance from `x` to `tr(x)`.
pub fn h_of(x: u64, half: u32) -> u32 {
    let (r, c) = cubeaddr::split(x, half);
    cubeaddr::hamming(r, c)
}

/// Hands `push` the dimensions of path `p ∈ {0, …, 2H(x)-1}` from `x` to
/// `tr(x)` (§6.1.3), in routing order, without allocating — the one path
/// construction behind [`mpt_path`], [`spt_path`] and the flight plans.
///
/// With `β_{H-1} > … > β_0` the set bits of `x_r ⊕ x_c` and
/// `α_k = β_k + half`: path `p < H` routes the pairs `(α_k, β_k)` for
/// `k = p-1, p-2, …` (cyclically, so path 0 starts at the highest
/// differing dimension); path `H + j` is path `j` with every pair
/// reversed. A diagonal node (`H = 0`) has no path.
fn write_path(x: u64, half: u32, p: u32, mut push: impl FnMut(u32)) {
    let (r, c) = cubeaddr::split(x, half);
    let diff = r ^ c;
    let h = diff.count_ones();
    if h == 0 {
        return;
    }
    assert!(p < 2 * h, "path {p} out of range for H = {h}");
    let (j, row_first) = if p < h { (p, true) } else { (p - h, false) };
    // k runs from j-1 down to 0, then from H-1 down to j: the set bits
    // below β_j, then those from β_j up, each highest first.
    let mut high = diff;
    for _ in 0..j {
        high &= high - 1;
    }
    for mut bits in [diff ^ high, high] {
        while bits != 0 {
            let b = 63 - bits.leading_zeros();
            bits ^= 1 << b;
            let (first, second) = if row_first { (b + half, b) } else { (b, b + half) };
            push(first);
            push(second);
        }
    }
}

/// Path `p ∈ {0, …, 2H(x)-1}` from `x` to `tr(x)` (§6.1.3): the sequence
/// of dimensions routed. Path 0 is the SPT path; paths 0 and `H(x)` are
/// the DPT pair.
pub fn mpt_path(x: u64, half: u32, p: u32) -> Vec<u32> {
    let mut dims = Vec::with_capacity(2 * h_of(x, half) as usize);
    write_path(x, half, p, |d| dims.push(d));
    dims
}

/// The SPT path of `x`: highest-to-lowest (row, column) dimension pairs.
pub fn spt_path(x: u64, half: u32) -> Vec<u32> {
    mpt_path(x, half, 0)
}

impl FlightPlan {
    /// Writes path `p` of node `x` into the arena.
    fn tr_path(&mut self, x: u64, half: u32, p: u32) -> PathRef {
        let start = self.arena.len();
        write_path(x, half, p, |d| self.arena.push(d as u8));
        self.path_from(start)
    }

    /// Adds the flights carrying `len` elements in packets of at most `b`
    /// elements, injected one per cycle along `path`.
    fn pipeline(&mut self, x: u64, path: PathRef, len: usize, b: usize) {
        assert!(b > 0);
        for (i, start) in (0..len).step_by(b).enumerate() {
            self.fly(NodeId(x), path, i, b.min(len - start));
        }
    }
}

/// Shared validation and setup: the spec must be a pairwise exchange with
/// node map `tr`, and `n` even. The node map is built once: a spec with
/// none, or with the identity map, is refused by its classification.
#[track_caller]
fn check_pairwise(spec: &TransposeSpec) -> u32 {
    let n = spec.before.n();
    assert!(n >= 2 && n.is_multiple_of(2), "need an even cube dimension, got {n}");
    assert_eq!(
        spec.before.n_r(),
        spec.before.n_c(),
        "SPT/DPT/MPT need equally many row and column processor dimensions"
    );
    let map = spec.node_map().filter(|map| map.iter().enumerate().any(|(x, d)| d.index() != x));
    let Some(map) = map else {
        assert_eq!(
            spec.classify(),
            CommPattern::PairwiseExchange,
            "layouts do not induce a pairwise exchange"
        );
        unreachable!("a spec whose node map moves a node is a pairwise exchange");
    };
    let half = n / 2;
    for (x, &d) in map.iter().enumerate() {
        assert_eq!(
            d.bits(),
            tr(x as u64, half),
            "node map is not tr(x); use the generic exchange driver instead"
        );
    }
    half
}

/// Rebuilds the output matrix from what the substrate landed, walking the
/// plan and its ledger once, in source order, with one cursor: source
/// `s`'s run of packets must have landed at `d = tr(s)` and add up to the
/// whole array, which is then transposed (the local step of §6.1) into
/// `d`'s output — exactly `after`'s storage order. A flight left over
/// after the walk is out of source order and refused, named; after it, a
/// run that does not add up is refused, naming its source.
fn rebuild<T: Copy>(
    spec: &TransposeSpec,
    plan: &FlightPlan,
    mut landing: Landing<'_, T>,
    half: u32,
) -> DistMatrix<T> {
    let before = &spec.before;
    let num = before.num_nodes();
    let per = before.elems_per_node();
    let (rows, cols) = (before.local_rows(), before.local_cols());
    // Copies go into outputs allocated up front, in destination order;
    // an array the landing owns (the round door's) is moved instead.
    let carries = landing.carries();
    let mut buffers: Vec<Vec<T>> =
        (0..num).map(|_| if carries { Vec::new() } else { Vec::with_capacity(per) }).collect();
    let (mut cursor, mut short) = (0, None);
    for src in 0..num {
        let dst = tr(src as u64, half) as usize;
        let (run, mut offset) = (cursor, 0);
        while let Some(f) = plan.flights.get(cursor).filter(|f| f.src.index() == src) {
            let at = landing.ledger[cursor];
            assert!(
                at.index() == dst && src != dst,
                "src {src} -> dst {dst}: packet at offset {offset} landed at node {at}"
            );
            offset += f.elems;
            cursor += 1;
        }
        // Diagonal node (H = 0): its own array, nothing travels.
        if offset != per && (offset != 0 || src != dst) {
            short.get_or_insert((src, dst, offset));
            continue;
        }
        match landing.array(NodeId(src as u64), run..cursor) {
            Cow::Borrowed(arr) if !carries => {
                crate::local::transpose_into(arr, rows, cols, &mut buffers[dst]);
            }
            arr => buffers[dst] = crate::local::transposed(arr, rows, cols),
        }
    }
    if let Some(f) = plan.flights.get(cursor) {
        panic!("flight {cursor} from {}: out of source order", f.src);
    }
    if let Some((src, dst, offset)) = short {
        panic!("src {src} -> dst {dst}: packets deliver {offset} of {per} elements at node {dst}");
    }
    DistMatrix::from_buffers(spec.after.clone(), buffers)
}

/// Single Path Transpose (§6.1.1): pipelined packets of size `b` along
/// one edge-disjoint path per node. Total routing steps
/// `⌈(PQ/N)/b⌉ + n - 1`.
pub fn transpose_spt<T: Copy + Default + Send + Sync>(
    m: &DistMatrix<T>,
    after: &Layout,
    net: &mut SimNet<Packet<T>>,
    b: usize,
) -> DistMatrix<T> {
    spt(m, after, b, |plan| Landing::charged(run_flights(net, plan), m))
}

/// SPT on either substrate: one path per off-diagonal node, packets of at
/// most `b` elements, the plan run by `run`.
pub(crate) fn spt<'m, T: Copy>(
    m: &'m DistMatrix<T>,
    after: &Layout,
    b: usize,
    run: impl FnOnce(&FlightPlan) -> Landing<'m, T>,
) -> DistMatrix<T> {
    let spec = TransposeSpec::with_after(m.layout().clone(), after.clone());
    let half = check_pairwise(&spec);
    let mut plan = FlightPlan::new(0);
    for x in 0..spec.before.num_nodes() as u64 {
        if h_of(x, half) == 0 {
            continue;
        }
        let path = plan.tr_path(x, half, 0);
        plan.pipeline(x, path, m.node(NodeId(x)).len(), b);
    }
    plan.fit_rounds();
    rebuild(&spec, &plan, run(&plan), half)
}

/// The iPSC step-by-step SPT (§8.2.1): the whole local array as a single
/// message per routing step (fragmented into `B_m` packets by the cost
/// model), plus the two local rearrangement copies.
pub fn transpose_spt_stepwise<T: Copy + Default + Send + Sync>(
    m: &DistMatrix<T>,
    after: &Layout,
    net: &mut SimNet<Packet<T>>,
) -> DistMatrix<T> {
    let per = m.layout().elems_per_node();
    // Pre-send rearrangement of the 2D local array into a 1D buffer.
    for x in 0..m.layout().num_nodes() as u64 {
        net.local_copy(NodeId(x), per);
    }
    let out = transpose_spt(m, after, net, per);
    // Post-receive rearrangement.
    for x in 0..m.layout().num_nodes() as u64 {
        net.local_copy(NodeId(x), per);
    }
    net.finish_round();
    out
}

/// Dual Paths Transpose (§6.1.2): the data split in two halves pipelined
/// over the SPT path and its pair-reversed mirror.
pub fn transpose_dpt<T: Copy + Default + Send + Sync>(
    m: &DistMatrix<T>,
    after: &Layout,
    net: &mut SimNet<Packet<T>>,
    b: usize,
) -> DistMatrix<T> {
    let spec = TransposeSpec::with_after(m.layout().clone(), after.clone());
    let half = check_pairwise(&spec);
    let mut plan = FlightPlan::new(0);
    for x in 0..spec.before.num_nodes() as u64 {
        let h = h_of(x, half);
        if h == 0 {
            continue;
        }
        let len = m.node(NodeId(x)).len();
        for (path_id, part) in [(0u32, len / 2), (h, len - len / 2)] {
            let path = plan.tr_path(x, half, path_id);
            plan.pipeline(x, path, part, b);
        }
    }
    plan.fit_rounds();
    rebuild(&spec, &plan, Landing::charged(run_flights(net, &plan), m), half)
}

/// Multiple Paths Transpose (§6.1.3): `4kH(x)` packets over the `2H(x)`
/// edge-disjoint paths, two per path every `2H(x)` cycles; completes in
/// `2kH(x) + 1` cycles per class.
///
/// ```
/// use cubelayout::{Assignment, Encoding, Layout};
/// use cubesim::{MachineParams, PortMode, SimNet};
/// use cubetranspose::{transpose_mpt, two_dim::Packet, verify};
///
/// let before = Layout::square(4, 4, 2, Assignment::Consecutive, Encoding::Binary);
/// let after = before.swapped_shape();
/// let matrix = verify::labels(before.clone());
/// let mut net: SimNet<Packet<u64>> =
///     SimNet::new(4, MachineParams::unit(PortMode::AllPorts));
/// let out = transpose_mpt(&matrix, &after, &mut net, 1);
/// verify::assert_transposed(&before, &out);
/// assert_eq!(net.finalize().rounds, 5); // 2·k·(n/2) + 1
/// ```
pub fn transpose_mpt<T: Copy + Default + Send + Sync>(
    m: &DistMatrix<T>,
    after: &Layout,
    net: &mut SimNet<Packet<T>>,
    k: u32,
) -> DistMatrix<T> {
    assert!(k >= 1);
    let spec = TransposeSpec::with_after(m.layout().clone(), after.clone());
    let half = check_pairwise(&spec);
    let plan = mpt_plan(m, half, k);
    rebuild(&spec, &plan, Landing::charged(run_flights(net, &plan), m), half)
}

/// The MPT flight plan: node `x`'s array cut into `4·k_H·H(x)` near-equal
/// packets (sizes differing by at most one, the longer ones first), packet
/// `idx` on path `idx mod 2H`. Empty packets — and the paths only they
/// would ride — are never materialized. The flights and the arena are
/// sized exactly before the first is written.
fn mpt_plan<T: Copy>(m: &DistMatrix<T>, half: u32, k: u32) -> FlightPlan {
    let (num, len) = (m.layout().num_nodes() as u64, m.layout().elems_per_node());
    // A class H(x) = h: its 2H paths and its packets, with their base size
    // and how many are one longer. Classes with small H split into more
    // bursts so every class's packet size stays near PQ/(4·k·(n/2)·N) and
    // all classes finish within 2·k·(n/2) + 1 cycles (the paper's
    // ⌊(n/2)/H⌋·4H packets).
    let class = |h: u32| {
        let k_h = (k * half / h).max(1);
        let n_paths = 2 * h as usize;
        let n_packets = 2 * k_h as usize * n_paths;
        (n_paths, n_packets, len / n_packets, len % n_packets)
    };
    let classes: Vec<_> = (1..=half).map(class).collect();
    // The first min(n_packets, len) packets are the non-empty ones, and
    // they ride the first min(n_paths, ·) paths, 2H bytes each.
    let mut nodes_in = vec![0usize; half as usize + 1];
    for x in 0..num {
        nodes_in[h_of(x, half) as usize] += 1;
    }
    let (mut flights, mut arena) = (0, 0);
    for (&nodes, &(n_paths, n_packets, ..)) in nodes_in[1..].iter().zip(&classes) {
        flights += nodes * n_packets.min(len);
        arena += nodes * n_packets.min(len).min(n_paths) * n_paths;
    }
    let mut plan = FlightPlan::with_capacity(0, flights, arena);
    for x in 0..num {
        let h = h_of(x, half);
        if h == 0 {
            continue;
        }
        let (n_paths, n_packets, base, extra) = classes[h as usize - 1];
        // A path's first packet is the longest it ever carries, so the
        // first pass over the paths (o = 0) writes every path in use, path
        // p at `first + p·2H`.
        let first = plan.arena.len() as u32;
        'packets: for o in 0..n_packets / n_paths {
            for p in 0..n_paths {
                let take = base + usize::from(o * n_paths + p < extra);
                if take == 0 {
                    break 'packets;
                }
                // Packet ordinal o on path p: o-th of the path's 2·k_h
                // packets, injected at cycle 2H·(o/2) + (o mod 2) — two
                // packets per path every 2H cycles, the (2, 2H)-disjoint
                // schedule of Lemma 14.
                let path = if o == 0 {
                    plan.tr_path(x, half, p as u32)
                } else {
                    PathRef { start: first + (p * n_paths) as u32, len: n_paths as u32 }
                };
                let inject = n_paths * (o / 2) + (o % 2);
                plan.fly(NodeId(x), path, inject, take);
            }
        }
    }
    plan.fit_rounds();
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_transposed, labels};
    use cubelayout::{Assignment, Encoding};
    use cubesim::{MachineParams, PortMode};
    use std::collections::HashSet;

    fn square(p: u32, half: u32, scheme: Assignment, enc: Encoding) -> (Layout, Layout) {
        let before = Layout::square(p, p, half, scheme, enc);
        let after = before.swapped_shape();
        (before, after)
    }

    fn net(n: u32) -> SimNet<Packet<u64>> {
        SimNet::new(n, MachineParams::unit(PortMode::AllPorts))
    }

    #[test]
    fn paper_example_paths() {
        // x = (1001 ‖ 0100): the six paths listed in §6.1.3.
        let x = 0b1001_0100;
        let half = 4;
        assert_eq!(h_of(x, half), 3);
        assert_eq!(tr(x, half), 0b0100_1001);
        assert_eq!(mpt_path(x, half, 0), vec![7, 3, 6, 2, 4, 0]);
        assert_eq!(mpt_path(x, half, 1), vec![4, 0, 7, 3, 6, 2]);
        assert_eq!(mpt_path(x, half, 2), vec![6, 2, 4, 0, 7, 3]);
        assert_eq!(mpt_path(x, half, 3), vec![3, 7, 2, 6, 0, 4]);
        assert_eq!(mpt_path(x, half, 4), vec![0, 4, 3, 7, 2, 6]);
        assert_eq!(mpt_path(x, half, 5), vec![2, 6, 0, 4, 3, 7]);
    }

    #[test]
    fn figure4_paths_from_000111() {
        // Figure 4: 6 edge-disjoint paths from x = (000 ‖ 111) to
        // tr(x) = (111 ‖ 000) on a 6-cube.
        let x = 0b000_111;
        let half = 3;
        assert_eq!(tr(x, half), 0b111_000);
        let mut edges = HashSet::new();
        for p in 0..6 {
            let path = mpt_path(x, half, p);
            assert_eq!(path.len(), 6);
            let mut cur = x;
            for d in path {
                let next = cur ^ (1 << d);
                assert!(edges.insert((cur, next)), "edge reused on path {p}");
                cur = next;
            }
            assert_eq!(cur, 0b111_000, "path {p} misses the destination");
        }
        assert_eq!(edges.len(), 36);
    }

    #[test]
    fn figure4_path_lists() {
        // The six lists of Figure 4, x = (000 ‖ 111) on the 6-cube:
        // rotations of (5 2)(4 1)(3 0), then of the pair-reversed mirror.
        let listed: [[u32; 6]; 6] = [
            [5, 2, 4, 1, 3, 0],
            [3, 0, 5, 2, 4, 1],
            [4, 1, 3, 0, 5, 2],
            [2, 5, 1, 4, 0, 3],
            [0, 3, 2, 5, 1, 4],
            [1, 4, 0, 3, 2, 5],
        ];
        for (p, want) in listed.iter().enumerate() {
            assert_eq!(mpt_path(0b000_111, 3, p as u32), want, "path {p}");
        }
        assert_eq!(spt_path(0b000_111, 3), listed[0]);
    }

    /// §6.1.3 as the paper lists it — the α and β sequences built as
    /// lists, then rotated and pair-reversed — kept as the oracle for
    /// the allocation-free writer.
    fn listed_path(x: u64, half: u32, p: u32) -> Vec<u32> {
        let (r, c) = cubeaddr::split(x, half);
        let beta: Vec<u32> = (0..half).filter(|&i| ((r ^ c) >> i) & 1 == 1).collect();
        let alpha: Vec<u32> = beta.iter().map(|&i| i + half).collect();
        let h = beta.len() as u32;
        let (j, row_first) = if p < h { (p, true) } else { (p - h, false) };
        let mut dims = Vec::new();
        for step in 0..h {
            let k = ((j + h - 1 - step) % h) as usize;
            dims.extend(if row_first { [alpha[k], beta[k]] } else { [beta[k], alpha[k]] });
        }
        dims
    }

    #[test]
    fn every_path_matches_the_listed_construction() {
        for half in 1..=5u32 {
            for x in 0..1u64 << (2 * half) {
                let h = h_of(x, half);
                for p in 0..2 * h {
                    assert_eq!(mpt_path(x, half, p), listed_path(x, half, p), "x={x:#b} p={p}");
                }
                assert_eq!(spt_path(x, half), listed_path(x, half, 0), "x={x:#b} SPT");
                // A diagonal node has no path, whatever `p` says.
                if h == 0 {
                    assert!(mpt_path(x, half, 3).is_empty());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "path 6 out of range for H = 3")]
    fn path_index_beyond_2h_rejected() {
        let _ = mpt_path(0b1001_0100, 4, 6);
    }

    #[test]
    fn arena_paths_are_the_listed_paths_back_to_back() {
        // All 2H paths of every node of the 6-cube in one arena: each
        // reference must slice out exactly its own path.
        let half = 3;
        let mut plan = FlightPlan::new(0);
        let mut refs = Vec::new();
        for x in 0..1u64 << (2 * half) {
            for p in 0..2 * h_of(x, half) {
                refs.push((x, p, plan.tr_path(x, half, p)));
            }
        }
        assert_eq!(plan.arena.len(), refs.iter().map(|r| r.2.len as usize).sum::<usize>());
        for (x, p, path) in refs {
            let dims = &plan.arena[path.start as usize..(path.start + path.len) as usize];
            let dims: Vec<u32> = dims.iter().map(|&d| u32::from(d)).collect();
            assert_eq!(dims, listed_path(x, half, p), "x={x:#b} p={p}");
        }
    }

    #[test]
    fn mpt_deliveries_tile_the_source_array_when_packets_are_ragged() {
        // Shapes whose per-node array is not a multiple of (or is smaller
        // than) the 4·k_H·H packet count: near-equal packets, some empty.
        let shapes = [
            Layout::square(3, 3, 2, Assignment::Consecutive, Encoding::Binary),
            Layout::square(5, 4, 2, Assignment::Cyclic, Encoding::Binary),
            Layout::square(3, 3, 1, Assignment::Consecutive, Encoding::Binary),
        ];
        let mut ragged = 0;
        for before in shapes {
            let half = before.n() / 2;
            let per = before.elems_per_node();
            let m = labels(before.clone());
            for k in 1..=3u32 {
                let mut net = net(before.n());
                let plan = mpt_plan(&m, half, k);
                let ledger = run_flights(&mut net, &plan);
                net.finalize();
                // One run per off-diagonal source, in ascending order.
                let lines: Vec<(&crate::flight::Flight, NodeId)> =
                    plan.flights.iter().zip(ledger).collect();
                let runs: Vec<_> = lines.chunk_by(|a, b| a.0.src == b.0.src).collect();
                let sources: Vec<u64> = runs.iter().map(|run| run[0].0.src.bits()).collect();
                let off_diagonal: Vec<u64> =
                    (0..before.num_nodes() as u64).filter(|&x| h_of(x, half) > 0).collect();
                assert_eq!(sources, off_diagonal, "k={k}");
                for run in runs {
                    let src = run[0].0.src.bits();
                    let (dst, h) = (tr(src, half), h_of(src, half));
                    let n_packets = (4 * (k * half / h).max(1) * h) as usize;
                    ragged += usize::from(!per.is_multiple_of(n_packets));
                    assert_eq!(run.len(), n_packets.min(per), "src {src} k={k}");
                    let mut covered = 0;
                    for (f, at) in run {
                        assert_eq!(at.bits(), dst, "src {src} k={k}: landed elsewhere");
                        assert!(f.elems > 0 && f.elems <= per.div_ceil(n_packets));
                        covered += f.elems;
                    }
                    assert_eq!(covered, per, "src {src} k={k}: sizes must add up to {per}");
                }
            }
        }
        assert!(ragged > 0, "no shape exercised the ragged split");
    }

    /// A single-packet SPT plan on the `2·half`-cube, corrupted by
    /// `corrupt`, run and rebuilt.
    fn run_corrupted(half: u32, corrupt: impl FnOnce(&mut FlightPlan)) {
        let (before, after) = square(half, half, Assignment::Consecutive, Encoding::Binary);
        let spec = TransposeSpec::with_after(before.clone(), after);
        let m = labels(before.clone());
        let mut plan = FlightPlan::new(0);
        for x in 0..before.num_nodes() as u64 {
            if h_of(x, half) > 0 {
                let path = plan.tr_path(x, half, 0);
                let len = m.node(NodeId(x)).len();
                plan.pipeline(x, path, len, len);
            }
        }
        plan.fit_rounds();
        corrupt(&mut plan);
        let mut net = net(2 * half);
        let _ = rebuild(&spec, &plan, Landing::charged(run_flights(&mut net, &plan), &m), half);
    }

    #[test]
    #[should_panic(expected = "src 1 -> dst 2: packet at offset 0 landed at node 3")]
    fn path_one_hop_short_strays_onto_a_diagonal_node() {
        // Node 1's flight (the plan's first) stops one hop short of
        // tr(1) = 2, on diagonal node 3, which expects nothing.
        run_corrupted(1, |plan| plan.flights[0].path.len -= 1);
    }

    #[test]
    #[should_panic(expected = "src 1 -> dst 4: packet at offset 0 landed at node 11")]
    fn path_ending_at_another_destination_is_caught() {
        // Node 1 rides node 2's path (dims 3, 1): 1 → 9 → 11 = tr(14).
        run_corrupted(2, |plan| plan.flights[0].path = plan.flights[1].path);
    }

    #[test]
    #[should_panic(expected = "src 1 -> dst 2: packets deliver 0 of 1 elements at node 2")]
    fn a_source_whose_packets_are_missing_is_caught() {
        // Node 1's only packet is dropped from the plan.
        run_corrupted(1, |plan| {
            plan.flights.remove(0);
        });
    }

    #[test]
    #[should_panic(expected = "flight 11 from 1: out of source order")]
    fn a_flight_out_of_source_order_is_named() {
        // Node 1's packet, the plan's first, moves behind node 14's: the
        // walk in source order leaves it over, as the plan's flight 11.
        run_corrupted(2, |plan| {
            let first = plan.flights.remove(0);
            plan.flights.push(first);
        });
    }

    #[test]
    fn mpt_plan_is_sized_before_it_is_written() {
        // The 8-cube at one element per node (the cm16-2d-mpt shape) and
        // at 16 per node, where every class but H = 3 splits its array
        // into 16 packets: no vector of the plan grows while it is built.
        for p in [4, 6] {
            let before = Layout::square(p, p, 4, Assignment::Consecutive, Encoding::Binary);
            let m = labels(before);
            for k in 1..=3 {
                let plan = mpt_plan(&m, 4, k);
                assert_eq!(plan.flights.capacity(), plan.flights.len(), "p={p} k={k}");
                assert_eq!(plan.arena.capacity(), plan.arena.len(), "p={p} k={k}");
            }
        }
    }

    #[test]
    fn lemma9_paths_edge_disjoint_per_node() {
        let half = 3;
        for x in 0..(1u64 << 6) {
            let h = h_of(x, half);
            let mut edges = HashSet::new();
            for p in 0..2 * h {
                let mut cur = x;
                for d in mpt_path(x, half, p) {
                    let next = cur ^ (1 << d);
                    assert!(edges.insert((cur, next)), "x={x:#b} path {p}");
                    cur = next;
                }
                assert_eq!(cur, tr(x, half));
            }
        }
    }

    #[test]
    fn lemma13_distinct_classes_disjoint() {
        // x' ≁s x'' ⇒ Paths(x') ∩ Paths(x'') = ∅.
        let half = 2;
        let class = |x: u64| {
            let (r, c) = cubeaddr::split(x, half);
            (r + c, x ^ tr(x, half)) // (~ad anti-diagonal, ⊕ signature)
        };
        let all_edges = |x: u64| -> HashSet<(u64, u64)> {
            let mut e = HashSet::new();
            for p in 0..2 * h_of(x, half) {
                let mut cur = x;
                for d in mpt_path(x, half, p) {
                    let next = cur ^ (1 << d);
                    e.insert((cur, next));
                    cur = next;
                }
            }
            e
        };
        for x1 in 0..(1u64 << 4) {
            for x2 in 0..(1u64 << 4) {
                if x1 != x2 && class(x1) != class(x2) {
                    let shared: Vec<_> =
                        all_edges(x1).intersection(&all_edges(x2)).copied().collect();
                    assert!(shared.is_empty(), "x'={x1:#b} x''={x2:#b} share {shared:?}");
                }
            }
        }
    }

    #[test]
    fn spt_transposes_binary_and_gray() {
        for enc in [Encoding::Binary, Encoding::Gray] {
            for scheme in [Assignment::Consecutive, Assignment::Cyclic] {
                let (before, after) = square(3, 2, scheme, enc);
                let m = labels(before.clone());
                let mut net = net(4);
                let out = transpose_spt(&m, &after, &mut net, 4);
                assert_transposed(&before, &out);
                net.finalize();
            }
        }
    }

    #[test]
    fn spt_round_count_matches_pipeline_formula() {
        // rounds = ⌈(PQ/N)/B⌉ + n - 1.
        let (before, after) = square(4, 2, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        let b = 4;
        let per = before.elems_per_node();
        let mut net = net(4);
        let _ = transpose_spt(&m, &after, &mut net, b);
        let r = net.finalize();
        assert_eq!(r.rounds, per.div_ceil(b) + 4 - 1);
    }

    #[test]
    fn spt_time_matches_model() {
        let (before, after) = square(4, 2, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        let params = MachineParams::unit(PortMode::AllPorts);
        let b = 8;
        let mut net = SimNet::new(4, params.clone());
        let _ = transpose_spt(&m, &after, &mut net, b);
        let r = net.finalize();
        let expect = cubemodel::two_dim::spt(1 << 8, 4, b as u64, &params);
        assert!((r.time - expect).abs() < 1e-9, "{} vs {expect}", r.time);
    }

    #[test]
    fn dpt_transposes_and_halves_transfer() {
        let (before, after) = square(4, 2, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        let b = 2;
        let mut net1 = net(4);
        let _ = transpose_spt(&m, &after, &mut net1, b);
        let r1 = net1.finalize();
        let mut net2 = net(4);
        let out = transpose_dpt(&m, &after, &mut net2, b);
        assert_transposed(&before, &out);
        let r2 = net2.finalize();
        // Same packet size: DPT needs about half the rounds for large data.
        assert!(
            r2.rounds < r1.rounds,
            "DPT rounds {} not below SPT rounds {}",
            r2.rounds,
            r1.rounds
        );
    }

    #[test]
    fn mpt_transposes_all_k() {
        for k in 1..=3u32 {
            let (before, after) = square(3, 2, Assignment::Consecutive, Encoding::Binary);
            let m = labels(before.clone());
            let mut net = net(4);
            let out = transpose_mpt(&m, &after, &mut net, k);
            assert_transposed(&before, &out);
            net.finalize();
        }
    }

    #[test]
    fn mpt_rounds_match_2kh_plus_1() {
        // Max class H = n/2: rounds = 2·k·(n/2) + 1 = k·n + 1.
        let (before, after) = square(4, 2, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        for k in 1..=2u32 {
            let mut net = net(4);
            let _ = transpose_mpt(&m, &after, &mut net, k);
            let r = net.finalize();
            assert_eq!(r.rounds, (k * 4 + 1) as usize, "k={k}");
        }
    }

    #[test]
    fn mpt_beats_spt_time_for_big_data() {
        let (before, after) = square(6, 2, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        let params = MachineParams::unit(PortMode::AllPorts);
        let pq = 1u64 << 12;
        let b_opt = cubemodel::two_dim::spt_b_opt(pq, 4, &params).round().max(1.0) as usize;
        let mut net1 = SimNet::new(4, params.clone());
        let _ = transpose_spt(&m, &after, &mut net1, b_opt);
        let r1 = net1.finalize();
        let mut net2 = SimNet::new(4, params);
        let _ = transpose_mpt(&m, &after, &mut net2, 2);
        let r2 = net2.finalize();
        assert!(r2.time < r1.time, "MPT {} vs SPT {}", r2.time, r1.time);
    }

    #[test]
    fn stepwise_matches_ipsc_estimate() {
        let (before, after) = square(4, 2, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        let params = MachineParams::intel_ipsc().with_ports(PortMode::AllPorts);
        let mut net = SimNet::new(4, params.clone());
        let _ = transpose_spt_stepwise(&m, &after, &mut net);
        let r = net.finalize();
        let expect = cubemodel::two_dim::spt_ipsc_step_by_step(1 << 8, 4, &params);
        assert!((r.time - expect).abs() < 1e-9, "{} vs {expect}", r.time);
    }

    #[test]
    fn anti_diagonal_identity_nodes_keep_data() {
        // Nodes with x_r = x_c never communicate.
        let (before, after) = square(3, 2, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        let mut net = net(4);
        let out = transpose_spt(&m, &after, &mut net, 16);
        assert_transposed(&before, &out);
        let r = net.finalize();
        // 4 of 16 nodes have H = 0; total volume = 12 nodes × 16 elems ×
        // path lengths ≥ 2 — just check those 4 contributed nothing.
        assert!(r.total_messages > 0);
    }

    #[test]
    fn rectangular_cyclic_matrix_pairwise() {
        // p ≠ q still yields a pairwise exchange under cyclic square
        // partitioning ("for N < PQ, the argument applies to matrix
        // blocks instead of matrix elements" — rectangular blocks here).
        let before = Layout::square(4, 3, 1, Assignment::Cyclic, Encoding::Binary);
        let after = before.swapped_shape();
        let m = labels(before.clone());
        let mut net = net(2);
        let out = transpose_spt(&m, &after, &mut net, 8);
        assert_transposed(&before, &out);
        assert_ne!(before.local_rows(), before.local_cols());
    }

    #[test]
    fn single_packet_equals_whole_array() {
        // B ≥ PQ/N: one packet per node, rounds = n.
        let (before, after) = square(3, 2, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        let per = before.elems_per_node();
        let mut net = net(4);
        let _ = transpose_spt(&m, &after, &mut net, per * 2);
        assert_eq!(net.finalize().rounds, 4);
    }

    #[test]
    fn dpt_odd_sized_arrays_split_cleanly() {
        // Ragged packets (8 elements in packets of 3) on a rectangular
        // matrix; offsets must still reassemble exactly.
        let before = Layout::square(3, 4, 2, Assignment::Cyclic, Encoding::Binary);
        let after = before.swapped_shape();
        let m = labels(before.clone());
        let mut net = net(4);
        let out = transpose_dpt(&m, &after, &mut net, 3);
        assert_transposed(&before, &out);
    }

    #[test]
    #[should_panic(expected = "pairwise")]
    fn non_pairwise_layout_rejected() {
        // Mixed schemes (consecutive rows / cyclic columns with enough
        // virtual dims) give all-to-all, which SPT cannot route.
        let before = Layout::two_dim(
            4,
            4,
            (1, Assignment::Consecutive, Encoding::Binary),
            (1, Assignment::Cyclic, Encoding::Binary),
        );
        let after = before.swapped_shape();
        let m = labels(before.clone());
        let mut net: SimNet<Packet<u64>> = SimNet::new(2, MachineParams::unit(PortMode::AllPorts));
        let _ = transpose_spt(&m, &after, &mut net, 4);
    }
}

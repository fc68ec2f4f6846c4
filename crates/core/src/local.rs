//! In-node dense matrix transpose kernels.
//!
//! The conversion algorithms of §6.2 interleave interprocessor exchanges
//! with *local* matrix transposes ("transpose the local matrices
//! concurrently"), and the iPSC implementation's copy costs come from
//! exactly this kind of local rearrangement. These kernels provide the
//! local step: a straightforward row-major transpose, a cache-blocked
//! out-of-place version and an in-place one for any shape.

// The workspace denies `unsafe_code` (`[workspace.lints]`); this module
// is allowlisted for the uninitialized-output `set_len` kernel below
// (with its SAFETY comment). The test kit's counting allocator is the
// only other carve-out; scripts/ci.sh grep-gates every other file.
#![allow(unsafe_code)]

use std::borrow::Cow;

/// A dense row-major matrix.
#[derive(Clone, PartialEq, Debug)]
pub struct Dense<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Dense<T> {
    /// Builds from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Dense { rows, cols, data }
    }

    /// An all-default matrix.
    pub fn zeroed(rows: usize, cols: usize) -> Self {
        Dense { rows, cols, data: vec![T::default(); rows * cols] }
    }
}

impl<T: Copy> Dense<T> {
    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows·cols`.
    #[track_caller]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Dense { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        self.data[r * self.cols + c] = v;
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Consumes into the row-major buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Straightforward out-of-place transpose.
    pub fn transpose_naive(&self) -> Dense<T> {
        let mut out = Vec::with_capacity(self.data.len());
        for c in 0..self.cols {
            for r in 0..self.rows {
                out.push(self.get(r, c));
            }
        }
        Dense { rows: self.cols, cols: self.rows, data: out }
    }

    /// In-place transpose — any rectangular shape, via the C2R
    /// decomposition ([`crate::inplace`]): O(rows·cols) work,
    /// O(max(rows, cols)) auxiliary space. The square case goes through
    /// the same kernel, so there is exactly one in-place path.
    pub fn transpose_in_place(&mut self) {
        crate::inplace::transpose(&mut self.data, self.rows, self.cols);
        std::mem::swap(&mut self.rows, &mut self.cols);
    }
}

/// Transposes a flat row-major `rows × cols` buffer (helper for local
/// arrays held as plain slices by the distributed algorithms). Delegates
/// to the shared tiling helper with the default tile.
#[track_caller]
pub fn transpose_flat<T: Copy>(data: &[T], rows: usize, cols: usize) -> Vec<T> {
    let mut out = Vec::new();
    transpose_flat_blocked_into(data, rows, cols, 64, &mut out);
    out
}

/// `arr`, a row-major `rows × cols` array, transposed: in place when it
/// is owned, into a new buffer of its size when it is borrowed
/// ([`transpose_into`]).
#[inline]
pub(crate) fn transposed<T: Copy>(arr: Cow<'_, [T]>, rows: usize, cols: usize) -> Vec<T> {
    match arr {
        Cow::Borrowed(a) => {
            let mut out = Vec::with_capacity(a.len());
            transpose_into(a, rows, cols, &mut out);
            out
        }
        Cow::Owned(mut a) => {
            crate::inplace::transpose(&mut a, rows, cols);
            a
        }
    }
}

/// `arr`, a row-major `rows × cols` array, transposed into `out` (cleared
/// first, capacity reused): one tiled pass, or a copy with one row or
/// column.
#[inline]
pub(crate) fn transpose_into<T: Copy>(arr: &[T], rows: usize, cols: usize, out: &mut Vec<T>) {
    if rows == 1 || cols == 1 {
        out.clear();
        out.extend_from_slice(arr);
    } else {
        transpose_flat_blocked_into(arr, rows, cols, 64, out);
    }
}

/// Tiled transpose of a flat row-major `rows × cols` buffer into `out`
/// (cleared first, capacity reused): `out[c·rows + r] = src[r·cols + c]`.
///
/// The destination is written tile by tile — non-sequentially — so the
/// buffer is grown through `spare_capacity_mut` rather than paying a
/// throwaway fill (or clone) of `rows·cols` elements up front.
#[track_caller]
pub fn transpose_flat_blocked_into<T: Copy>(
    src: &[T],
    rows: usize,
    cols: usize,
    tile: usize,
    out: &mut Vec<T>,
) {
    assert_eq!(src.len(), rows * cols);
    assert!(tile > 0);
    out.clear();
    out.reserve(src.len());
    let spare = &mut out.spare_capacity_mut()[..src.len()];
    tiled_transpose_write(src, rows, cols, tile, spare);
    // SAFETY: the tiled loops visit every (r, c) pair exactly once, so
    // all `src.len()` slots of `spare` have been written.
    unsafe { out.set_len(src.len()) };
}

/// Side of the register tile inside [`tiled_transpose_write`].
const REG: usize = 8;

/// The one tiling loop behind the out-of-place transpose family
/// ([`transpose_flat`], [`transpose_flat_blocked_into`]): writes
/// `out[c·rows + r] = src[r·cols + c]` tile by tile, initializing every
/// slot of `out` exactly once.
///
/// Inside a tile the work is done in 8×8 register tiles
/// ([`transpose_reg`]). A source-major element loop over a whole tile
/// writes `out[c·rows + r]` one element per cache line at a power-of-two
/// stride (2 KiB at 256 rows of `u64`): the destination lines of a 64×64
/// tile pile into four L1 sets and each is written eight separate times.
/// Eight is the side at which, for an 8-byte `T`, a register tile reads
/// eight whole 64-byte source lines and writes eight whole destination
/// lines, each touched exactly once while it is hot. The register tiles
/// of a tile are visited destination-major (source column block outside,
/// source row block inside), so the eight destination rows are written
/// as eight forward streams. The element loop keeps the ragged edges,
/// and with them every shape that has a side below eight.
fn tiled_transpose_write<T: Copy>(
    src: &[T],
    rows: usize,
    cols: usize,
    tile: usize,
    out: &mut [std::mem::MaybeUninit<T>],
) {
    use std::mem::MaybeUninit;
    use std::ops::Range;
    let scalar = |out: &mut [MaybeUninit<T>], rs: Range<usize>, cs: Range<usize>| {
        for r in rs {
            for c in cs.clone() {
                out[c * rows + r].write(src[r * cols + c]);
            }
        }
    };
    if rows < REG || cols < REG {
        // No register tile fits, and with a side this short source and
        // destination are a handful of forward streams without tiling —
        // the CM-scale transposes call this once per 1×1 local array.
        return scalar(out, 0..rows, 0..cols);
    }
    for rb in (0..rows).step_by(tile) {
        let r_end = (rb + tile).min(rows);
        let r_full = rb + (r_end - rb) / REG * REG;
        for cb in (0..cols).step_by(tile) {
            let c_end = (cb + tile).min(cols);
            let c_full = cb + (c_end - cb) / REG * REG;
            for c0 in (cb..c_full).step_by(REG) {
                for r0 in (rb..r_full).step_by(REG) {
                    transpose_reg(&src[r0 * cols + c0..], cols, &mut out[c0 * rows + r0..], rows);
                }
            }
            // Ragged edges: the columns past the last full register
            // tile, then the rows past it (the whole tile when it has a
            // side below eight).
            scalar(out, rb..r_full, c_full..c_end);
            scalar(out, r_full..r_end, cb..c_end);
        }
    }
}

/// One 8×8 register tile of [`tiled_transpose_write`]: `src` starts at
/// the tile's first source element (row stride `cols`), `out` at its
/// first destination element (row stride `rows`). Destination-major, so
/// every destination row is eight consecutive stores; both windows are
/// cut to length once, which lets the 64 element moves run without a
/// bounds check apiece.
#[inline(always)]
fn transpose_reg<T: Copy>(
    src: &[T],
    cols: usize,
    out: &mut [std::mem::MaybeUninit<T>],
    rows: usize,
) {
    let src = &src[..(REG - 1) * cols + REG];
    let out = &mut out[..(REG - 1) * rows + REG];
    for c in 0..REG {
        let line = &mut out[c * rows..][..REG];
        for (r, slot) in line.iter_mut().enumerate() {
            slot.write(src[r * cols + c]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize) -> Dense<u64> {
        Dense::from_fn(rows, cols, |r, c| (r * 100 + c) as u64)
    }

    #[test]
    fn naive_transpose_correct() {
        let m = sample(3, 5);
        let t = m.transpose_naive();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        for r in 0..3 {
            for c in 0..5 {
                assert_eq!(t.get(c, r), m.get(r, c));
            }
        }
    }

    #[test]
    fn in_place_square() {
        let mut m = sample(8, 8);
        let expect = m.transpose_naive();
        m.transpose_in_place();
        assert_eq!(m, expect);
    }

    #[test]
    fn in_place_rectangular() {
        for (rows, cols) in [(2, 3), (3, 2), (5, 8), (8, 5), (1, 7), (7, 1), (12, 18)] {
            let mut m = sample(rows, cols);
            let expect = m.transpose_naive();
            m.transpose_in_place();
            assert_eq!(m, expect, "{rows}×{cols}");
            m.transpose_in_place();
            assert_eq!(m, sample(rows, cols), "{rows}×{cols} roundtrip");
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let m = sample(6, 9);
        assert_eq!(m.transpose_naive().transpose_naive(), m);
    }

    #[test]
    fn flat_helper() {
        let data: Vec<u64> = (0..6).collect(); // 2×3: [0 1 2; 3 4 5]
        assert_eq!(transpose_flat(&data, 2, 3), vec![0, 3, 1, 4, 2, 5]);
    }

    #[test]
    fn flat_blocked_matches_naive() {
        let mut out = Vec::new();
        for (rows, cols) in [(1, 1), (4, 4), (8, 2), (3, 7), (16, 16), (5, 32)] {
            let data: Vec<u64> = (0..(rows * cols) as u64).collect();
            for tile in [1, 3, 64] {
                transpose_flat_blocked_into(&data, rows, cols, tile, &mut out);
                assert_eq!(out, transpose_flat(&data, rows, cols), "{rows}×{cols} tile {tile}");
            }
        }
    }

    /// Every branch of the tiling loop against the naive double loop:
    /// full register tiles, ragged edges in either direction, shapes with
    /// a side below eight, tiles smaller than a register tile, and
    /// elements that are not a power-of-two fraction of a cache line.
    #[test]
    fn kernel_shape_sweep() {
        fn sweep<T: Copy + PartialEq + std::fmt::Debug>(mk: impl Fn(usize) -> T) {
            let small = (0..=24).flat_map(|rows| (0..=24).map(move |cols| (rows, cols)));
            let big = [(256, 256), (8192, 8), (8, 8192), (32, 2048), (1, 777), (777, 1)];
            let mut out = Vec::new();
            for (rows, cols) in small.chain(big) {
                let src: Vec<T> = (0..rows * cols).map(&mk).collect();
                let mut expect = Vec::with_capacity(src.len());
                for c in 0..cols {
                    for r in 0..rows {
                        expect.push(src[r * cols + c]);
                    }
                }
                for tile in [1, 4, 64] {
                    transpose_flat_blocked_into(&src, rows, cols, tile, &mut out);
                    assert!(out == expect, "{rows}×{cols} tile {tile}");
                }
            }
        }
        #[derive(Clone, Copy, PartialEq, Debug)]
        struct Wide([u64; 3]);
        sweep(|i| i as u8);
        sweep(|i| i as u64);
        sweep(|i| Wide([i as u64, !(i as u64), 3 * i as u64]));
    }

    #[test]
    fn flat_blocked_recycles_and_handles_empty() {
        let mut out = vec![99u64; 3]; // stale contents must be discarded
        transpose_flat_blocked_into(&[1u64, 2], 1, 2, 4, &mut out);
        assert_eq!(out, vec![1, 2]);
        transpose_flat_blocked_into(&[], 0, 0, 4, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn flat_delegates_to_tiled_path() {
        for (rows, cols) in [(0, 0), (1, 1), (3, 7), (65, 130)] {
            let data: Vec<u64> = (0..(rows * cols) as u64).collect();
            let got = transpose_flat(&data, rows, cols);
            let mut expect = Vec::with_capacity(data.len());
            for c in 0..cols {
                for r in 0..rows {
                    expect.push(data[r * cols + c]);
                }
            }
            assert_eq!(got, expect, "{rows}×{cols}");
        }
    }
}

/// Allocation gates, on the test kit's counting allocator (installed
/// in `lib.rs`): while a thread counts `Count::Big`, the allocations it
/// makes at or above a size threshold (the in-place kernel's gate and
/// the permutation-scratch gate); while it counts `Count::All`, every
/// allocation it makes (the CM-scale MPT gate, the direct-exchange gate
/// and one gate for each of `cuberun`'s front doors: `spmd_exchange_…`
/// for the async door, `round_exchange_…` for the round door).
#[cfg(test)]
mod alloc_gate_tests {
    use cuberun::{NodeId, Outbox, RoundInbox, RoundProgram};
    use cubesync::atomic::{AtomicUsize, Ordering};
    use cubetest::alloc::Count;

    /// `program`, counting on the worker with `count` from its first
    /// `init` to its last `finish`, where the most it counted lands in
    /// `on_worker`.
    struct CountFromInit<'a, P> {
        program: &'a P,
        count: Count,
        on_worker: &'a AtomicUsize,
    }

    impl<E: Send, P: RoundProgram<E>> RoundProgram<E> for CountFromInit<'_, P> {
        type State = P::State;
        type Out = P::Out;
        fn rounds(&self) -> u32 {
            self.program.rounds()
        }
        fn init(&self, id: NodeId) -> P::State {
            self.count.start();
            self.program.init(id)
        }
        fn send(&self, round: u32, id: NodeId, s: &mut P::State, out: &mut Outbox<'_, E>) {
            self.program.send(round, id, s, out);
        }
        fn recv(&self, round: u32, id: NodeId, s: &mut P::State, inbox: &mut RoundInbox<'_, E>) {
            self.program.recv(round, id, s, inbox);
        }
        fn finish(&self, id: NodeId, s: P::State) -> P::Out {
            let out = self.program.finish(id, s);
            self.on_worker.fetch_max(self.count.so_far(), Ordering::Relaxed);
            out
        }
        fn exchange_dim(&self, round: u32) -> Option<u32> {
            self.program.exchange_dim(round)
        }
    }

    /// `cm16-2d-mpt` at reduced size — one element per node, 256 nodes,
    /// every packet a one-element message: MPT may allocate each node's
    /// output buffer — a one-row array is its own transpose, copied once —
    /// plus a fixed set of vectors for the whole transpose, each sized
    /// once: the node map (27 allocations, built once), the plan's
    /// flights and arena, the run's launch counts, records and ledger
    /// (304 in all, ≈ 1.19 per node; 350 while the plan's vectors grew by
    /// doubling and the node map was built twice, 371 while the payloads
    /// rode the net). Growing the plan by doubling again, building the node
    /// map twice, a delivery list per node (the old ≈ 3.3) or anything
    /// allocated per path — there are 2H(x) of them per node — blows the
    /// bound of 1.2 per node.
    #[test]
    fn mpt_at_cm_shape_allocates_a_small_constant_per_node() {
        use cubelayout::{Assignment, Encoding, Layout};
        use cubesim::{MachineParams, SimNet};
        let before = Layout::square(4, 4, 4, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        let m = crate::verify::labels(before.clone());
        let mut net = SimNet::new(8, MachineParams::connection_machine());
        let (out, allocs) =
            Count::All.around(|| crate::two_dim::transpose_mpt(&m, &after, &mut net, 1));
        crate::verify::assert_transposed(&before, &out);
        net.finalize();
        let nodes = before.num_nodes();
        assert!(
            5 * allocs <= 6 * nodes,
            "transpose_mpt made {allocs} allocations for {nodes} nodes"
        );
    }

    /// The same transpose, net construction included, allocates nothing
    /// of 16 bytes per directed link or more: the flights are charged to
    /// the net, which then never builds its receiver-indexed payload
    /// table. Its dense state is a claim bitmap and 4-byte link totals.
    #[test]
    fn mpt_at_cm_shape_allocates_no_payload_table() {
        use cubelayout::{Assignment, Encoding, Layout};
        use cubesim::{MachineParams, SimNet};
        let before = Layout::square(4, 4, 4, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        let m = crate::verify::labels(before.clone());
        let links = before.num_nodes() * 8;
        let ((), big) = Count::Big(16 * links).around(|| {
            let mut net = SimNet::new(8, MachineParams::connection_machine());
            let out = crate::two_dim::transpose_mpt(&m, &after, &mut net, 1);
            net.finalize();
            crate::verify::assert_transposed(&before, &out);
        });
        assert_eq!(big, 0, "an allocation of at least 16 B x {links} links");
    }

    /// `cuberun`'s async door at one worker: an all-dimensions `u64`
    /// exchange on a 10-cube may allocate each node's boxed program and,
    /// for a node that falls behind its neighbors, the overflow deque of
    /// its inbox (≈ 2 per node in all) — nothing per directed link:
    /// there are `num × ports` = 10 per node of those, and a queue
    /// apiece is what the bound rules out. Counted on both threads that
    /// allocate: this one (the state the workers share, the collected
    /// results) and the worker, which starts counting in the first node
    /// program it polls — just after it allocated its inboxes and slots,
    /// a handful of `Vec`s, and before every per-node allocation.
    #[test]
    fn spmd_exchange_allocates_a_small_constant_per_node() {
        let n = 10u32;
        let on_worker = AtomicUsize::new(0);
        let ((sums, stats), on_caller) = Count::All.around(|| {
            cuberun::with_workers(1, || {
                cuberun::run_spmd(n, |ctx| {
                    let on_worker = &on_worker;
                    async move {
                        Count::All.start();
                        let mut acc = ctx.id().bits();
                        for j in 0..ctx.n() {
                            acc += ctx.exchange(j, acc).await;
                        }
                        on_worker.fetch_max(Count::All.so_far(), Ordering::Relaxed);
                        acc
                    }
                })
            })
        });
        let nodes = 1usize << n;
        let total: u64 = (0..nodes as u64).sum();
        assert!(sums.iter().all(|&s| s == total), "dimension scan must sum every id");
        assert_eq!(stats.messages, (nodes as u64) * n as u64);
        let allocs = on_caller + on_worker.load(Ordering::Relaxed);
        assert!(
            allocs <= 4 * nodes,
            "run_spmd made {allocs} allocations for {nodes} nodes × {n} ports"
        );
    }

    /// The same exchange through `cuberun`'s round door at one worker:
    /// the runtime allocates the state, inbox, outgoing and result
    /// vectors and the worker thread — nothing per node and nothing per
    /// message, since a `u64` state is not boxed and the one message
    /// pending per node sits inline in its inbox. So the bound is a
    /// constant, not a multiple of `nodes × rounds` (measured 11).
    /// Counted as in the gate above: on this thread, and on the worker
    /// from the first `init` (its inboxes, allocated at the first
    /// undeclared round, are counted) to the last `finish`.
    #[test]
    fn round_exchange_allocates_a_constant() {
        struct AllDims(u32);
        impl RoundProgram<u64> for AllDims {
            type State = u64;
            type Out = u64;
            fn rounds(&self) -> u32 {
                self.0
            }
            fn init(&self, id: NodeId) -> u64 {
                id.bits()
            }
            fn send(&self, round: u32, _id: NodeId, acc: &mut u64, out: &mut Outbox<'_, u64>) {
                out.send(round, *acc);
            }
            fn recv(&self, round: u32, _: NodeId, acc: &mut u64, inbox: &mut RoundInbox<'_, u64>) {
                *acc += inbox.take(round).expect("the neighbor sent in this round");
            }
            fn finish(&self, _id: NodeId, acc: u64) -> u64 {
                acc
            }
        }

        let n = 10u32;
        let on_worker = AtomicUsize::new(0);
        let program =
            CountFromInit { program: &AllDims(n), count: Count::All, on_worker: &on_worker };
        let ((sums, stats), on_caller) =
            Count::All.around(|| cuberun::with_workers(1, || cuberun::run_rounds(n, &program)));
        let nodes = 1usize << n;
        let total: u64 = (0..nodes as u64).sum();
        assert!(sums.iter().all(|&s| s == total), "dimension scan must sum every id");
        assert_eq!(stats.messages, (nodes as u64) * n as u64);
        let allocs = on_caller + on_worker.load(Ordering::Relaxed);
        assert!(
            allocs <= 64,
            "run_rounds made {allocs} allocations for {nodes} nodes × {n} rounds"
        );
    }

    /// `cm16-spmd-exchange` at n = 10 — `spmd_transpose_exchange` of a
    /// square layout with one element per node, at one worker — makes
    /// at most 2.25 allocations per node (measured 2.21, on the declared
    /// rounds' slots as on the tagged inboxes before): each node's
    /// output buffer (1), a vector where two lone elements merge or two
    /// vectors outgrow one (0.72), and a message vector where a split
    /// sends two or more elements (0.47). A lone element, held, sent or
    /// split off, stays inline. A heap holding per node from `init`
    /// (2.71), per-node initial lists cloned in `init`, a fresh `Vec` per
    /// non-empty message or two landing ledgers per node (the
    /// triple-carrying program: 6.9) blow it. Counted as in the gate
    /// above, tag table and output included.
    #[test]
    fn spmd_exchange_transpose_allocates_at_most_two_and_a_quarter_per_node() {
        use cubelayout::{Assignment, Encoding, Layout};

        let before = Layout::square(5, 5, 5, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        let m = crate::verify::labels(before.clone());
        let on_worker = AtomicUsize::new(0);
        let ((out, stats), on_caller) = Count::All.around(|| {
            cuberun::with_workers(1, || {
                crate::spmd::exchange_on(&m, &after, |n, program| {
                    let program =
                        CountFromInit { program, count: Count::All, on_worker: &on_worker };
                    cuberun::run_rounds(n, &program)
                })
            })
        });
        crate::verify::assert_transposed(&before, &out);
        let nodes = before.num_nodes();
        assert_eq!(stats.messages, nodes as u64 * 10);
        let allocs = on_caller + on_worker.load(Ordering::Relaxed);
        assert!(
            allocs * 4 <= 9 * nodes,
            "the exchange made {allocs} allocations for {nodes} nodes"
        );
    }

    /// `spmd_transpose_spt` of a square layout — 64 nodes of 1 024 `u64`s
    /// — at one worker makes one node-sized allocation per node: the piece
    /// each off-diagonal array's flight is cut into at its source, which
    /// travels and is transposed in place where it lands, and a diagonal
    /// node's transposed copy of its own array. Counted on this thread,
    /// and on the worker from its first `init`. Copying every array
    /// before the run and again inside it (the `async` program the flight
    /// adaptor replaced) makes two per node.
    #[test]
    fn spmd_spt_allocates_one_node_sized_buffer_per_node() {
        use cubelayout::{Assignment, Encoding, Layout};

        let before = Layout::square(8, 8, 3, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        let m = crate::verify::labels(before.clone());
        let (nodes, node_bytes) = (before.num_nodes(), before.elems_per_node() * 8);
        let on_worker = AtomicUsize::new(0);
        let count = Count::Big(node_bytes);
        let ((out, stats), on_caller) = count.around(|| {
            cuberun::with_workers(1, || {
                crate::spmd::spt_on(&m, &after, |n, program| {
                    cuberun::run_rounds(n, &CountFromInit { program, count, on_worker: &on_worker })
                })
            })
        });
        crate::verify::assert_transposed(&before, &out);
        // One message per hop: Σ 2H(x), each of the 3 bit pairs differing
        // at half the 64 nodes.
        assert_eq!(stats.messages, 2 * 3 * 32);
        let big = on_caller + on_worker.load(Ordering::Relaxed);
        assert!(big <= nodes, "the SPT made {big} node-sized allocations for {nodes} nodes");
    }

    /// `fieldmap`'s primitives are charged, not carried: a direct
    /// exchange that sends 16 runs of 32 elements per node as separate
    /// messages, and a rotation of every local array, allocate nothing
    /// node-sized, and nothing but the permutation's new role vector
    /// whatever the node count — counted at 8 and at 64 nodes, each on a
    /// net that has run one exchange and one permutation already, so its
    /// per-round stores have grown. With the other `Count::Big` gates of
    /// this module and `fieldmap`'s footprint tests these are
    /// deterministic budgets of the kind ROADMAP item 4 asks for: exact
    /// on any host, no stopwatch.
    #[test]
    fn exchange_and_permute_allocate_a_constant() {
        use crate::fieldmap::{check_labels, label_mapped, FieldMap};
        use cubecomm::BufferPolicy;
        use cubesim::{MachineParams, PortMode, SimNet};
        let (vp, j) = (10u32, 5u32);
        let node_bytes = (1usize << vp) * std::mem::size_of::<u64>();
        assert_eq!((1usize << vp) / (2usize << j), 16, "runs per node");
        let rotation: Vec<u32> = (6..vp).chain(0..6).collect();
        let counts = [3u32, 6].map(|n| {
            let mut m = label_mapped(FieldMap::new((0..n).collect(), (n..n + vp).collect()));
            let mut net: SimNet<Vec<u64>> = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
            m.exchange_real_virt(&mut net, 0, j, BufferPolicy::Unbuffered);
            m.permute_virt(&mut net, &rotation);
            let (((), big), allocs) = Count::All.around(|| {
                Count::Big(node_bytes).around(|| {
                    m.exchange_real_virt(&mut net, 1, j, BufferPolicy::Unbuffered);
                    m.permute_virt(&mut net, &rotation);
                })
            });
            assert_eq!(big, 0, "a primitive allocated node-sized staging at n = {n}");
            assert_eq!(check_labels(&m), None);
            assert_eq!(net.finalize().rounds, 32);
            allocs
        });
        assert_eq!(counts[0], counts[1], "allocations at 8 and at 64 nodes");
        assert!(counts[0] <= 1, "an exchange and a permutation made {} allocations", counts[0]);
    }

    /// Algorithm 2 of §6.2 at a reduced shape (16 nodes of 4 096
    /// elements) reads the caller's matrix in place: its only
    /// allocations of half a node or more are the output arrays and the
    /// one scratch of the composed move — no input clone, and none of
    /// the exchanges' half-node message buffers (the payload-carrying
    /// engine made 32).
    #[test]
    fn convert_algorithm2_allocates_outputs_and_one_scratch() {
        use crate::convert::{convert_algorithm2, ConvertSpec};
        use cubecomm::BufferPolicy;
        use cubesim::{MachineParams, SimNet};
        let spec = ConvertSpec::new(8, 8, 2);
        let before = spec.before();
        let (num, per) = (before.num_nodes(), before.elems_per_node());
        let m = crate::verify::labels(before.clone());
        let mut net = SimNet::new(2 * spec.n_r, MachineParams::intel_ipsc());
        let (out, big) = Count::Big(per / 2 * std::mem::size_of::<u64>()).around(|| {
            convert_algorithm2(&spec, &m, &mut net, BufferPolicy::Buffered { min_direct: 139 })
        });
        crate::verify::assert_transposed(&before, &out);
        net.finalize();
        assert!(big <= num + 1, "{big} allocations of half a node or more for {num} nodes");
    }

    /// The in-place path must never allocate O(mn)-sized scratch after
    /// warmup: with `mn` elements of `u64`, no single allocation may
    /// reach a quarter of the matrix (the kernel's strip scratch is
    /// capped at 64 Ki elements, far below).
    #[test]
    fn inplace_path_allocates_no_mn_scratch() {
        let (rows, cols) = (1 << 10, 1 << 9);
        let mut data: Vec<u64> = (0..(rows * cols) as u64).collect();
        // Warmup: one full transpose before arming.
        crate::inplace::transpose(&mut data, rows, cols);
        let ((), big) = Count::Big(rows * cols * std::mem::size_of::<u64>() / 4)
            .around(|| crate::inplace::transpose(&mut data, cols, rows));
        assert_eq!(big, 0, "in-place kernel allocated O(mn)-sized scratch");
        let expect: Vec<u64> = (0..(rows * cols) as u64).collect();
        assert_eq!(data, expect, "roundtrip while gated");
    }
}

//! In-place local transpose via the C2R/R2C decomposition.
//!
//! A caller that holds one node's block and nothing to stage through —
//! the SPMD node programs, the Gray-code transposes,
//! `Dense::transpose_in_place` — would have to allocate an `O(mn)`
//! buffer for an out-of-place transpose. (The `fieldmap` composed move
//! writes fresh output arrays and stages through one hot node-sized
//! scratch instead.) This module transposes where the block lives, with the
//! decomposition of Catanzaro, Keller & Garland, *A Decomposition for
//! In-place Matrix Transposition* (PPoPP 2014): transposition of a
//! row-major `m × n` buffer factors into three passes that each permute
//! only **within** rows or only **within** columns,
//!
//! 1. **column rotation** — column `j` rotates up by `⌊j/q⌋` where
//!    `q = n/c`, `c = gcd(m, n)` (the identity when `c = 1`, so the pass
//!    is skipped);
//! 2. **row shuffle** — row `i` scatters its element at column `j` to
//!    column `d_i(j) = (i + jm) mod n` (generalized for `c > 1` by the
//!    rotation term: `d_i(j) = (jm + (i + ⌊j/q⌋) mod m) mod n`);
//! 3. **column shuffle** — column `j` gathers its element for row `i`
//!    from row `g_j(i) = (in + j − ⌊ic/m⌋) mod m`.
//!
//! The passes run one after another on the calling thread — every
//! caller is already inside one node's work. Auxiliary space is
//! `O(max(m, n))` (one row or one column-strip staging buffer), never
//! `O(mn)` — the counting-allocator gate in [`crate::local`]'s test
//! module pins this. Square blocks and blocks where one side divides
//! the other (every power-of-two block the engine holds) take cheaper
//! fast paths.
//!
//! The closed forms were re-derived for this codebase and are verified
//! exhaustively against the naive out-of-place transpose for every shape
//! up to 24 × 24 (plus degenerate and coprime families) by the unit and
//! property tests.
//!
//! # Index-function derivation (why these closed forms)
//!
//! Label the element at grid position `(i, j)` by its flat address
//! `l = in + j`; after transposition it must sit at `l' = jm + i`
//! (row-major of the `n × m` transpose). Writing `j = wq + t` with
//! `t < q` and using `qm ≡ 0 (mod n)` (`qm = (n/c)m = n(m/c)`), the
//! final column of `l` is `l' mod n ≡ (i + w) mod m (mod c)` — so
//! rotating column `j` by `w = ⌊j/q⌋` makes the destination column a
//! **bijection within every row** (the collisions of the naive
//! `d_i(j) = (i + jm) mod n` for `gcd(m, n) > 1` disappear), and the
//! remaining row fix-up is the affine per-column gather `g_j`.

/// Maximum elements in one column-strip staging buffer. Strips narrow
/// automatically for tall matrices so the staging stays `O(max(m, n))`
/// with a small constant, never `O(mn)`.
const SCRATCH_ELEMS: usize = 1 << 16;

/// Widest column strip staged at once by the column passes.
const STRIP: usize = 32;

/// Transposes a row-major `rows × cols` buffer in place (the buffer
/// becomes the row-major `cols × rows` transpose).
///
/// # Panics
/// If `data.len() != rows · cols`.
#[track_caller]
pub fn transpose<T: Copy>(data: &mut [T], rows: usize, cols: usize) {
    assert_eq!(data.len(), rows * cols, "buffer is not rows x cols");
    if is_trivial(rows, cols) {
        return;
    }
    if rows == cols {
        square(data, rows);
        return;
    }
    if rows.is_multiple_of(cols) || cols.is_multiple_of(rows) {
        divisible(data, rows, cols);
        return;
    }
    let geom = Geom::new(rows, cols);
    let mut scratch: Vec<T> = Vec::new();
    if geom.c > 1 {
        rotate_columns(data, &geom, &mut scratch);
    }
    for (x, row) in data.chunks_exact_mut(cols).enumerate() {
        shuffle_row(x, row, &geom, &mut scratch);
    }
    shuffle_columns(data, &geom, &mut scratch);
}

/// A `1 × k`, `k × 1` or empty buffer transposes to itself.
fn is_trivial(rows: usize, cols: usize) -> bool {
    rows <= 1 || cols <= 1
}

/// Peak auxiliary elements staged while transposing a `rows × cols`
/// buffer — the kernel's scratch footprint, reported by `perfbench`.
/// Zero for the square swap path; otherwise the
/// larger of the column-strip buffer and the row-pass buffer.
pub fn scratch_elems(rows: usize, cols: usize) -> usize {
    if is_trivial(rows, cols) || rows == cols {
        return 0;
    }
    if rows.is_multiple_of(cols) || cols.is_multiple_of(rows) {
        // One chunk temporary plus the cycle-following visited bits
        // (counted conservatively as one element per chunk).
        return rows.min(cols) + rows.max(cols);
    }
    let geom = Geom::new(rows, cols);
    (geom.strip() * rows).max(cols)
}

/// Shape constants shared by the three passes.
struct Geom {
    rows: usize,
    cols: usize,
    /// `gcd(rows, cols)`.
    c: usize,
    /// `cols / c`: the rotation amount advances every `q` columns.
    q: usize,
}

impl Geom {
    fn new(rows: usize, cols: usize) -> Geom {
        let c = gcd(rows, cols);
        Geom { rows, cols, c, q: cols / c }
    }

    /// Column-strip width: wide enough to amortize the strided column
    /// walk, narrow enough that `width · rows` staging stays bounded.
    fn strip(&self) -> usize {
        STRIP.min(self.cols).min((SCRATCH_ELEMS / self.rows).max(1))
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Square fast path: pairwise element swaps, tiled so both the `(i, j)`
/// read stream and the `(j, i)` write stream stay cache-resident — two
/// triangular sweeps of traffic instead of the three full passes of the
/// general decomposition, and zero scratch.
fn square<T: Copy>(data: &mut [T], n: usize) {
    const TILE: usize = 32;
    let mut i0 = 0;
    while i0 < n {
        let i1 = (i0 + TILE).min(n);
        for i in i0..i1 {
            for j in (i + 1)..i1 {
                data.swap(i * n + j, j * n + i);
            }
        }
        let mut j0 = i1;
        while j0 < n {
            let j1 = (j0 + TILE).min(n);
            for i in i0..i1 {
                for j in j0..j1 {
                    data.swap(i * n + j, j * n + i);
                }
            }
            j0 = j1;
        }
        i0 = i1;
    }
}

/// Fast path when one side divides the other (every power-of-two local
/// block in the engine): the matrix splits into square blocks —
/// `rows/cols` stacked vertically when `rows > cols`, `cols/rows` side
/// by side when `cols > rows`. Each square block transposes in place
/// via [`square`], and gluing the block-transposes into the
/// final row-major layout is a *grid* transpose over whole
/// `min(rows, cols)`-element chunks, done by cycle-following with one
/// chunk-sized temporary — every move a contiguous `memcpy`.
fn divisible<T: Copy>(data: &mut [T], rows: usize, cols: usize) {
    if rows > cols {
        // M stacked cols × cols squares. Block i's row k (a cols-chunk at
        // chunk index i·cols + k) belongs at final row k, block-column i
        // (chunk index k·M + i): a chunk-grid transpose of M × cols.
        let m = rows / cols;
        for b in 0..m {
            square(&mut data[b * cols * cols..(b + 1) * cols * cols], cols);
        }
        chunk_grid_transpose(data, m, cols, cols);
    } else {
        // M side-by-side rows × rows squares. Row r holds chunk i of
        // every block (chunk index r·M + i); regrouping block-contiguous
        // (chunk index i·rows + r) is the chunk-grid transpose of
        // rows × M, after which each block transposes in place.
        let m = cols / rows;
        chunk_grid_transpose(data, rows, m, rows);
        for b in 0..m {
            square(&mut data[b * rows * rows..(b + 1) * rows * rows], rows);
        }
    }
}

/// Transposes a `gr × gc` grid of `clen`-element chunks in place by
/// cycle-following: each cycle is peeled with one chunk-sized temporary,
/// every other move a contiguous `copy_within`. Auxiliary space is one
/// chunk plus a visited bit per chunk — O(max(rows, cols)) overall.
fn chunk_grid_transpose<T: Copy>(data: &mut [T], gr: usize, gc: usize, clen: usize) {
    let n = gr * gc;
    debug_assert_eq!(data.len(), n * clen);
    // Position `cur` of the transposed grid receives the chunk at grid
    // position (cur mod gr, cur div gr) of the original.
    let inv = |cur: usize| (cur % gr) * gc + cur / gr;
    let mut visited = vec![false; n];
    let mut tmp: Vec<T> = Vec::with_capacity(clen);
    for s0 in 0..n {
        if visited[s0] {
            continue;
        }
        visited[s0] = true;
        if inv(s0) == s0 {
            continue;
        }
        tmp.clear();
        tmp.extend_from_slice(&data[s0 * clen..(s0 + 1) * clen]);
        let mut cur = s0;
        loop {
            let src = inv(cur);
            if src == s0 {
                data[cur * clen..(cur + 1) * clen].copy_from_slice(&tmp);
                break;
            }
            data.copy_within(src * clen..(src + 1) * clen, cur * clen);
            visited[src] = true;
            cur = src;
        }
    }
}

/// Pass 1: rotate every column `j` up by `⌊j/q⌋` rows.
/// Strip-buffered: a strip of columns is staged row-major (sequential
/// reads), then written back rotated with per-column incremental source
/// cursors — no division or multiplication in the element loop.
fn rotate_columns<T: Copy>(data: &mut [T], geom: &Geom, scratch: &mut Vec<T>) {
    let (rows, cols) = (geom.rows, geom.cols);
    let strip = geom.strip();
    let mut src = vec![0usize; strip];
    let mut s = 0;
    while s < cols {
        let w = strip.min(cols - s);
        scratch.clear();
        for row in data.chunks_exact(cols) {
            scratch.extend_from_slice(&row[s..s + w]);
        }
        for (jj, slot) in src[..w].iter_mut().enumerate() {
            *slot = (s + jj) / geom.q; // rotation amount < c <= rows
        }
        for row in data.chunks_exact_mut(cols) {
            for (jj, slot) in row[s..s + w].iter_mut().enumerate() {
                *slot = scratch[src[jj] * w + jj];
                src[jj] += 1;
                if src[jj] == rows {
                    src[jj] = 0;
                }
            }
        }
        s += w;
    }
}

/// Pass 2: scatter row `x`'s element at column `j` to column
/// `d_x(j) = (j·rows + (x + ⌊j/q⌋) mod rows) mod cols`, staging the
/// permuted row in `scratch` and copying it back. All cursor updates are
/// increment-and-wrap.
fn shuffle_row<T: Copy>(x: usize, row: &mut [T], geom: &Geom, scratch: &mut Vec<T>) {
    let (rows, cols, q) = (geom.rows, geom.cols, geom.q);
    scratch.clear();
    scratch.extend_from_slice(row);
    let step = rows % cols;
    let mut t1 = 0usize; // (j·rows) mod cols
    let mut t2 = x; // (x + ⌊j/q⌋) mod rows
    let mut t2m = x % cols; // t2 mod cols
    let mut in_q = 0usize; // j mod q
    for &v in scratch.iter() {
        let mut d = t1 + t2m;
        if d >= cols {
            d -= cols;
        }
        row[d] = v;
        t1 += step;
        if t1 >= cols {
            t1 -= cols;
        }
        in_q += 1;
        if in_q == q {
            in_q = 0;
            t2 += 1;
            if t2 == rows {
                t2 = 0;
                t2m = 0;
            } else {
                t2m += 1;
                if t2m == cols {
                    t2m = 0;
                }
            }
        }
    }
}

/// Pass 3: gather column `j`'s element for row `i` from row
/// `g_j(i) = (i·cols + j − ⌊i·c/rows⌋) mod rows`. Strip-buffered like
/// [`rotate_columns`], with an incremental `(source, remainder)` cursor
/// per column (`⌊i·c/rows⌋` advances by the carry of `rem += c`).
fn shuffle_columns<T: Copy>(data: &mut [T], geom: &Geom, scratch: &mut Vec<T>) {
    let (rows, cols, c) = (geom.rows, geom.cols, geom.c);
    let strip = geom.strip();
    let step = cols % rows;
    let mut src = vec![0usize; strip];
    let mut rem = vec![0usize; strip];
    let mut s = 0;
    while s < cols {
        let w = strip.min(cols - s);
        scratch.clear();
        for row in data.chunks_exact(cols) {
            scratch.extend_from_slice(&row[s..s + w]);
        }
        for jj in 0..w {
            src[jj] = (s + jj) % rows; // g_j(0) = j mod rows
            rem[jj] = 0;
        }
        for row in data.chunks_exact_mut(cols) {
            for (jj, slot) in row[s..s + w].iter_mut().enumerate() {
                *slot = scratch[src[jj] * w + jj];
                // Advance to g_j(i+1): add cols, subtract the carry of
                // ⌊(i+1)c/rows⌋, renormalize into [0, rows).
                rem[jj] += c;
                let carry = usize::from(rem[jj] >= rows);
                if carry == 1 {
                    rem[jj] -= rows;
                }
                let mut next = src[jj] + step + rows - carry;
                while next >= rows {
                    next -= rows;
                }
                src[jj] = next;
            }
        }
        s += w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive<T: Copy>(data: &[T], rows: usize, cols: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(data.len());
        for c in 0..cols {
            for r in 0..rows {
                out.push(data[r * cols + c]);
            }
        }
        out
    }

    #[test]
    fn matches_naive_for_every_small_shape() {
        for rows in 1..=24 {
            for cols in 1..=24 {
                let data: Vec<u32> = (0..(rows * cols) as u32).collect();
                let mut got = data.clone();
                transpose(&mut got, rows, cols);
                assert_eq!(got, naive(&data, rows, cols), "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn coprime_and_gcd_families() {
        for (rows, cols) in [
            (3, 5),
            (5, 3),
            (7, 16),
            (16, 7),
            (12, 8),
            (8, 12),
            (9, 6),
            (64, 48),
            (16, 16),
            (33, 33),
        ] {
            let data: Vec<u64> = (0..(rows * cols) as u64).collect();
            let mut got = data.clone();
            transpose(&mut got, rows, cols);
            assert_eq!(got, naive(&data, rows, cols), "{rows}x{cols}");
        }
    }

    #[test]
    fn degenerate_shapes_are_identity() {
        for (rows, cols) in [(1, 9), (9, 1), (1, 1), (0, 5), (5, 0)] {
            let data: Vec<u64> = (0..(rows * cols) as u64).collect();
            let mut got = data.clone();
            transpose(&mut got, rows, cols);
            assert_eq!(got, data, "{rows}x{cols}");
        }
    }

    #[test]
    fn narrow_strip_path_tall_matrix() {
        // rows large enough that the strip narrows below STRIP.
        let rows = SCRATCH_ELEMS / 8;
        let cols = 24;
        let data: Vec<u32> = (0..(rows * cols) as u32).collect();
        let mut got = data.clone();
        transpose(&mut got, rows, cols);
        assert_eq!(got, naive(&data, rows, cols));
    }

    #[test]
    fn transpose_roundtrip() {
        for (m, n) in [(4, 6), (6, 4), (5, 7), (8, 8), (1, 5), (16, 2)] {
            let data: Vec<u64> = (0..(m * n) as u64).collect();
            let mut buf = data.clone();
            transpose(&mut buf, m, n);
            transpose(&mut buf, n, m);
            assert_eq!(buf, data, "{m}x{n}");
        }
    }

    #[test]
    fn square_goes_through_the_same_path() {
        let n = 17;
        let data: Vec<u64> = (0..(n * n) as u64).collect();
        let mut got = data.clone();
        transpose(&mut got, n, n);
        assert_eq!(got, naive(&data, n, n));
    }

    #[test]
    #[should_panic(expected = "rows x cols")]
    fn shape_mismatch_rejected() {
        let mut data = vec![0u8; 5];
        transpose(&mut data, 2, 3);
    }
}

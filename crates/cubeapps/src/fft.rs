//! Radix-2 FFTs, local and distributed.
//!
//! The distributed transform is the classic transpose-based *four-step*
//! FFT: a length-`N = R·C` signal viewed as an `R × C` matrix needs
//! column FFTs, a twiddle scaling, and row FFTs — and making the columns
//! local is exactly the matrix transposition the paper optimizes (§1's
//! FACR motivation; the bit-reversal of §7 is the radix-2 butterfly
//! companion). The global communication of [`fft_four_step`] is two
//! transpositions through the standard exchange algorithm on the
//! simulated cube.

use crate::cplx::Cplx;
use cubecomm::{BlockMsg, BufferPolicy};
use cubelayout::{Assignment, Direction, DistMatrix, Encoding, Layout};
use cubesim::{CommReport, MachineParams, SimNet};
use cubetranspose::one_dim::transpose_1d_exchange;

/// In-place iterative radix-2 Cooley–Tukey FFT (forward transform,
/// `ω = e^{-2πi/n}`).
///
/// # Panics
/// Unless `data.len()` is a power of two.
pub fn fft_in_place(data: &mut [Cplx]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "radix-2 FFT needs a power-of-two length");
    if n <= 1 {
        return;
    }
    let bits = n.trailing_zeros();
    // Bit-reversed reordering (§7's permutation).
    for i in 0..n as u64 {
        let j = cubeaddr::bit_reverse(i, bits);
        if i < j {
            data.swap(i as usize, j as usize);
        }
    }
    let mut len = 2;
    while len <= n {
        let w_len = Cplx::omega(len, 1);
        for start in (0..n).step_by(len) {
            let mut w = Cplx::ONE;
            for k in 0..len / 2 {
                let a = data[start + k];
                let b = data[start + k + len / 2] * w;
                data[start + k] = a + b;
                data[start + k + len / 2] = a - b;
                w = w * w_len;
            }
        }
        len <<= 1;
    }
}

/// Inverse FFT (unnormalized conjugate trick, then scaled by `1/n`).
pub fn ifft_in_place(data: &mut [Cplx]) {
    for v in data.iter_mut() {
        *v = v.conj();
    }
    fft_in_place(data);
    let n = data.len() as f64;
    for v in data.iter_mut() {
        *v = v.conj().scale(1.0 / n);
    }
}

/// Naive `O(n²)` DFT, the verification reference.
pub fn dft_naive(data: &[Cplx]) -> Vec<Cplx> {
    let n = data.len();
    (0..n)
        .map(|k| {
            let mut acc = Cplx::ZERO;
            for (j, &x) in data.iter().enumerate() {
                acc += x * Cplx::omega(n, (j * k) % n);
            }
            acc
        })
        .collect()
}

/// The distributed four-step FFT of a length `2^(r+c)` signal over a
/// `2^n`-node simulated cube.
///
/// The signal `x[n1·C + n2]` is stored as an `R × C` matrix (`R = 2^r`
/// rows, `C = 2^c` columns), row-partitioned. Steps:
///
/// 1. transpose (columns become local rows);
/// 2. local length-`R` FFTs and the `ω_N^{k1·n2}` twiddle scaling;
/// 3. transpose back;
/// 4. local length-`C` FFTs.
///
/// Returns the spectrum in the `X[k1][k2]` grid (i.e. `X[k2·R + k1]` at
/// matrix position `(k1, k2)`) together with the communication report of
/// the two transpositions.
pub fn fft_four_step(
    signal: &[Cplx],
    r: u32,
    c: u32,
    n: u32,
    params: &MachineParams,
) -> (DistMatrix<Cplx>, CommReport) {
    let (rows, cols) = (1usize << r, 1usize << c);
    assert_eq!(signal.len(), rows * cols);
    let big_n = rows * cols;
    let layout_a =
        Layout::one_dim(r, c, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary);
    let layout_t =
        Layout::one_dim(c, r, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary);

    let a =
        DistMatrix::from_fn(layout_a.clone(), |n1, n2| signal[(n1 as usize) * cols + n2 as usize]);

    let mut net: SimNet<BlockMsg<Cplx>> = SimNet::new(n, params.clone());

    // Step 1: transpose → T[n2][n1] = x[n1·C + n2].
    let mut t = transpose_1d_exchange(&a, &layout_t, &mut net, BufferPolicy::Ideal);
    let report1 = net.finalize();

    // Step 2: local column FFTs (now rows of length R) + twiddles:
    // Y[k1][n2] gets ω_N^{k1·n2}; here the local row index is n2.
    per_local_row(&mut t, |n2, line| {
        fft_in_place(line);
        for (k1, v) in line.iter_mut().enumerate() {
            *v = *v * Cplx::omega(big_n, (k1 * n2 as usize) % big_n);
        }
    });

    // Step 3: transpose back → Z[k1][n2].
    let mut net: SimNet<BlockMsg<Cplx>> = SimNet::new(n, params.clone());
    let mut z = transpose_1d_exchange(&t, &layout_a, &mut net, BufferPolicy::Ideal);
    let mut report = net.finalize();

    // Step 4: local row FFTs over n2 → X[k1][k2].
    per_local_row(&mut z, |_, line| fft_in_place(line));

    report.merge(&report1);
    (z, report)
}

/// Applies `f(global_row_index, row)` to every local row of a
/// row-partitioned matrix.
fn per_local_row(m: &mut DistMatrix<Cplx>, mut f: impl FnMut(u64, &mut [Cplx])) {
    let layout = m.layout().clone();
    let (rows, cols) = (layout.local_rows(), layout.local_cols());
    for x in 0..layout.num_nodes() as u64 {
        let node = cubeaddr::NodeId(x);
        for rr in 0..rows {
            let (gr, _) = layout.element_at(node, (rr * cols) as u64);
            let buf = m.node_mut(node);
            f(gr, &mut buf[rr * cols..(rr + 1) * cols]);
        }
    }
}

/// Reads the four-step output grid back into natural spectrum order:
/// `X[k2·R + k1] = grid(k1, k2)`.
pub fn spectrum_from_grid(grid: &DistMatrix<Cplx>) -> Vec<Cplx> {
    let rows = 1usize << grid.layout().p();
    let cols = 1usize << grid.layout().q();
    let mut out = vec![Cplx::ZERO; rows * cols];
    for k1 in 0..rows as u64 {
        for k2 in 0..cols as u64 {
            out[(k2 as usize) * rows + k1 as usize] = grid.get(k1, k2);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::PortMode;

    fn close(a: &[Cplx], b: &[Cplx], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (*x - *y).abs() < tol)
    }

    fn signal(n: usize) -> Vec<Cplx> {
        (0..n).map(|i| Cplx::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos() * 0.5)).collect()
    }

    #[test]
    fn local_fft_matches_naive_dft() {
        for bits in 0..=8u32 {
            let mut data = signal(1 << bits);
            let want = dft_naive(&data);
            fft_in_place(&mut data);
            assert!(close(&data, &want, 1e-9), "length 2^{bits}");
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let orig = signal(256);
        let mut data = orig.clone();
        fft_in_place(&mut data);
        ifft_in_place(&mut data);
        assert!(close(&data, &orig, 1e-10));
    }

    #[test]
    fn parseval_energy_preserved() {
        let orig = signal(128);
        let mut data = orig.clone();
        fft_in_place(&mut data);
        let time_energy: f64 = orig.iter().map(|c| c.norm_sqr()).sum();
        let freq_energy: f64 = data.iter().map(|c| c.norm_sqr()).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn four_step_matches_naive_dft() {
        // N = 2^8 over a 2-cube, R = 2^4, C = 2^4.
        let x = signal(256);
        let params = MachineParams::unit(PortMode::OnePort);
        let (grid, report) = fft_four_step(&x, 4, 4, 2, &params);
        let got = spectrum_from_grid(&grid);
        let want = dft_naive(&x);
        assert!(close(&got, &want, 1e-8));
        assert!(report.rounds > 0, "the transposes must communicate");
    }

    #[test]
    fn four_step_rectangular_and_bigger_cube() {
        // N = 2^9, R = 2^5, C = 2^4, 8 nodes.
        let x = signal(512);
        let params = MachineParams::intel_ipsc();
        let (grid, _) = fft_four_step(&x, 5, 4, 3, &params);
        let got = spectrum_from_grid(&grid);
        let want = dft_naive(&x);
        assert!(close(&got, &want, 1e-8));
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Cplx::ZERO; 64];
        x[0] = Cplx::ONE;
        let params = MachineParams::unit(PortMode::OnePort);
        let (grid, _) = fft_four_step(&x, 3, 3, 2, &params);
        for v in spectrum_from_grid(&grid) {
            assert!((v - Cplx::ONE).abs() < 1e-10);
        }
    }
}

//! Poisson's problem by Fourier analysis (the FACR family) — the paper's
//! second motivation for fast transposition (§1).
//!
//! `∇²u = f` on a `2^p × 2^p` grid with homogeneous Dirichlet
//! boundaries: a discrete sine transform along the locally stored rows, a
//! matrix transposition (simulated cube), one tridiagonal solve per
//! Fourier mode, a transposition back, and the inverse transform.

use crate::tridiag::{thomas, ConstTridiag};
use cubecomm::{BlockMsg, BufferPolicy};
use cubelayout::{Assignment, Direction, DistMatrix, Encoding, Layout};
use cubesim::{CommReport, MachineParams, SimNet};
use cubetranspose::one_dim::transpose_1d_exchange;
use std::f64::consts::PI;

/// Discrete sine transform (DST-I) of `n` interior points.
pub fn dst(line: &[f64]) -> Vec<f64> {
    let n = line.len();
    (1..=n)
        .map(|k| {
            (0..n).map(|j| line[j] * ((j + 1) as f64 * k as f64 * PI / (n + 1) as f64).sin()).sum()
        })
        .collect()
}

/// Inverse DST-I (`dst` scaled by `2/(n+1)`).
pub fn idst(line: &[f64]) -> Vec<f64> {
    let n = line.len();
    dst(line).into_iter().map(|v| v * 2.0 / (n + 1) as f64).collect()
}

/// Solves `∇²u = f` (five-point Laplacian, unit spacing, homogeneous
/// Dirichlet boundaries) for a row-partitioned right-hand side, running
/// the two transposes through a simulated `2^n`-node cube.
///
/// Returns the solution (same layout as the input) and the combined
/// communication report.
pub fn solve_poisson(
    rhs: &DistMatrix<f64>,
    n: u32,
    params: &MachineParams,
) -> (DistMatrix<f64>, CommReport) {
    let layout = rhs.layout().clone();
    assert_eq!(layout.p(), layout.q(), "square grids only");
    let size = 1usize << layout.p();

    let mut work = rhs.clone();
    // 1. DST along x (local rows).
    per_row(&mut work, |_, line| dst(line));

    // 2. Transpose: modes become rows.
    let mut net: SimNet<BlockMsg<f64>> = SimNet::new(n, params.clone());
    let mut hat = transpose_1d_exchange(&work, &layout, &mut net, BufferPolicy::Ideal);
    let mut report = net.finalize();

    // 3. Per-mode tridiagonal solves along y.
    per_row(&mut hat, |k, line| {
        let diag = 2.0 * ((k + 1) as f64 * PI / (size + 1) as f64).cos() - 4.0;
        thomas(ConstTridiag { a: 1.0, b: diag, c: 1.0 }, line)
    });

    // 4. Transpose back and inverse transform.
    let mut net: SimNet<BlockMsg<f64>> = SimNet::new(n, params.clone());
    let mut sol = transpose_1d_exchange(&hat, &layout, &mut net, BufferPolicy::Ideal);
    let r2 = net.finalize();
    report.merge(&r2);
    per_row(&mut sol, |_, line| idst(line));
    (sol, report)
}

/// The row-partitioned layout FACR uses for a `2^p × 2^p` grid.
pub fn grid_layout(p: u32, n: u32) -> Layout {
    Layout::one_dim(p, p, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary)
}

/// Applies the five-point Laplacian (zero boundaries) — the residual
/// check's forward operator.
pub fn laplacian(u: &DistMatrix<f64>) -> Vec<Vec<f64>> {
    let dense = u.gather();
    let size = dense.len();
    let at = |y: i64, x: i64| -> f64 {
        if y < 0 || x < 0 || y as usize >= size || x as usize >= size {
            0.0
        } else {
            dense[y as usize][x as usize]
        }
    };
    (0..size as i64)
        .map(|y| {
            (0..size as i64)
                .map(|x| at(y - 1, x) + at(y + 1, x) + at(y, x - 1) + at(y, x + 1) - 4.0 * at(y, x))
                .collect()
        })
        .collect()
}

fn per_row(m: &mut DistMatrix<f64>, mut f: impl FnMut(u64, &[f64]) -> Vec<f64>) {
    let layout = m.layout().clone();
    let (rows, cols) = (layout.local_rows(), layout.local_cols());
    for x in 0..layout.num_nodes() as u64 {
        let node = cubeaddr::NodeId(x);
        for r in 0..rows {
            let (gr, _) = layout.element_at(node, (r * cols) as u64);
            let line = m.node(node)[r * cols..(r + 1) * cols].to_vec();
            let new = f(gr, &line);
            m.node_mut(node)[r * cols..(r + 1) * cols].copy_from_slice(&new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::PortMode;

    #[test]
    fn dst_is_self_inverse() {
        let line: Vec<f64> = (0..16).map(|i| (i as f64 * 0.4).sin()).collect();
        let back = idst(&dst(&line));
        for (a, b) in line.iter().zip(&back) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn eigenfunction_solved_exactly() {
        let (p, n) = (4u32, 2u32);
        let size = 1usize << p;
        let (a, b) = (2u32, 5u32);
        let s = |k: u32, j: u64| ((j + 1) as f64 * k as f64 * PI / (size + 1) as f64).sin();
        let lambda = 2.0 * (a as f64 * PI / (size + 1) as f64).cos()
            + 2.0 * (b as f64 * PI / (size + 1) as f64).cos()
            - 4.0;
        let layout = grid_layout(p, n);
        let rhs = DistMatrix::from_fn(layout.clone(), |y, x| lambda * s(b, y) * s(a, x));
        let (sol, report) = solve_poisson(&rhs, n, &MachineParams::unit(PortMode::OnePort));
        let dense = sol.gather();
        for (y, row) in dense.iter().enumerate() {
            for (x, &v) in row.iter().enumerate() {
                let want = s(b, y as u64) * s(a, x as u64);
                assert!((v - want).abs() < 1e-10, "({y}, {x})");
            }
        }
        assert!(report.rounds > 0);
    }

    #[test]
    fn random_rhs_residual_small() {
        let (p, n) = (4u32, 1u32);
        let layout = grid_layout(p, n);
        let rhs = DistMatrix::from_fn(layout.clone(), |y, x| {
            (((y * 37 + x * 17) % 11) as f64 - 5.0) / 3.0
        });
        let (sol, _) = solve_poisson(&rhs, n, &MachineParams::unit(PortMode::OnePort));
        let lap = laplacian(&sol);
        let dense_rhs = rhs.gather();
        let mut err: f64 = 0.0;
        for y in 0..(1 << p) {
            for x in 0..(1 << p) {
                err = err.max((lap[y][x] - dense_rhs[y][x]).abs());
            }
        }
        assert!(err < 1e-9, "residual {err}");
    }

    #[test]
    fn solution_unique_zero_for_zero_rhs() {
        let layout = grid_layout(3, 1);
        let rhs = DistMatrix::from_fn(layout, |_, _| 0.0);
        let (sol, _) = solve_poisson(&rhs, 1, &MachineParams::unit(PortMode::OnePort));
        assert!(sol.gather().iter().flatten().all(|v| v.abs() < 1e-12));
    }
}

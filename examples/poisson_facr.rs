//! Poisson's problem by Fourier analysis — the paper's second motivating
//! application ("the solution of Poisson's problem by the Fourier
//! Analysis Cyclic Reduction (FACR) method", §1).
//!
//! `∇²u = f` on a square grid with homogeneous Dirichlet boundaries:
//!
//! 1. a discrete sine transform along every grid row (rows are local
//!    under the 1D row partitioning);
//! 2. **matrix transposition** (simulated cube, standard exchange
//!    algorithm under Intel-iPSC cost constants) so the Fourier modes'
//!    y-lines become local;
//! 3. one tridiagonal solve per mode (Thomas algorithm);
//! 4. transpose back and inverse-transform.
//!
//! The result is checked against a manufactured exact solution of the
//! *discrete* operator, so the error must be at rounding level.
//!
//! Run with `cargo run --example poisson_facr`.

use boolcube::comm::BufferPolicy;
use boolcube::layout::{Assignment, Direction, DistMatrix, Encoding, Layout};
use boolcube::sim::{CommReport, MachineParams, SimNet};
use boolcube::transpose::one_dim::transpose_1d_exchange;
use std::f64::consts::PI;

/// Discrete sine transform (DST-I) of a line of `n` interior points.
fn dst(line: &[f64]) -> Vec<f64> {
    let n = line.len();
    (1..=n)
        .map(|k| {
            (0..n).map(|j| line[j] * ((j + 1) as f64 * k as f64 * PI / (n + 1) as f64).sin()).sum()
        })
        .collect()
}

/// Inverse DST-I (self-inverse up to the factor `2/(n+1)`).
fn idst(line: &[f64]) -> Vec<f64> {
    let n = line.len();
    dst(line).into_iter().map(|v| v * 2.0 / (n + 1) as f64).collect()
}

/// Thomas solve of `(λ_k - 2)·x_i + x_{i-1} + x_{i+1} = d_i` — the
/// per-mode tridiagonal system of the five-point Laplacian after the DST
/// in x; `λ_k = 2·cos(kπ/(n+1)) ` makes the diagonal `λ_k - 2 - 2 = -4 +
/// 2cos(...)`. We write the generic constant-diagonal solver.
fn thomas_const(diag: f64, d: &[f64]) -> Vec<f64> {
    let n = d.len();
    let mut cp = vec![0.0; n];
    let mut dp = vec![0.0; n];
    cp[0] = 1.0 / diag;
    dp[0] = d[0] / diag;
    for i in 1..n {
        let m = diag - cp[i - 1];
        cp[i] = 1.0 / m;
        dp[i] = (d[i] - dp[i - 1]) / m;
    }
    let mut x = vec![0.0; n];
    x[n - 1] = dp[n - 1];
    for i in (0..n - 1).rev() {
        x[i] = dp[i] - cp[i] * x[i + 1];
    }
    x
}

fn per_row(m: &mut DistMatrix<f64>, mut f: impl FnMut(u64, &[f64]) -> Vec<f64>) {
    let layout = m.layout().clone();
    let (rows, cols) = (layout.local_rows(), layout.local_cols());
    for x in 0..layout.num_nodes() as u64 {
        let node = boolcube::addr::NodeId(x);
        for r in 0..rows {
            let (gr, _) = layout.element_at(node, (r * cols) as u64);
            let line = m.node(node)[r * cols..(r + 1) * cols].to_vec();
            let new = f(gr, &line);
            m.node_mut(node)[r * cols..(r + 1) * cols].copy_from_slice(&new);
        }
    }
}

/// Solves `∇²u = f` (five-point Laplacian, unit spacing, homogeneous
/// Dirichlet boundaries) for a row-partitioned right-hand side on the
/// simulated `2^n`-node iPSC: DST along the rows, transpose, one
/// tridiagonal solve per mode, transpose back, inverse DST. Returns the
/// solution and the reports of the two transposes.
fn solve(rhs: &DistMatrix<f64>, n: u32) -> (DistMatrix<f64>, CommReport, CommReport) {
    let layout = rhs.layout().clone();
    let size = 1usize << layout.p();
    let mut work = rhs.clone();

    // 1. DST along x (local rows).
    per_row(&mut work, |_, line| dst(line));

    // 2. Transpose on the simulated iPSC.
    let params = MachineParams::intel_ipsc();
    let mut net = SimNet::new(n, params.clone());
    let mut hat = transpose_1d_exchange(
        &work,
        &layout,
        &mut net,
        BufferPolicy::Buffered { min_direct: params.b_copy() },
    );
    let r1 = net.finalize();

    // 3. Per-mode tridiagonal solves: mode k lives on (transposed) row k.
    per_row(&mut hat, |k, line| {
        let diag = 2.0 * ((k + 1) as f64 * PI / (size + 1) as f64).cos() - 4.0;
        thomas_const(diag, line)
    });

    // 4. Transpose back and inverse transform.
    let mut net = SimNet::new(n, params);
    let mut sol = transpose_1d_exchange(&hat, &layout, &mut net, BufferPolicy::Ideal);
    let r2 = net.finalize();
    per_row(&mut sol, |_, line| idst(line));
    (sol, r1, r2)
}

/// The five-point Laplacian of a dense grid with zero boundaries: the
/// forward operator the residual check applies.
fn laplacian(u: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let size = u.len();
    let at = |y: usize, x: usize, dy: isize, dx: isize| -> f64 {
        match (y.checked_add_signed(dy), x.checked_add_signed(dx)) {
            (Some(y), Some(x)) if y < size && x < size => u[y][x],
            _ => 0.0,
        }
    };
    (0..size)
        .map(|y| {
            (0..size)
                .map(|x| {
                    at(y, x, -1, 0) + at(y, x, 1, 0) + at(y, x, 0, -1) + at(y, x, 0, 1)
                        - 4.0 * u[y][x]
                })
                .collect()
        })
        .collect()
}

/// The largest entry-wise difference of two dense grids.
fn max_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    a.iter().flatten().zip(b.iter().flatten()).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

fn main() {
    // 32 × 32 interior grid on a 4-cube.
    let (p, n) = (5u32, 2u32);
    let size = 1usize << p;
    let layout =
        Layout::one_dim(p, p, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary);

    // The sine transform is its own inverse up to the factor 2/(n+1).
    let line: Vec<f64> = (0..16).map(|i| (i as f64 * 0.4).sin()).collect();
    let back = idst(&dst(&line));
    let err = line.iter().zip(&back).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
    assert!(err < 1e-10, "idst(dst(x)) differs from x by {err}");

    // Manufactured solution: u = sin(a·x)·sin(b·y) is an eigenfunction of
    // the discrete Laplacian with eigenvalue λ = 2cos(aπ/(N+1)) +
    // 2cos(bπ/(N+1)) - 4 (unit grid spacing).
    let (a, b) = (3u32, 5u32);
    let freq = |k: u32, j: u64| ((j + 1) as f64 * k as f64 * PI / (size + 1) as f64).sin();
    let lambda = 2.0 * (a as f64 * PI / (size + 1) as f64).cos()
        + 2.0 * (b as f64 * PI / (size + 1) as f64).cos()
        - 4.0;
    let u_exact = DistMatrix::from_fn(layout.clone(), |y, x| freq(b, y) * freq(a, x));
    let rhs = DistMatrix::from_fn(layout.clone(), |y, x| lambda * freq(b, y) * freq(a, x));

    println!("Poisson solve, {size}×{size} grid, {} simulated nodes\n", layout.num_nodes());
    let (sol, r1, r2) = solve(&rhs, n);
    println!("transpose 1: {}", r1.summary());
    println!("transpose 2: {}", r2.summary());

    // Compare.
    let err = max_diff(&u_exact.gather(), &sol.gather());
    println!("\nmax |u - u_exact| = {err:.3e}");
    assert!(err < 1e-10, "solver inaccurate: {err}");

    // A zero right-hand side has the zero solution only.
    let (zero, _, _) = solve(&DistMatrix::from_fn(layout.clone(), |_, _| 0.0), n);
    assert!(zero.gather().iter().flatten().all(|v| v.abs() < 1e-12), "nonzero solution for f = 0");

    // A rough right-hand side: the solution's discrete Laplacian gives it
    // back.
    let rough = DistMatrix::from_fn(layout, |y, x| (((y * 37 + x * 17) % 11) as f64 - 5.0) / 3.0);
    let (sol, _, _) = solve(&rough, n);
    let residual = max_diff(&laplacian(&sol.gather()), &rough.gather());
    assert!(residual < 1e-9, "residual {residual}");
    println!("verified: FACR-style solve reproduces the manufactured solution.");
}

//! Alternating Direction Implicit (ADI) heat diffusion on a distributed
//! grid — the paper's motivating application ("the solution of partial
//! differential equations by the Alternating Direction Method is
//! typically carried out by transposing the data between the solution
//! phases in the different directions", §1).
//!
//! The temperature field is partitioned by rows over a real
//! **message-passing cube** (every node a virtual node of the `cuberun`
//! worker pool, one inbox per node).
//! Each Peaceman–Rachford half-step solves tridiagonal systems along one
//! grid direction; rows are local, so the x-sweep needs no communication,
//! and a full matrix transposition (the standard exchange algorithm,
//! executed as an SPMD node program on that runtime) makes the y-lines
//! local for the second half-step.
//!
//! Run with `cargo run --example adi_heat`.

use boolcube::layout::{Assignment, Direction, DistMatrix, Encoding, Layout};
use boolcube::transpose::spmd::spmd_transpose_exchange;

/// Solves the tridiagonal system `(1 + 2r)·x_i - r·(x_{i-1} + x_{i+1}) =
/// d_i` with homogeneous Dirichlet boundaries by the Thomas algorithm.
fn thomas(r: f64, d: &[f64], out: &mut [f64]) {
    let n = d.len();
    let b = 1.0 + 2.0 * r;
    let mut cp = vec![0.0; n];
    let mut dp = vec![0.0; n];
    cp[0] = -r / b;
    dp[0] = d[0] / b;
    for i in 1..n {
        let m = b + r * cp[i - 1];
        cp[i] = -r / m;
        dp[i] = (d[i] + r * dp[i - 1]) / m;
    }
    out[n - 1] = dp[n - 1];
    for i in (0..n - 1).rev() {
        out[i] = dp[i] - cp[i] * out[i + 1];
    }
}

/// One implicit sweep along the local rows: every line of `cols` points
/// is an independent tridiagonal solve. The explicit half uses the
/// transverse neighbors, which are local too (whole rows are owned).
fn sweep_rows(m: &mut DistMatrix<f64>, r: f64) {
    let layout = m.layout().clone();
    let (rows, cols) = (layout.local_rows(), layout.local_cols());
    for x in 0..layout.num_nodes() as u64 {
        let buf = m.node_mut(cubeaddr_node(x));
        let mut line = vec![0.0; cols];
        for row in 0..rows {
            let seg = &buf[row * cols..(row + 1) * cols];
            thomas(r, seg, &mut line);
            buf[row * cols..(row + 1) * cols].copy_from_slice(&line);
        }
    }
}

fn cubeaddr_node(x: u64) -> boolcube::addr::NodeId {
    boolcube::addr::NodeId(x)
}

fn main() {
    // 64 × 64 grid on an 8-node cube (8 threads), rows consecutive.
    let (p, n) = (6u32, 3u32);
    let size = 1usize << p;
    let layout =
        Layout::one_dim(p, p, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary);
    // The transposed field uses the same partitioning rule.
    let layout_t = layout.clone();

    // Initial condition: a hot square in the middle.
    let mut field = DistMatrix::from_fn(layout.clone(), |u, v| {
        let (u, v) = (u as i64 - size as i64 / 2, v as i64 - size as i64 / 2);
        if u.abs() < 8 && v.abs() < 8 {
            100.0
        } else {
            0.0
        }
    });
    let heat = |m: &DistMatrix<f64>| -> f64 { m.gather().iter().flatten().sum::<f64>() };
    let peak = |m: &DistMatrix<f64>| -> f64 {
        m.gather().iter().flatten().cloned().fold(0.0_f64, f64::max)
    };

    let r = 0.4; // α·Δt / (2·Δx²)
    let steps = 10;
    println!(
        "ADI heat diffusion: {size}×{size} grid, {} threads, {} steps, r = {r}\n",
        layout.num_nodes(),
        steps
    );
    println!("step   peak temperature    total heat    transpose msgs");
    println!("   0   {:16.4}    {:10.2}    -", peak(&field), heat(&field));

    let mut total_msgs = 0u64;
    for step in 1..=steps {
        // x-sweep: rows are local.
        sweep_rows(&mut field, r);
        // Transpose (real message passing on the virtual-node runtime).
        let (transposed, stats1) = spmd_transpose_exchange(&field, &layout_t);
        field = transposed;
        // y-sweep: former columns are now local rows.
        sweep_rows(&mut field, r);
        // Transpose back.
        let (back, stats2) = spmd_transpose_exchange(&field, &layout);
        field = back;
        total_msgs += stats1.messages + stats2.messages;
        println!(
            "{step:4}   {:16.4}    {:10.2}    {}",
            peak(&field),
            heat(&field),
            stats1.messages + stats2.messages
        );
    }

    // Diffusion sanity: the peak must decay monotonically and the field
    // stays symmetric under the quarter-turn symmetry of the data.
    let dense = field.gather();
    let mut asym: f64 = 0.0;
    // Indexed on purpose: compares `dense[u][v]` against its transpose
    // `dense[v][u]`.
    #[allow(clippy::needless_range_loop)]
    for u in 0..size {
        for v in 0..size {
            asym = asym.max((dense[u][v] - dense[v][u]).abs());
        }
    }
    println!("\nfinal peak {:.4}, transpose symmetry error {asym:.2e}", peak(&field));
    println!("total messages over {} time steps: {total_msgs}", steps);
    assert!(peak(&field) < 100.0);
    assert!(asym < 1e-9, "symmetric initial data must stay symmetric");
    println!("verified: peak decays and symmetry is preserved.");
}

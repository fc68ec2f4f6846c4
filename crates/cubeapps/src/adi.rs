//! Alternating Direction Implicit (ADI / Peaceman–Rachford) heat
//! diffusion on a distributed grid — the paper's first motivation for
//! fast transposition (§1).
//!
//! The field is row-partitioned; each half-step solves tridiagonal
//! systems along one grid direction. Rows are local, so the x-sweep
//! needs no communication; a matrix transposition makes the y-lines
//! local for the second half-step, and a second transposition restores
//! the orientation. Communication runs through the simulated cube, so
//! each time step's transpose cost is accounted under the paper's model.

use crate::tridiag::{thomas, ConstTridiag};
use cubecomm::{BlockMsg, BufferPolicy};
use cubelayout::{Assignment, Direction, DistMatrix, Encoding, Layout};
use cubesim::{MachineParams, SimNet};
use cubetranspose::one_dim::transpose_1d_exchange;

/// An ADI heat-diffusion problem on a `2^p × 2^p` grid over a `2^n`-node
/// cube.
pub struct AdiSolver {
    layout: Layout,
    n: u32,
    /// `r = α·Δt / (2Δx²)` — the implicit half-step coefficient.
    pub r: f64,
    params: MachineParams,
    /// Accumulated simulated communication time over all steps.
    pub comm_time: f64,
    /// Accumulated transpose count.
    pub transposes: usize,
}

impl AdiSolver {
    /// Creates a solver (`p` grid bits per side, `n` cube dimensions).
    ///
    /// # Panics
    /// If `n > p` (more processors than rows).
    #[track_caller]
    pub fn new(p: u32, n: u32, r: f64, params: MachineParams) -> Self {
        assert!(n <= p, "need at least one row per node");
        let layout =
            Layout::one_dim(p, p, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary);
        AdiSolver { layout, n, r, params, comm_time: 0.0, transposes: 0 }
    }

    /// The field layout (row-partitioned).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Builds the initial field from `f(y, x)`.
    pub fn init(&self, f: impl FnMut(u64, u64) -> f64) -> DistMatrix<f64> {
        DistMatrix::from_fn(self.layout.clone(), f)
    }

    /// One implicit sweep along the local rows:
    /// `(1 + 2r)·x_i - r(x_{i-1} + x_{i+1}) = d_i` per line.
    fn sweep_rows(&self, m: &mut DistMatrix<f64>) {
        let layout = m.layout().clone();
        let (rows, cols) = (layout.local_rows(), layout.local_cols());
        let sys = ConstTridiag { a: -self.r, b: 1.0 + 2.0 * self.r, c: -self.r };
        for x in 0..layout.num_nodes() as u64 {
            let buf = m.node_mut(cubeaddr::NodeId(x));
            for row in 0..rows {
                let seg = buf[row * cols..(row + 1) * cols].to_vec();
                let solved = thomas(sys, &seg);
                buf[row * cols..(row + 1) * cols].copy_from_slice(&solved);
            }
        }
    }

    fn transpose(&mut self, m: &DistMatrix<f64>) -> DistMatrix<f64> {
        let after = m.layout().swapped_shape();
        let mut net: SimNet<BlockMsg<f64>> = SimNet::new(self.n, self.params.clone());
        let out = transpose_1d_exchange(
            m,
            &after,
            &mut net,
            BufferPolicy::Buffered { min_direct: self.params.b_copy() },
        );
        let r = net.finalize();
        self.comm_time += r.time;
        self.transposes += 1;
        out
    }

    /// Advances one full ADI time step (x-sweep, transpose, y-sweep,
    /// transpose back).
    pub fn step(&mut self, field: DistMatrix<f64>) -> DistMatrix<f64> {
        let mut f = field;
        self.sweep_rows(&mut f);
        let mut t = self.transpose(&f);
        self.sweep_rows(&mut t);
        self.transpose(&t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::PortMode;

    fn solver() -> AdiSolver {
        AdiSolver::new(5, 2, 0.3, MachineParams::unit(PortMode::OnePort))
    }

    fn hot_spot(s: &AdiSolver) -> DistMatrix<f64> {
        let size = 1i64 << 5;
        s.init(|y, x| {
            let (y, x) = (y as i64 - size / 2, x as i64 - size / 2);
            if y.abs() < 4 && x.abs() < 4 {
                100.0
            } else {
                0.0
            }
        })
    }

    fn peak(m: &DistMatrix<f64>) -> f64 {
        m.gather().iter().flatten().cloned().fold(f64::MIN, f64::max)
    }

    fn heat(m: &DistMatrix<f64>) -> f64 {
        m.gather().iter().flatten().sum()
    }

    #[test]
    fn peak_decays_monotonically() {
        let mut s = solver();
        let mut field = hot_spot(&s);
        let mut prev = peak(&field);
        for _ in 0..5 {
            field = s.step(field);
            let p = peak(&field);
            assert!(p < prev);
            prev = p;
        }
        assert_eq!(s.transposes, 10);
        assert!(s.comm_time > 0.0);
    }

    #[test]
    fn symmetry_preserved() {
        let mut s = solver();
        let mut field = hot_spot(&s);
        for _ in 0..3 {
            field = s.step(field);
        }
        let dense = field.gather();
        // Indexed on purpose: compares each entry with its transpose.
        #[allow(clippy::needless_range_loop)]
        for y in 0..32 {
            for x in 0..32 {
                assert!((dense[y][x] - dense[x][y]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn near_conservation_away_from_boundary() {
        // The interior-localized pulse keeps total heat almost constant
        // for early steps (boundary losses are exponentially small).
        let mut s = solver();
        let mut field = hot_spot(&s);
        let initial = heat(&field);
        for _ in 0..3 {
            field = s.step(field);
        }
        assert!((heat(&field) - initial).abs() / initial < 1e-6);
    }

    #[test]
    fn steady_state_is_zero() {
        // Many steps with strong diffusion: everything drains through the
        // Dirichlet boundary.
        let mut s = AdiSolver::new(4, 1, 2.0, MachineParams::unit(PortMode::OnePort));
        let mut field = s.init(|_, _| 1.0);
        for _ in 0..200 {
            field = s.step(field);
        }
        assert!(peak(&field) < 1e-3);
    }
}

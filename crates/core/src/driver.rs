//! Algorithm selection: plan the best transpose for a problem and a
//! machine.
//!
//! The paper's guidance, condensed (§5, §6, §9):
//!
//! * pairwise specs (`I = R_b = R_a`, node map `tr`) on n-port machines →
//!   MPT with Theorem 2's packet count; on one-port machines → the
//!   step-by-step SPT;
//! * all-to-all specs (`I = ∅`) on one-port machines → the exchange
//!   algorithm with the optimum buffering threshold `B_copy = τ/t_copy`;
//!   on n-port machines → SBnT routing;
//! * everything else → the exchange algorithm over the covering dimension
//!   set (correct for any pair of layouts).
//!
//! [`plan`] picks; [`execute`] runs the choice and returns the output
//! with the communication report, so callers can audit the decision.

use crate::one_dim::{transpose_1d_exchange, transpose_1d_sbnt};
use crate::two_dim::{transpose_mpt, transpose_spt_stepwise, Packet};
use cubecomm::{BlockMsg, BufferPolicy};
use cubelayout::{CommPattern, DistMatrix, Layout, TransposeSpec};
use cubesim::{CommReport, MachineParams, PortMode, SimNet};

/// The algorithm a [`plan`] selected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Choice {
    /// No data movement needed.
    Local,
    /// Step-by-step Single Path Transpose (pairwise, one-port machines).
    SptStepwise,
    /// Multiple Paths Transpose with the given burst count (pairwise,
    /// n-port machines).
    Mpt {
        /// Bursts per path pair (`k` of §6.1.3).
        k: u32,
    },
    /// Standard exchange algorithm with the optimum buffering threshold.
    ExchangeBuffered {
        /// Minimum chunk size sent without gathering.
        min_direct: usize,
    },
    /// n-port spanning-balanced-n-tree routing.
    Sbnt,
}

/// Chooses an algorithm for transposing `before` into `after` on a
/// machine with the given parameters.
pub fn plan(before: &Layout, after: &Layout, params: &MachineParams) -> Choice {
    let spec = TransposeSpec::with_after(before.clone(), after.clone());
    let n = before.n().max(after.n());
    match spec.classify() {
        CommPattern::Local => Choice::Local,
        CommPattern::PairwiseExchange
            if n >= 2 && n.is_multiple_of(2) && before.n_r() == before.n_c() =>
        {
            match params.ports {
                PortMode::AllPorts => {
                    // Theorem 2's optimal k: ≈ (1/n)·√(PQ·t_c/2Nτ),
                    // clamped to ≥ 1.
                    let pq = 1u64 << (before.p() + before.q());
                    let big_n = before.num_nodes() as f64;
                    let k = ((pq as f64 * params.t_c / (2.0 * big_n * params.tau)).sqrt()
                        / n as f64)
                        .round()
                        .max(1.0) as u32;
                    Choice::Mpt { k }
                }
                PortMode::OnePort => Choice::SptStepwise,
            }
        }
        CommPattern::AllToAll | CommPattern::SomeToAll { .. } => match params.ports {
            PortMode::AllPorts => Choice::Sbnt,
            PortMode::OnePort => Choice::ExchangeBuffered { min_direct: params.b_copy() },
        },
        // Pairwise with odd n or unequal row/column fields, and the
        // general mixed case: the exchange engine routes anything.
        _ => Choice::ExchangeBuffered { min_direct: params.b_copy() },
    }
}

/// Plans and executes the transpose; returns the result, the choice made,
/// and the simulated communication report.
///
/// ```
/// use cubelayout::{Assignment, Encoding, Layout};
/// use cubesim::MachineParams;
/// use cubetranspose::{driver, verify};
///
/// let before = Layout::square(4, 4, 2, Assignment::Consecutive, Encoding::Binary);
/// let after = before.swapped_shape();
/// let matrix = verify::labels(before.clone());
/// let (out, choice, report) = driver::execute(&matrix, &after, &MachineParams::intel_ipsc());
/// verify::assert_transposed(&before, &out);
/// assert_eq!(choice, driver::Choice::SptStepwise); // one-port machine
/// assert!(report.time > 0.0);
/// ```
pub fn execute<T: Copy + Default + Send + Sync>(
    m: &DistMatrix<T>,
    after: &Layout,
    params: &MachineParams,
) -> (DistMatrix<T>, Choice, CommReport) {
    let choice = plan(m.layout(), after, params);
    let n = m.layout().n().max(after.n());
    match choice {
        Choice::Local => {
            // Same placement for every element: relabel only.
            let out = DistMatrix::from_buffers(after.clone(), m.clone().into_buffers());
            (out, choice, CommReport::default())
        }
        Choice::SptStepwise => {
            // The iPSC implementation overlaps the step's send and receive
            // through the router; model it on all ports (§8.2.1).
            let mut net: SimNet<Packet<T>> =
                SimNet::new(n, params.clone().with_ports(PortMode::AllPorts));
            let out = transpose_spt_stepwise(m, after, &mut net);
            (out, choice, net.finalize())
        }
        Choice::Mpt { k } => {
            let mut net: SimNet<Packet<T>> = SimNet::new(n, params.clone());
            let out = transpose_mpt(m, after, &mut net, k);
            (out, choice, net.finalize())
        }
        Choice::ExchangeBuffered { min_direct } => {
            let mut net: SimNet<BlockMsg<T>> = SimNet::new(n, params.clone());
            let out =
                transpose_1d_exchange(m, after, &mut net, BufferPolicy::Buffered { min_direct });
            (out, choice, net.finalize())
        }
        Choice::Sbnt => {
            let mut net: SimNet<BlockMsg<T>> = SimNet::new(n, params.clone());
            let out = transpose_1d_sbnt(m, after, &mut net);
            (out, choice, net.finalize())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_transposed, labels};
    use cubelayout::{Assignment, Direction, Encoding};

    #[test]
    fn pairwise_one_port_chooses_spt() {
        let before = Layout::square(4, 4, 2, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        let params = MachineParams::intel_ipsc();
        assert_eq!(plan(&before, &after, &params), Choice::SptStepwise);
        let m = labels(before.clone());
        let (out, _, report) = execute(&m, &after, &params);
        assert_transposed(&before, &out);
        assert!(report.time > 0.0);
    }

    #[test]
    fn pairwise_all_port_chooses_mpt() {
        let before = Layout::square(5, 5, 2, Assignment::Cyclic, Encoding::Binary);
        let after = before.swapped_shape();
        let params = MachineParams::intel_ipsc().with_ports(PortMode::AllPorts);
        match plan(&before, &after, &params) {
            Choice::Mpt { k } => assert!(k >= 1),
            other => panic!("expected MPT, got {other:?}"),
        }
        let m = labels(before.clone());
        let (out, _, _) = execute(&m, &after, &params);
        assert_transposed(&before, &out);
    }

    #[test]
    fn one_dim_chooses_exchange_or_sbnt() {
        let before =
            Layout::one_dim(4, 4, Direction::Rows, 3, Assignment::Consecutive, Encoding::Binary);
        let after =
            Layout::one_dim(4, 4, Direction::Rows, 3, Assignment::Consecutive, Encoding::Binary);
        let one = MachineParams::intel_ipsc();
        assert_eq!(
            plan(&before, &after, &one),
            Choice::ExchangeBuffered { min_direct: one.b_copy() }
        );
        let all = one.clone().with_ports(PortMode::AllPorts);
        assert_eq!(plan(&before, &after, &all), Choice::Sbnt);
        let m = labels(before.clone());
        for params in [one, all] {
            let (out, _, _) = execute(&m, &after, &params);
            assert_transposed(&before, &out);
        }
    }

    #[test]
    fn vector_transpose_is_local() {
        let before =
            Layout::one_dim(0, 4, Direction::Cols, 2, Assignment::Cyclic, Encoding::Binary);
        let after = before.relabeled();
        let params = MachineParams::intel_ipsc();
        assert_eq!(plan(&before, &after, &params), Choice::Local);
        let m = labels(before.clone());
        let (out, _, report) = execute(&m, &after, &params);
        assert_eq!(report.time, 0.0);
        assert_transposed(&before, &out);
    }

    #[test]
    fn mixed_spec_falls_back_to_exchange() {
        // Consecutive rows / cyclic columns: all-to-all (I = ∅) — either
        // branch is exchange-family; just verify execution.
        let before = Layout::two_dim(
            4,
            4,
            (1, Assignment::Consecutive, Encoding::Binary),
            (1, Assignment::Cyclic, Encoding::Binary),
        );
        let after = before.swapped_shape();
        let params = MachineParams::intel_ipsc();
        let m = labels(before.clone());
        let (out, choice, _) = execute(&m, &after, &params);
        assert!(matches!(choice, Choice::ExchangeBuffered { .. }));
        assert_transposed(&before, &out);
    }
}

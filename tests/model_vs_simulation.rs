//! Simulated times versus the paper's closed-form models, across a grid
//! of problem and machine parameters. Where the paper gives an exact
//! expression the simulator must match it exactly; where the expression
//! is an optimum/bound the simulator must respect it.

use boolcube::comm::exec;
use boolcube::comm::plan::{self, CommSchedule};
use boolcube::comm::sbt::Sbt;
use boolcube::comm::BufferPolicy;
use boolcube::layout::{Assignment, Direction, Encoding, Layout};
use boolcube::model;
use boolcube::sim::{CommReport, MachineParams, PortMode, SimNet};
use boolcube::transpose::{self, verify};
use cubeaddr::{DimSet, NodeId};

/// `b` elements from every node to every node of the `n`-cube.
fn uniform_sizes(n: u32, b: usize) -> Vec<Vec<u64>> {
    vec![vec![b as u64; 1 << n]; 1 << n]
}

/// The report of charging `plan` to an `n`-cube under `params`.
fn run(n: u32, plan: &CommSchedule, params: &MachineParams) -> CommReport {
    let mut net: SimNet<u64> = SimNet::new(n, params.clone());
    exec::run(&mut net, plan);
    net.finalize()
}

/// One-to-all SBT: exact match with the §3.1 formula for every B_m.
#[test]
fn one_to_all_sbt_exact() {
    for n in [2u32, 3, 4, 5] {
        for b in [1usize, 8, 64] {
            for bm in [usize::MAX, 16, 4] {
                let params = MachineParams::unit(PortMode::OnePort).with_max_packet(bm);
                let plan = plan::one_to_all_sbt_plan(n, NodeId(0), &vec![b as u64; 1 << n]);
                let r = run(n, &plan, &params);
                let pq = (b << n) as u64;
                let expect = model::one_to_all::sbt_one_port(pq, n, &params);
                assert!(
                    (r.time - expect).abs() < 1e-9,
                    "n={n} b={b} bm={bm}: {} vs {expect}",
                    r.time
                );
            }
        }
    }
}

/// Rotated SBTs: exact match when n divides the block size.
#[test]
fn rotated_sbts_exact() {
    for n in [2u32, 4] {
        let b = 4 * n as usize;
        let params = MachineParams::unit(PortMode::AllPorts);
        let trees = Sbt::k_rotated(n, NodeId(0), n);
        let r = run(n, &plan::one_to_all_trees_plan(n, &vec![b as u64; 1 << n], &trees), &params);
        let pq = (b << n) as u64;
        let expect = model::one_to_all::rotated_sbts_all_port_min(pq, n, &params);
        assert!((r.time - expect).abs() < 1e-9, "n={n}: {} vs {expect}", r.time);
    }
}

/// All-to-all by the exchange algorithm: exact match with
/// `n(PQ/2N·t_c + ⌈PQ/2NB_m⌉τ)` for every packet limit.
#[test]
fn all_to_all_exchange_exact() {
    for n in [2u32, 3, 4] {
        for b in [2usize, 8] {
            for bm in [usize::MAX, 8, 2] {
                let params = MachineParams::unit(PortMode::OnePort).with_max_packet(bm);
                let sizes = uniform_sizes(n, b);
                let plan = plan::all_to_all_exchange_plan(
                    n,
                    &sizes,
                    BufferPolicy::Ideal,
                    PortMode::OnePort,
                );
                let r = run(n, &plan, &params);
                let pq = (b << (2 * n)) as u64;
                let expect = model::all_to_all::exchange_one_port(pq, n, &params);
                assert!(
                    (r.time - expect).abs() < 1e-9,
                    "n={n} b={b} bm={bm}: {} vs {expect}",
                    r.time
                );
            }
        }
    }
}

/// SBnT all-to-all: within a factor 2 of the n-port optimum and above
/// the lower bound.
#[test]
fn sbnt_within_factor_two() {
    for n in [3u32, 4, 5] {
        let b = 16usize;
        let params = MachineParams::unit(PortMode::AllPorts);
        let r = run(n, &plan::all_to_all_sbnt_plan(n, &uniform_sizes(n, b)), &params);
        let pq = (b << (2 * n)) as u64;
        let opt = model::all_to_all::sbnt_all_port_min(pq, n, &params);
        let lb = model::all_to_all::lower_bound(pq, n, &params);
        assert!(r.time >= lb - 1e-9, "n={n}: below lower bound");
        assert!(r.time <= 2.0 * opt + 1e-9, "n={n}: {} vs 2×{opt}", r.time);
    }
}

/// Table 3 (one-port): the simulated some-to-all time matches the model
/// exactly for the split-first order.
#[test]
fn table3_one_port_exact() {
    let n = 4u32;
    for k in 0..=n {
        let l = n - k;
        let l_dims = DimSet::range(0, l);
        let k_dims = DimSet::range(l, n);
        let sources = 1usize << l;
        let b = 8usize;
        let num = 1usize << n;
        // Each source holds PQ/2^l elements = num·b.
        let sizes = vec![vec![b as u64; num]; sources];
        let params = MachineParams::unit(PortMode::OnePort);
        let ports = PortMode::OnePort;
        let plan = plan::some_to_all_plan(n, l_dims, k_dims, &sizes, BufferPolicy::Ideal, ports);
        let r = run(n, &plan, &params);
        let pq = (sources * num * b) as u64;
        let expect = model::some_to_all::one_port(pq, k, l, &params);
        assert!(
            (r.time - expect).abs() < 1e-9,
            "k={k} l={l}: simulated {} vs Table 3 {expect}",
            r.time
        );
    }
}

/// §8.1: unbuffered and optimally-buffered 1D transposes match the
/// figure-level models exactly, on true iPSC constants.
#[test]
fn section81_ipsc_exact() {
    let params = MachineParams::intel_ipsc();
    for n in [2u32, 3, 4] {
        for pq_log in [10u32, 12] {
            let p = pq_log / 2;
            let before = Layout::one_dim(
                p,
                pq_log - p,
                Direction::Rows,
                n,
                Assignment::Consecutive,
                Encoding::Binary,
            );
            let after = Layout::one_dim(
                pq_log - p,
                p,
                Direction::Rows,
                n,
                Assignment::Consecutive,
                Encoding::Binary,
            );
            let m = verify::labels(before.clone());
            let pq = 1u64 << pq_log;

            let mut net = SimNet::new(n, params.clone());
            let _ =
                transpose::transpose_1d_exchange(&m, &after, &mut net, BufferPolicy::Unbuffered);
            let r = net.finalize();
            let expect = model::one_dim::unbuffered(pq, n, &params);
            assert!(
                (r.time - expect).abs() < 1e-12,
                "unbuffered n={n} pq=2^{pq_log}: {} vs {expect}",
                r.time
            );

            let mut net = SimNet::new(n, params.clone());
            let _ = transpose::transpose_1d_exchange(
                &m,
                &after,
                &mut net,
                BufferPolicy::Buffered { min_direct: params.b_copy() },
            );
            let r = net.finalize();
            let expect = model::one_dim::buffered_opt(pq, n, &params);
            assert!(
                (r.time - expect).abs() < 1e-12,
                "buffered n={n} pq=2^{pq_log}: {} vs {expect}",
                r.time
            );
        }
    }
}

/// §8.2: the stepwise SPT matches the iPSC estimate exactly.
#[test]
fn section82_spt_estimate_exact() {
    let params = MachineParams::intel_ipsc().with_ports(PortMode::AllPorts);
    for (p, half) in [(3u32, 1u32), (4, 2), (5, 2)] {
        let before = Layout::square(p, p, half, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        let m = verify::labels(before.clone());
        let mut net: SimNet<transpose::two_dim::Packet<u64>> =
            SimNet::new(2 * half, params.clone());
        let _ = transpose::transpose_spt_stepwise(&m, &after, &mut net);
        let r = net.finalize();
        let expect = model::two_dim::spt_ipsc_step_by_step(1 << (2 * p), 2 * half, &params);
        assert!((r.time - expect).abs() < 1e-12, "p={p} half={half}: {} vs {expect}", r.time);
    }
}

/// Theorem 2 regimes: the pipelined MPT at the regime's parameters comes
/// within a small factor of the theorem's T_min.
#[test]
fn theorem2_regimes_achievable() {
    let params = MachineParams::unit(PortMode::AllPorts);
    for (p, half, k) in [(4u32, 2u32, 1u32), (5, 2, 2), (6, 2, 4)] {
        let n = 2 * half;
        let before = Layout::square(p, p, half, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        let m = verify::labels(before.clone());
        let mut net: SimNet<transpose::two_dim::Packet<u64>> = SimNet::new(n, params.clone());
        let _ = transpose::transpose_mpt(&m, &after, &mut net, k);
        let r = net.finalize();
        let t_min = model::mpt::mpt_min(1 << (2 * p), n, &params);
        assert!(
            r.time <= 2.0 * t_min,
            "p={p} k={k}: simulated {} vs Theorem 2 T_min {t_min}",
            r.time
        );
        assert!(r.time >= model::bounds::transpose_lower_bound(1 << (2 * p), n, &params) - 1e-9);
    }
}

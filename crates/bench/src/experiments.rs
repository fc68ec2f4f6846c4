//! Regeneration of every table and figure of the paper's evaluation.
//!
//! Each `figNN`/`tabN` function reruns the corresponding experiment on
//! the simulated machines and returns the data series the paper plots.
//! Absolute values depend on the calibrated machine constants; the
//! *shapes* — who wins, by what factor, where curves cross — are the
//! reproduction targets (see EXPERIMENTS.md at the repository root).

use crate::series::{Series, SeriesSet};
use cubeaddr::NodeId;
use cubecomm::ecube::{ecube_route, RouteMsg};
use cubecomm::{Block, BufferPolicy};
use cubelayout::{Assignment, Direction, Encoding, Layout};
use cubemodel as model;
use cubesim::par::par_map;
use cubesim::{MachineParams, PortMode, SimNet};
use cubetranspose::gray::{transpose_combined, transpose_naive_mixed, MixedSpec};
use cubetranspose::two_dim::{tr, Packet};
use cubetranspose::verify;

/// Builds the canonical 1D row-consecutive transpose pair for `pq = 2^m`
/// elements on an `n`-cube.
fn one_dim_pair(m_log: u32, n: u32) -> (Layout, Layout) {
    let p = m_log / 2;
    let q = m_log - p;
    (
        Layout::one_dim(p, q, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary),
        Layout::one_dim(q, p, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary),
    )
}

/// The router message set for the node-permutation transpose `x → tr(x)`
/// on an `n`-cube, `elems` elements per message — the workload of
/// Figure 14(b), the Connection Machine figures, and the router bench.
pub fn transpose_route_msgs(n: u32, elems: usize) -> Vec<RouteMsg<u64>> {
    let half = n / 2;
    (0..(1u64 << n))
        .filter(|&x| tr(x, half) != x)
        .map(|x| RouteMsg { src: NodeId(x), dst: NodeId(tr(x, half)), data: vec![x; elems] })
        .collect()
}

/// Simulated 1D transpose time under a send policy (iPSC constants).
fn one_dim_time(m_log: u32, n: u32, policy: BufferPolicy) -> f64 {
    let params = MachineParams::intel_ipsc();
    let (before, after) = one_dim_pair(m_log, n);
    let m = verify::labels(before);
    let mut net = SimNet::new(n, params);
    let _ = cubetranspose::transpose_1d_exchange(&m, &after, &mut net, policy);
    net.finalize().time
}

/// Figure 9: local copy time versus data volume, per element width.
pub fn fig9() -> SeriesSet {
    let mut set = SeriesSet::new("Figure 9: copy time on the iPSC model", "bytes", "seconds");
    // Copy cost is per element: a per-element loop overhead plus a
    // per-byte move cost, so wider types copy fewer elements per byte and
    // come out cheaper per byte — the spread between the four curves of
    // the measured figure. The float curve integrates to the iPSC
    // t_copy ≈ 36 µs/element used everywhere else.
    for (name, width) in [("char", 1usize), ("short", 2), ("float", 4), ("double", 8)] {
        let mut s = Series::new(name);
        for log in 6..=12u32 {
            let bytes = 1usize << log;
            let elems = bytes / width;
            s.push(bytes as f64, elems as f64 * 4.0e-6 + bytes as f64 * 8.0e-6);
        }
        set.push(s);
    }
    set
}

/// Figure 10: 1D transpose, unbuffered versus buffered, versus cube
/// dimension, for two matrix sizes.
pub fn fig10() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Figure 10: 1D transpose time vs cube dimension (iPSC)",
        "cube dimension n",
        "seconds",
    );
    let b_copy = MachineParams::intel_ipsc().b_copy();
    let points: Vec<(u32, u32)> =
        [12u32, 16].into_iter().flat_map(|m| (1..=6u32).map(move |n| (m, n))).collect();
    let times = par_map(&points, |&(m_log, n)| {
        (
            one_dim_time(m_log, n, BufferPolicy::Unbuffered),
            one_dim_time(m_log, n, BufferPolicy::Buffered { min_direct: b_copy }),
        )
    });
    let mut at = times.iter();
    for m_log in [12u32, 16] {
        let mut unbuf = Series::new(format!("unbuffered 2^{m_log}"));
        let mut buf = Series::new(format!("buffered 2^{m_log}"));
        for n in 1..=6u32 {
            let &(u, b) = at.next().unwrap();
            unbuf.push(n as f64, u);
            buf.push(n as f64, b);
        }
        set.push(unbuf);
        set.push(buf);
    }
    set
}

/// Figure 11: sensitivity to the minimum unbuffered block size.
pub fn fig11() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Figure 11: optimum buffer threshold (iPSC)",
        "min direct block (elements)",
        "seconds",
    );
    let points: Vec<(u32, u32, u32)> = [(14u32, 5u32), (16, 6)]
        .into_iter()
        .flat_map(|(m, n)| (0..=10u32).map(move |t| (m, n, t)))
        .collect();
    let times = par_map(&points, |&(m_log, n, t_log)| {
        one_dim_time(m_log, n, BufferPolicy::Buffered { min_direct: 1 << t_log })
    });
    let mut at = times.iter();
    for (m_log, n) in [(14u32, 5u32), (16, 6)] {
        let mut s = Series::new(format!("PQ=2^{m_log}, n={n}"));
        for t_log in 0..=10u32 {
            s.push((1usize << t_log) as f64, *at.next().unwrap());
        }
        set.push(s);
    }
    set
}

/// Figure 12: optimum buffering versus unbuffered, versus matrix size.
pub fn fig12() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Figure 12: effect of optimum buffering (iPSC, 6-cube)",
        "matrix elements",
        "seconds",
    );
    let n = 6u32;
    let b_copy = MachineParams::intel_ipsc().b_copy();
    let points: Vec<u32> = (12..=18u32).collect();
    let times = par_map(&points, |&m_log| {
        (
            one_dim_time(m_log, n, BufferPolicy::Unbuffered),
            one_dim_time(m_log, n, BufferPolicy::Buffered { min_direct: b_copy }),
        )
    });
    let mut unbuf = Series::new("unbuffered");
    let mut buf = Series::new("optimum buffering");
    for (m_log, &(u, b)) in points.iter().zip(&times) {
        unbuf.push((1u64 << m_log) as f64, u);
        buf.push((1u64 << m_log) as f64, b);
    }
    set.push(unbuf);
    set.push(buf);
    set
}

/// Simulated stepwise-SPT 2D transpose; returns (copy, comm, total).
fn spt_stepwise_parts(m_log: u32, n: u32) -> (f64, f64, f64) {
    let params = MachineParams::intel_ipsc().with_ports(PortMode::AllPorts);
    assert!(m_log.is_multiple_of(2), "2D figures use square matrices");
    let p = m_log / 2;
    let before = Layout::square(p, p, n / 2, Assignment::Consecutive, Encoding::Binary);
    let after = before.swapped_shape();
    let m = verify::labels(before);
    let mut net: SimNet<Packet<u64>> = SimNet::new(n, params);
    let _ = cubetranspose::transpose_spt_stepwise(&m, &after, &mut net);
    let r = net.finalize();
    (r.copy_time, r.startup_time + r.transfer_time, r.time)
}

/// Figure 13: copy/communication/total of the 2D transpose, 2-cube and
/// 6-cube.
pub fn fig13() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Figure 13: 2D (SPT) transpose breakdown (iPSC)",
        "matrix elements",
        "seconds",
    );
    let points: Vec<(u32, u32)> =
        [2u32, 6].into_iter().flat_map(|n| (8..=16u32).step_by(2).map(move |m| (n, m))).collect();
    let parts = par_map(&points, |&(n, m_log)| spt_stepwise_parts(m_log, n));
    let mut at = parts.iter();
    for n in [2u32, 6] {
        let mut copy = Series::new(format!("copy n={n}"));
        let mut comm = Series::new(format!("comm n={n}"));
        let mut total = Series::new(format!("total n={n}"));
        for m_log in (8..=16u32).step_by(2) {
            let &(c, m, t) = at.next().unwrap();
            copy.push((1u64 << m_log) as f64, c);
            comm.push((1u64 << m_log) as f64, m);
            total.push((1u64 << m_log) as f64, t);
        }
        set.push(copy);
        set.push(comm);
        set.push(total);
    }
    set
}

/// Figure 14(a): SPT total time across cube dimensions.
pub fn fig14a() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Figure 14a: 2D SPT transpose vs matrix size (iPSC)",
        "matrix elements",
        "seconds",
    );
    let points: Vec<(u32, u32)> = [2u32, 4, 6]
        .into_iter()
        .flat_map(|n| (8..=16u32).step_by(2).map(move |m| (n, m)))
        .collect();
    let totals = par_map(&points, |&(n, m_log)| spt_stepwise_parts(m_log, n).2);
    let mut at = totals.iter();
    for n in [2u32, 4, 6] {
        let mut s = Series::new(format!("{n}-cube"));
        for m_log in (8..=16u32).step_by(2) {
            s.push((1u64 << m_log) as f64, *at.next().unwrap());
        }
        set.push(s);
    }
    set
}

/// Figure 14(b): transpose by the routing logic (e-cube direct sends)
/// versus the scheduled, pipelined SPT.
///
/// The router pays the same pre/post 2D↔1D rearrangement copies the
/// direct sends need on the iPSC. The pipelined SPT series shows the
/// algorithmic advantage of scheduling: packets stream every cycle over
/// the edge-disjoint paths instead of store-and-forwarding whole
/// messages through the router's queues.
pub fn fig14b() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Figure 14b: routing logic vs scheduled SPT (iPSC)",
        "matrix elements",
        "seconds",
    );
    let points: Vec<(u32, u32)> = [2u32, 4, 6]
        .into_iter()
        .flat_map(|n| (8..=16u32).step_by(2).map(move |m| (n, m)))
        .collect();
    let times = par_map(&points, |&(n, m_log)| {
        let half = n / 2;
        let per = 1usize << (m_log - n);
        let params = MachineParams::intel_ipsc().with_ports(PortMode::AllPorts);

        let mut net: SimNet<Block<u64>> = SimNet::new(n, params.clone());
        for x in 0..(1u64 << n) {
            net.local_copy(NodeId(x), 2 * per); // gather + scatter
        }
        let _ = ecube_route(&mut net, transpose_route_msgs(n, per));
        let router_time = net.finalize().time;

        let p = m_log / 2;
        let before = Layout::square(p, p, half, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        let m = verify::labels(before);
        let b = params.max_packet.min(per);
        let mut net2: SimNet<Packet<u64>> = SimNet::new(n, params);
        let _ = cubetranspose::transpose_spt(&m, &after, &mut net2, b);
        (router_time, net2.finalize().time)
    });
    let mut at = times.iter();
    for n in [2u32, 4, 6] {
        let mut router = Series::new(format!("router {n}-cube"));
        let mut spt = Series::new(format!("SPT pipelined {n}-cube"));
        for m_log in (8..=16u32).step_by(2) {
            let &(r, s) = at.next().unwrap();
            router.push((1u64 << m_log) as f64, r);
            spt.push((1u64 << m_log) as f64, s);
        }
        set.push(router);
        set.push(spt);
    }
    set
}

/// Figure 15: mixed-encoding transpose, naive (2n-2 steps) versus
/// combined (n steps).
pub fn fig15() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Figure 15: mixed-encoding transpose, naive vs combined (iPSC)",
        "matrix elements",
        "seconds",
    );
    let mut points: Vec<(u32, u32)> = Vec::new();
    for half in [1u32, 2, 3] {
        for p in (half + 2)..=(half + 5) {
            points.push((half, p));
        }
    }
    let times = par_map(&points, |&(half, p)| {
        let n = 2 * half;
        let spec = MixedSpec::binary_rows_gray_cols(p, half);
        let m = verify::labels(spec.before());
        let params = MachineParams::intel_ipsc().with_ports(PortMode::AllPorts);

        let mut net1: SimNet<Vec<u64>> = SimNet::new(n, params.clone());
        let _ = transpose_naive_mixed(&spec, &m, &mut net1);

        let mut net2: SimNet<Vec<u64>> = SimNet::new(n, params);
        let _ = transpose_combined(&spec, &m, &mut net2);
        (net1.finalize().time, net2.finalize().time)
    });
    let mut at = times.iter();
    for half in [1u32, 2, 3] {
        let n = 2 * half;
        let mut naive = Series::new(format!("naive n={n}"));
        let mut comb = Series::new(format!("combined n={n}"));
        for p in (half + 2)..=(half + 5) {
            let pq = (1u64 << (2 * p)) as f64;
            let &(t_naive, t_comb) = at.next().unwrap();
            naive.push(pq, t_naive);
            comb.push(pq, t_comb);
        }
        set.push(naive);
        set.push(comb);
    }
    set
}

/// Connection-Machine transpose via the router; `elems` per processor.
fn cm_time(n: u32, elems: usize) -> f64 {
    let mut net: SimNet<Block<u64>> = SimNet::new(n, MachineParams::connection_machine());
    let _ = ecube_route(&mut net, transpose_route_msgs(n, elems));
    net.finalize().time
}

/// Figure 16: CM transpose, one element per processor, vs machine size.
pub fn fig16() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Figure 16: Connection Machine transpose, 1 element/processor",
        "cube dimension n",
        "seconds",
    );
    let points: Vec<u32> = (6..=14u32).step_by(2).collect();
    let times = par_map(&points, |&n| cm_time(n, 1));
    let mut s = Series::new("router");
    for (&n, &t) in points.iter().zip(&times) {
        s.push(n as f64, t);
    }
    set.push(s);
    set
}

/// Figure 17: CM transpose with multiple elements per processor.
pub fn fig17() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Figure 17: Connection Machine transpose, multiple elements",
        "elements per processor",
        "seconds",
    );
    let points: Vec<(u32, u32)> =
        [8u32, 10, 12].into_iter().flat_map(|n| (0..=5u32).map(move |e| (n, e))).collect();
    let times = par_map(&points, |&(n, e_log)| cm_time(n, 1 << e_log));
    let mut at = times.iter();
    for n in [8u32, 10, 12] {
        let mut s = Series::new(format!("{n}-cube"));
        for e_log in 0..=5u32 {
            s.push((1usize << e_log) as f64, *at.next().unwrap());
        }
        set.push(s);
    }
    set
}

/// Figure 18: CM transpose of fixed matrices vs machine size.
pub fn fig18() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Figure 18: Connection Machine transpose vs machine size",
        "cube dimension n",
        "seconds",
    );
    let points: Vec<(u32, u32)> = [14u32, 16, 18]
        .into_iter()
        .flat_map(|m| (8..=m.min(14)).step_by(2).map(move |n| (m, n)))
        .collect();
    let times = par_map(&points, |&(m_log, n)| cm_time(n, 1 << (m_log - n)));
    let mut at = times.iter();
    for m_log in [14u32, 16, 18] {
        let mut s = Series::new(format!("{0}×{0}", 1u64 << (m_log / 2)));
        for n in (8..=m_log.min(14)).step_by(2) {
            s.push(n as f64, *at.next().unwrap());
        }
        set.push(s);
    }
    set
}

/// Figure 19: one- versus two-dimensional partitioning on the iPSC.
pub fn fig19() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Figure 19: 1D vs 2D transpose (iPSC, with copy costs)",
        "cube dimension n",
        "seconds",
    );
    let b_copy = MachineParams::intel_ipsc().b_copy();
    let points: Vec<(u32, u32)> =
        [12u32, 16].into_iter().flat_map(|m| (1..=(m / 2).min(8)).map(move |n| (m, n))).collect();
    let times = par_map(&points, |&(m_log, n)| {
        (
            one_dim_time(m_log, n, BufferPolicy::Buffered { min_direct: b_copy }),
            (n % 2 == 0).then(|| spt_stepwise_parts(m_log, n).2),
        )
    });
    let mut at = times.iter();
    for m_log in [12u32, 16] {
        let mut one = Series::new(format!("1D 2^{m_log}"));
        let mut two = Series::new(format!("2D 2^{m_log}"));
        for n in 1..=(m_log / 2).min(8) {
            let &(o, t) = at.next().unwrap();
            one.push(n as f64, o);
            if let Some(t) = t {
                two.push(n as f64, t);
            }
        }
        set.push(one);
        set.push(two);
    }
    set
}

/// Table 3: some-to-all model versus simulation across (k, l) splits.
pub fn tab3() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Table 3: some-to-all time, k splitting + l all-to-all steps (unit one-port)",
        "k (of n = 6)",
        "time units",
    );
    let n = 6u32;
    let b = 8usize;
    let mut sim = Series::new("simulated");
    let mut mdl = Series::new("Table 3 model");
    let mut mdl_np = Series::new("Table 3 n-port model");
    for k in 0..=n {
        let l = n - k;
        let l_dims = cubeaddr::DimSet::range(0, l);
        let k_dims = cubeaddr::DimSet::range(l, n);
        let sources = 1usize << l;
        let num = 1usize << n;
        let sizes = vec![vec![b as u64; num]; sources];
        let params = MachineParams::unit(PortMode::OnePort);
        let plan = cubecomm::plan::some_to_all_plan(
            n,
            l_dims,
            k_dims,
            &sizes,
            BufferPolicy::Ideal,
            PortMode::OnePort,
        );
        let mut net: SimNet<u64> = SimNet::new(n, params.clone());
        cubecomm::exec::run(&mut net, &plan);
        let pq = (sources * num * b) as u64;
        sim.push(k as f64, net.finalize().time);
        mdl.push(k as f64, model::some_to_all::one_port(pq, k, l, &params));
        mdl_np.push(k as f64, model::some_to_all::all_port(pq, k, l, &params));
    }
    set.push(sim);
    set.push(mdl);
    set.push(mdl_np);
    set
}

/// Theorem 2: MPT model minimum versus the simulated MPT across cube
/// sizes.
pub fn thm2() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Theorem 2: MPT T_min vs simulation (unit model, PQ = 2^16)",
        "cube dimension n",
        "time units",
    );
    let m_log = 16u32;
    let params = MachineParams::unit(PortMode::AllPorts);
    let mut sim = Series::new("simulated MPT (best k ≤ 8)");
    let mut mdl = Series::new("Theorem 2 T_min");
    let mut lb = Series::new("Theorem 3 bound");
    let points: Vec<u32> = (2..=8u32).step_by(2).collect();
    let bests = par_map(&points, |&n| {
        let p = m_log / 2;
        let before = Layout::square(p, p, n / 2, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        let m = verify::labels(before);
        let mut best = f64::INFINITY;
        for k in 1..=8u32 {
            let mut net: SimNet<Packet<u64>> = SimNet::new(n, params.clone());
            let _ = cubetranspose::transpose_mpt(&m, &after, &mut net, k);
            best = best.min(net.finalize().time);
        }
        best
    });
    for (&n, &best) in points.iter().zip(&bests) {
        sim.push(n as f64, best);
        mdl.push(n as f64, model::mpt::mpt_min(1 << m_log, n, &params));
        lb.push(n as f64, model::bounds::transpose_lower_bound(1 << m_log, n, &params));
    }
    set.push(sim);
    set.push(mdl);
    set.push(lb);
    set
}

/// §9 break-even: where the 2D partitioning starts to win (one-port,
/// with copy).
pub fn breakeven() -> SeriesSet {
    let mut set = SeriesSet::new(
        "§9 break-even: T^1d and T^2d models vs cube dimension (iPSC)",
        "cube dimension n",
        "seconds",
    );
    let params = MachineParams::intel_ipsc();
    for m_log in [14u32, 16] {
        let mut one = Series::new(format!("T1d 2^{m_log}"));
        let mut two = Series::new(format!("T2d 2^{m_log}"));
        for n in (2..=(m_log / 2).min(10)).step_by(2) {
            let (a, b) = model::bounds::compare_1d_2d_one_port(1 << m_log, n, &params);
            one.push(n as f64, a);
            two.push(n as f64, b);
        }
        set.push(one);
        set.push(two);
    }
    set
}

/// Pipeline occupancy: total elements in flight per round for the
/// pipelined SPT versus the MPT — the fill/steady/drain profile of the
/// packet pipelines (uses the simulator's per-round history).
pub fn pipeline() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Pipeline occupancy per round (64×64 on a 4-cube, unit costs)",
        "round",
        "elements in flight",
    );
    let (p, half) = (6u32, 2u32);
    let n = 2 * half;
    let before = Layout::square(p, p, half, Assignment::Consecutive, Encoding::Binary);
    let after = before.swapped_shape();
    let m = verify::labels(before.clone());
    let params = MachineParams::unit(PortMode::AllPorts);

    let mut spt = Series::new("SPT B=16");
    let mut net: SimNet<Packet<u64>> = SimNet::new(n, params.clone());
    net.record_history();
    let _ = cubetranspose::transpose_spt(&m, &after, &mut net, 16);
    for (i, h) in net.finalize().history.iter().enumerate() {
        spt.push(i as f64, h.total_elems as f64);
    }

    let mut mpt = Series::new("MPT k=2");
    let mut net: SimNet<Packet<u64>> = SimNet::new(n, params);
    net.record_history();
    let _ = cubetranspose::transpose_mpt(&m, &after, &mut net, 2);
    for (i, h) in net.finalize().history.iter().enumerate() {
        mpt.push(i as f64, h.total_elems as f64);
    }
    set.push(spt);
    set.push(mpt);
    set
}

/// Ablation: packet-size sweep around `B_opt` for the pipelined SPT and
/// DPT (the optimum-packet-size discussion of §6.1.1–6.1.2). The curves
/// are U-shaped with minima at the model's `B_opt`, DPT's shifted to
/// `B_opt/√2` and lower overall.
pub fn ablation_bopt() -> SeriesSet {
    let mut set = SeriesSet::new(
        "Ablation: SPT/DPT time vs packet size (iPSC n-port, 64×64 on a 4-cube)",
        "packet size B (elements)",
        "seconds",
    );
    let (p, half) = (6u32, 2u32);
    let n = 2 * half;
    let params = MachineParams::intel_ipsc().with_ports(PortMode::AllPorts);
    let before = Layout::square(p, p, half, Assignment::Consecutive, Encoding::Binary);
    let after = before.swapped_shape();
    let m = verify::labels(before.clone());
    let mut spt = Series::new("SPT simulated");
    let mut dpt = Series::new("DPT simulated");
    let mut spt_model = Series::new("SPT model");
    for b_log in 2..=8u32 {
        let b = 1usize << b_log;
        let mut net: SimNet<Packet<u64>> = SimNet::new(n, params.clone());
        let _ = cubetranspose::transpose_spt(&m, &after, &mut net, b);
        spt.push(b as f64, net.finalize().time);
        let mut net: SimNet<Packet<u64>> = SimNet::new(n, params.clone());
        let _ = cubetranspose::transpose_dpt(&m, &after, &mut net, b);
        dpt.push(b as f64, net.finalize().time);
        spt_model.push(b as f64, model::two_dim::spt(1 << (2 * p), n, b as u64, &params));
    }
    set.push(spt);
    set.push(dpt);
    set.push(spt_model);
    set
}

/// Ablation: the three §6.2 conversion algorithms compared on iPSC
/// constants across matrix sizes.
pub fn ablation_convert() -> SeriesSet {
    use cubetranspose::convert::{
        convert_algorithm1, convert_algorithm2, convert_algorithm3, ConvertSpec,
    };
    let mut set = SeriesSet::new(
        "Ablation: §6.2 conversion algorithms (iPSC, n_r = n_c = 2)",
        "matrix elements",
        "seconds",
    );
    let mut a1 = Series::new("algorithm 1 (2n steps)");
    let mut a2 = Series::new("algorithm 2 (n steps + local transposes)");
    let mut a3 = Series::new("algorithm 3 (n steps)");
    for p in 4..=7u32 {
        let spec = ConvertSpec::new(p, p, 2);
        let m = verify::labels(spec.before());
        let pq = (1u64 << (2 * p)) as f64;
        let params = MachineParams::intel_ipsc();
        type Alg = fn(
            &ConvertSpec,
            &cubelayout::DistMatrix<u64>,
            &mut SimNet<Vec<u64>>,
            BufferPolicy,
        ) -> cubelayout::DistMatrix<u64>;
        let run = |alg: Alg| {
            let mut net: SimNet<Vec<u64>> = SimNet::new(4, params.clone());
            let _ = alg(&spec, &m, &mut net, BufferPolicy::Ideal);
            net.finalize().time
        };
        a1.push(pq, run(convert_algorithm1));
        a2.push(pq, run(convert_algorithm2));
        a3.push(pq, run(convert_algorithm3));
    }
    set.push(a1);
    set.push(a2);
    set.push(a3);
    set
}

/// §9 in planner form: the algorithm [`cubetranspose::driver::plan`]
/// selects across the (matrix size, cube size, port model) grid — the
/// practical summary of the paper's comparison section.
pub fn recommend() -> String {
    use cubetranspose::driver::{plan, Choice};
    let mut out = String::from(
        "Planner selections (square 2D consecutive layouts → left; 1D row layouts → right):\n\n\
         machine/ports      | matrix     n=2            n=4            n=6            | 1D n=2         1D n=4         1D n=6\n",
    );
    let name = |c: Choice| match c {
        Choice::Local => "local".to_string(),
        Choice::SptStepwise => "SPT-step".to_string(),
        Choice::Mpt { k } => format!("MPT(k={k})"),
        Choice::ExchangeBuffered { .. } => "exch-buf".to_string(),
        Choice::Sbnt => "SBnT".to_string(),
    };
    for (mname, params) in [
        ("iPSC one-port", MachineParams::intel_ipsc()),
        ("iPSC n-port", MachineParams::intel_ipsc().with_ports(PortMode::AllPorts)),
        ("CM (n-port)", MachineParams::connection_machine()),
    ] {
        for p in [4u32, 7] {
            let mut row = format!("{mname:<18} | {0:>4}×{0:<5}", 1u64 << p);
            for half in [1u32, 2, 3] {
                let l = Layout::square(p, p, half, Assignment::Consecutive, Encoding::Binary);
                row.push_str(&format!(" {:<14}", name(plan(&l, &l.swapped_shape(), &params))));
            }
            row.push_str("| ");
            for n in [2u32, 4, 6] {
                let l = Layout::one_dim(
                    p,
                    p,
                    Direction::Rows,
                    n.min(p),
                    Assignment::Consecutive,
                    Encoding::Binary,
                );
                row.push_str(&format!("{:<15}", name(plan(&l, &l.swapped_shape(), &params))));
            }
            row.push('\n');
            out.push_str(&row);
        }
    }
    out
}

/// Tables 1 and 2 as printable text.
pub fn tables12() -> String {
    let mut out = String::new();
    out.push_str("Table 1 (p = q = 6, n = 3):\n");
    out.push_str(&cubelayout::table::table1(6, 6, 3));
    out.push_str("\nTable 2 (p = q = 8, n = 5, i = 1, s = 2):\n");
    out.push_str(&cubelayout::table::table2(8, 8, 5, 1, 2));
    out
}

/// Figures 1–2: ownership grids for the four basic partitionings.
pub fn partition_grids() -> String {
    let mut out = String::new();
    let cases = [
        (
            "1D cyclic rows",
            Layout::one_dim(3, 3, Direction::Rows, 2, Assignment::Cyclic, Encoding::Binary),
        ),
        (
            "1D consecutive rows",
            Layout::one_dim(3, 3, Direction::Rows, 2, Assignment::Consecutive, Encoding::Binary),
        ),
        ("2D cyclic", Layout::square(3, 3, 1, Assignment::Cyclic, Encoding::Binary)),
        ("2D consecutive", Layout::square(3, 3, 1, Assignment::Consecutive, Encoding::Binary)),
    ];
    for (name, layout) in cases {
        out.push_str(&format!("{name}:\n{}\n", cubelayout::table::render_ownership_grid(&layout)));
    }
    out
}

/// Figures 6–7: the permutation pattern of the combined mixed-encoding
/// transpose, shown as the grid of block identities after each iteration.
///
/// Every entry prints which block `(u‖v)` currently sits at the node in
/// that grid position (nodes arranged by their row/column parts); the
/// rotations visible between iterations are the paper's `c`/`cc`
/// (clockwise/counterclockwise) block movements.
pub fn fig7() -> String {
    let half = 2u32;
    let spec = MixedSpec::binary_rows_gray_cols(half + 1, half);
    // One block identity per node; a node may transiently hold two
    // between the row and column steps (the relay case), so store lists.
    let num = 1usize << (2 * half);
    let mut at: Vec<Vec<(u64, u64)>> = vec![Vec::new(); num];
    for bu in 0..(1u64 << half) {
        for bv in 0..(1u64 << half) {
            at[spec.node_of(bu, bv).index()].push((bu, bv));
        }
    }
    let render = |at: &Vec<Vec<(u64, u64)>>| -> String {
        let mut s = String::new();
        for r in 0..(1u64 << half) {
            for c in 0..(1u64 << half) {
                let x = cubeaddr::concat(r, c, half);
                match at[x as usize].as_slice() {
                    [(u, v)] => s.push_str(&format!("{u}{v} ")),
                    other => s.push_str(&format!("{}? ", other.len())),
                }
            }
            s.push('\n');
        }
        s
    };
    let hop = |at: &mut Vec<Vec<(u64, u64)>>, j: u32, row_step: bool| {
        let mut next: Vec<Vec<(u64, u64)>> = vec![Vec::new(); num];
        for (x, slot) in at.iter().enumerate() {
            for &(u, v) in slot {
                let x = x as u64;
                let nx = if row_step {
                    let target = v; // binary rows
                    if (((x >> half) ^ target) >> j) & 1 == 1 {
                        x ^ (1 << (j + half))
                    } else {
                        x
                    }
                } else {
                    let target = cubeaddr::gray(u);
                    if ((x ^ target) >> j) & 1 == 1 {
                        x ^ (1 << j)
                    } else {
                        x
                    }
                };
                next[nx as usize].push((u, v));
            }
        }
        *at = next;
    };
    let mut out = format!(
        "Figure 6/7: combined transpose of a binary-row/Gray-column encoded\n\
         matrix on a {}-cube; entries are (row-index, column-index):\n\ninitial:\n{}",
        2 * half,
        render(&at)
    );
    for j in (0..half).rev() {
        hop(&mut at, j, true);
        hop(&mut at, j, false);
        out.push_str(&format!("\nafter iteration j={j} (row+column steps):\n{}", render(&at)));
    }
    out
}

/// Space-time diagram of the pipelined SPT on a 4-cube: rows are the
/// directed links in use, columns the routing cycles; a digit shows the
/// number of elements (log2) crossing that link that cycle. Shows the
/// pipeline filling every path edge cycle after cycle — the visual form
/// of the edge-disjointness lemmas.
pub fn trace() -> String {
    let (p, half) = (4u32, 2u32);
    let n = 2 * half;
    let before = Layout::square(p, p, half, Assignment::Consecutive, Encoding::Binary);
    let after = before.swapped_shape();
    let m = verify::labels(before.clone());
    let mut net: SimNet<Packet<u64>> = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
    net.record_links();
    let _ = cubetranspose::transpose_spt(&m, &after, &mut net, 4);
    let r = net.finalize();

    // Collect the set of links ever used, sorted.
    let mut links: Vec<(u64, u32)> =
        r.link_history.iter().flatten().map(|e| (e.src, e.dim)).collect();
    links.sort_unstable();
    links.dedup();
    let rounds = r.link_history.len();
    let mut out = format!(
        "SPT space-time diagram: {} directed links × {} cycles (B = 4 elements)\n\
         rows: link src→dim; '#' = busy cycle\n\n",
        links.len(),
        rounds
    );
    for &(src, dim) in &links {
        out.push_str(&format!("{src:>2}--d{dim}-> |"));
        for round in &r.link_history {
            let busy = round.iter().any(|e| (e.src, e.dim) == (src, dim));
            out.push(if busy { '#' } else { ' ' });
        }
        out.push_str("|\n");
    }
    out
}

/// Figure 4: the six MPT paths of x = (000 ‖ 111).
pub fn fig4() -> String {
    let mut out =
        String::from("Figure 4: the 6 edge-disjoint paths from (000‖111) to (111‖000):\n");
    for p in 0..6u32 {
        let path = cubetranspose::two_dim::mpt_path(0b000_111, 3, p);
        out.push_str(&format!("  path {p}: dims {path:?}\n"));
    }
    out
}

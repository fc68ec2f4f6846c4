//! End-to-end integration tests: every transpose engine, across crates,
//! on shared problem instances.

use boolcube::comm::BufferPolicy;
use boolcube::layout::{Assignment, Direction, DistMatrix, Encoding, Layout};
use boolcube::sim::{MachineParams, PortMode, SimNet};
use boolcube::transpose::two_dim::Packet;
use boolcube::transpose::{self, verify};

fn unit(ports: PortMode) -> MachineParams {
    MachineParams::unit(ports)
}

/// The three 1D engines and the SPMD runtime agree element-for-element.
#[test]
fn all_one_dim_engines_agree() {
    let before =
        Layout::one_dim(4, 4, Direction::Rows, 3, Assignment::Consecutive, Encoding::Binary);
    let after =
        Layout::one_dim(4, 4, Direction::Rows, 3, Assignment::Consecutive, Encoding::Binary);
    let m = verify::labels(before.clone());

    let mut net1 = SimNet::new(3, unit(PortMode::OnePort));
    let a = transpose::transpose_1d_exchange(&m, &after, &mut net1, BufferPolicy::Ideal);

    let mut net2 = SimNet::new(3, unit(PortMode::AllPorts));
    let b = transpose::transpose_1d_sbnt(&m, &after, &mut net2);

    let mut net3: SimNet<Vec<u64>> = SimNet::new(3, unit(PortMode::OnePort));
    let c = transpose::transpose_stepwise(&m, &after, &mut net3, BufferPolicy::Ideal);

    let (d, _) = transpose::spmd::spmd_transpose_exchange(&m, &after);

    verify::assert_transposed(&before, &a);
    assert_eq!(a, b);
    assert_eq!(a, c);
    assert_eq!(a, d);
}

/// The three 2D engines agree, under every packet size.
#[test]
fn all_two_dim_engines_agree() {
    let before = Layout::square(4, 4, 2, Assignment::Consecutive, Encoding::Binary);
    let after = before.swapped_shape();
    let m = verify::labels(before.clone());
    let per = before.elems_per_node();

    let mut results = Vec::new();
    for b in [1usize, 3, 8, per] {
        let mut net: SimNet<Packet<u64>> = SimNet::new(4, unit(PortMode::AllPorts));
        results.push(transpose::transpose_spt(&m, &after, &mut net, b));
    }
    for b in [2usize, 7] {
        let mut net: SimNet<Packet<u64>> = SimNet::new(4, unit(PortMode::AllPorts));
        results.push(transpose::transpose_dpt(&m, &after, &mut net, b));
    }
    for k in [1u32, 2, 3] {
        let mut net: SimNet<Packet<u64>> = SimNet::new(4, unit(PortMode::AllPorts));
        results.push(transpose::transpose_mpt(&m, &after, &mut net, k));
    }
    let (spmd, _) = transpose::spmd::spmd_transpose_spt(&m, &after);
    results.push(spmd);

    verify::assert_transposed(&before, &results[0]);
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
}

/// Double transposition is the identity, through different engines on
/// each leg.
#[test]
fn double_transpose_identity_mixed_engines() {
    let before = Layout::one_dim(3, 5, Direction::Cols, 3, Assignment::Cyclic, Encoding::Binary);
    let after = Layout::one_dim(5, 3, Direction::Cols, 3, Assignment::Cyclic, Encoding::Binary);
    let m = DistMatrix::from_fn(before.clone(), |u, v| (u as f32) * 0.5 - (v as f32));

    let mut net1 = SimNet::new(3, unit(PortMode::OnePort));
    let t = transpose::transpose_1d_exchange(&m, &after, &mut net1, BufferPolicy::Unbuffered);
    let mut net2 = SimNet::new(3, unit(PortMode::AllPorts));
    let back = transpose::transpose_1d_sbnt(&t, &before, &mut net2);
    assert_eq!(m, back);
}

/// A rectangular matrix transposes correctly in both 1D directions.
#[test]
fn rectangular_both_directions() {
    for (p, q) in [(2u32, 5u32), (5, 2), (3, 4)] {
        for dir in [Direction::Rows, Direction::Cols] {
            let before = Layout::one_dim(p, q, dir, 2, Assignment::Consecutive, Encoding::Binary);
            let after = Layout::one_dim(q, p, dir, 2, Assignment::Consecutive, Encoding::Binary);
            let m = verify::labels(before.clone());
            let mut net = SimNet::new(2, unit(PortMode::OnePort));
            let out = transpose::transpose_1d_exchange(&m, &after, &mut net, BufferPolicy::Ideal);
            verify::assert_transposed(&before, &out);
        }
    }
}

/// Gray-encoded two-dimensional layouts transpose with the same pairwise
/// algorithms (§6.1: "if row and column indices are encoded in the same
/// way, the transpose algorithm only depends on the processors").
#[test]
fn gray_two_dim_same_as_binary_structure() {
    let before_g = Layout::square(3, 3, 2, Assignment::Consecutive, Encoding::Gray);
    let after_g = before_g.swapped_shape();
    let m = verify::labels(before_g.clone());
    let mut net: SimNet<Packet<u64>> = SimNet::new(4, unit(PortMode::AllPorts));
    let out = transpose::transpose_mpt(&m, &after_g, &mut net, 1);
    verify::assert_transposed(&before_g, &out);
}

/// The conversion algorithms compose with the plain transpose: transpose
/// consecutive→cyclic, then transpose cyclic→cyclic back to shape, gives
/// the doubly-transposed (= original) dense matrix in the cyclic layout.
#[test]
fn conversion_then_transpose_roundtrip() {
    use boolcube::transpose::convert::{convert_algorithm3, ConvertSpec};
    let spec = ConvertSpec::new(4, 4, 1);
    let m = verify::labels(spec.before());
    let mut net: SimNet<Vec<u64>> = SimNet::new(2, unit(PortMode::OnePort));
    let t = convert_algorithm3(&spec, &m, &mut net, BufferPolicy::Ideal);

    // t is A^T in cyclic/cyclic layout; transpose again (cyclic square,
    // pairwise) to recover A.
    let after2 = t.layout().swapped_shape();
    let mut net2: SimNet<Packet<u64>> = SimNet::new(2, unit(PortMode::AllPorts));
    let back = transpose::transpose_spt(&t, &after2, &mut net2, 16);
    // back holds A in cyclic/cyclic layout: element (u, v) = label (u‖v).
    for (u, v) in back.layout().elements() {
        assert_eq!(back.get(u, v), (u << 4) | v);
    }
}

/// Theorem 3: every algorithm's simulated time respects the transpose
/// lower bound.
#[test]
fn all_algorithms_respect_lower_bound() {
    let params = unit(PortMode::AllPorts);
    let before = Layout::square(4, 4, 2, Assignment::Consecutive, Encoding::Binary);
    let after = before.swapped_shape();
    let m = verify::labels(before.clone());
    let pq = 1u64 << 8;
    let lb = boolcube::model::bounds::transpose_lower_bound(pq, 4, &params);

    let mut times = Vec::new();
    for b in [1usize, 4, 16] {
        let mut net: SimNet<Packet<u64>> = SimNet::new(4, params.clone());
        let _ = transpose::transpose_spt(&m, &after, &mut net, b);
        times.push(("spt", b, net.finalize().time));
        let mut net: SimNet<Packet<u64>> = SimNet::new(4, params.clone());
        let _ = transpose::transpose_dpt(&m, &after, &mut net, b);
        times.push(("dpt", b, net.finalize().time));
    }
    for k in [1u32, 2] {
        let mut net: SimNet<Packet<u64>> = SimNet::new(4, params.clone());
        let _ = transpose::transpose_mpt(&m, &after, &mut net, k);
        times.push(("mpt", k as usize, net.finalize().time));
    }
    for (name, param, t) in times {
        assert!(t >= lb - 1e-9, "{name}({param}) time {t} below lower bound {lb}");
    }
}

/// §7: realizing the transpose with two all-to-all personalized
/// communications works but "the communication complexity is higher than
/// that of the best transpose algorithm" — verified on the simulator.
#[test]
fn two_all_to_alls_slower_than_mpt() {
    use boolcube::addr::NodeId;
    use boolcube::transpose::permute::arbitrary_permutation;
    use boolcube::transpose::two_dim::tr;

    let n = 6u32;
    let half = n / 2;
    let num = 1usize << n;
    let per = 64usize; // message >= N per node
    let params = unit(PortMode::OnePort);

    // Via two all-to-alls (works for ANY permutation).
    let perm: Vec<NodeId> = (0..num).map(|x| NodeId(tr(x as u64, half))).collect();
    let data: Vec<Vec<u64>> = (0..num as u64).map(|x| vec![x; per]).collect();
    let mut net1 = SimNet::new(n, params.clone());
    let _ = arbitrary_permutation(&mut net1, data, &perm);
    let t_generic = net1.finalize().time;

    // Via the MPT (exploits the transpose's structure).
    let before = Layout::square(6, 6, half, Assignment::Consecutive, Encoding::Binary);
    let after = before.swapped_shape();
    let m = verify::labels(before);
    let mut net2: SimNet<Packet<u64>> = SimNet::new(n, params.with_ports(PortMode::AllPorts));
    let _ = transpose::transpose_mpt(&m, &after, &mut net2, 2);
    let t_mpt = net2.finalize().time;

    assert!(
        t_mpt < t_generic / 2.0,
        "MPT {t_mpt} should be far below the generic route {t_generic}"
    );
}

/// Storage-form conversion composes end to end.
#[test]
fn relayout_cross_checks() {
    use boolcube::transpose::relayout;
    let from = Layout::one_dim(4, 4, Direction::Rows, 3, Assignment::Cyclic, Encoding::Binary);
    let to = Layout::one_dim(4, 4, Direction::Rows, 3, Assignment::Consecutive, Encoding::Binary);
    let m = verify::labels(from.clone());
    let mut net = SimNet::new(3, unit(PortMode::OnePort));
    let moved = relayout(&m, &to, &mut net, BufferPolicy::Buffered { min_direct: 4 });
    for (u, v) in to.elements() {
        assert_eq!(moved.get(u, v), (u << 4) | v);
    }
}

/// Large-ish stress case exercising every engine on a 6-cube.
#[test]
fn six_cube_stress() {
    let before = Layout::square(6, 6, 3, Assignment::Cyclic, Encoding::Binary);
    let after = before.swapped_shape();
    let m = verify::labels(before.clone());
    let mut net: SimNet<Packet<u64>> = SimNet::new(6, unit(PortMode::AllPorts));
    let out = transpose::transpose_mpt(&m, &after, &mut net, 2);
    verify::assert_transposed(&before, &out);
    let r = net.finalize();
    // Rounds: 2·k·H_max + 1 = 2·2·3 + 1.
    assert_eq!(r.rounds, 13);

    let before1 =
        Layout::one_dim(6, 6, Direction::Rows, 6, Assignment::Consecutive, Encoding::Binary);
    let after1 =
        Layout::one_dim(6, 6, Direction::Rows, 6, Assignment::Consecutive, Encoding::Binary);
    let m1 = verify::labels(before1.clone());
    let mut net1 = SimNet::new(6, unit(PortMode::OnePort));
    let out1 = transpose::transpose_1d_exchange(&m1, &after1, &mut net1, BufferPolicy::Ideal);
    verify::assert_transposed(&before1, &out1);
    assert_eq!(net1.finalize().rounds, 6);
}

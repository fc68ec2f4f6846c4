//! Property test: the composed move that reads a `MappedMatrix` out —
//! one permutation of the matrix-address bits, from the map its arrays
//! were built under to the current one — places every element where the
//! naive per-element oracle, `FieldMap::place` / `element_at`, says it
//! lives.
//!
//! Random `(from, to)` map pairs (`n ≤ 6` real and `vp ≤ 12` virtual
//! dimensions) are reached with `rearrange_to`, whose primitives only
//! charge the net, and then read out; the named cases pin the shapes the
//! move treats specially.

use cubeaddr::NodeId;
use cubecomm::BufferPolicy;
use cubesim::{MachineParams, PortMode, SimNet};
use cubetest::Rng;
use cubetranspose::fieldmap::Role;
use cubetranspose::{FieldMap, MappedMatrix};
use proptest::prelude::*;

fn roles(map: &FieldMap) -> (Vec<u32>, Vec<u32>) {
    let real = (0..map.n()).map(|i| map.real_dim(i)).collect();
    let virt = (0..map.vp()).map(|j| map.virt_dim(j)).collect();
    (real, virt)
}

/// A random role assignment of `n + vp` matrix dimensions.
fn random_map(rng: &mut Rng, n: u32, vp: u32) -> FieldMap {
    let mut dims: Vec<u32> = (0..n + vp).collect();
    rng.shuffle(&mut dims);
    let virt = dims.split_off(n as usize);
    FieldMap::new(dims, virt)
}

/// Builds the label matrix under `from`, brings it to `to` with charged
/// primitives, reads it out, and checks every element against the
/// oracle both ways: the address `to` places at each `(node, local)`,
/// and the position `to` gives each address. `to_buffers` always runs
/// the composed move; `into_buffers` hands the arrays back as they are
/// when the map never changed, so the two must agree.
fn check_move(from: &FieldMap, to: &FieldMap) {
    let mut m = MappedMatrix::<u64>::from_fn(from.clone(), |w| w);
    let mut net: SimNet<Vec<u64>> =
        SimNet::new(from.n(), MachineParams::unit(PortMode::OnePort).with_t_copy(0.5));
    m.rearrange_to(&mut net, to, BufferPolicy::Ideal);
    net.finish_round();
    net.finalize();
    assert_eq!(m.map(), to);
    let composed = m.to_buffers();
    let out = m.into_buffers();
    assert_eq!(composed, out, "to_buffers and into_buffers disagree");
    assert_eq!(out.len(), 1 << to.n());
    for (x, arr) in out.iter().enumerate() {
        assert_eq!(arr.len(), 1 << to.vp());
        for (l, &found) in arr.iter().enumerate() {
            let want = to.element_at(NodeId(x as u64), l as u64);
            assert_eq!(found, want, "node {x} local {l} from {from:?} to {to:?}");
        }
    }
    for w in 0..1u64 << to.m() {
        let (x, l) = to.place(w);
        assert_eq!(out[x.index()][l as usize], w, "address {w:#b} from {from:?} to {to:?}");
    }
}

/// `from` with its virtual roles shuffled.
fn local_only(rng: &mut Rng, from: &FieldMap) -> FieldMap {
    let (real, mut virt) = roles(from);
    rng.shuffle(&mut virt);
    FieldMap::new(real, virt)
}

/// `from` with its real roles shuffled.
fn node_only(rng: &mut Rng, from: &FieldMap) -> FieldMap {
    let (mut real, virt) = roles(from);
    rng.shuffle(&mut real);
    FieldMap::new(real, virt)
}

/// A random map whose local bit 0 is one of `from`'s node dimensions, so
/// the composed move's runs are single elements (`t = 0`).
fn node_fed_bottom(rng: &mut Rng, from: &FieldMap) -> FieldMap {
    let (n, vp) = (from.n(), from.vp());
    let (mut real, mut virt) = roles(&random_map(rng, n, vp));
    let d = from.real_dim(rng.below(n as u64) as u32);
    match real.iter().position(|&r| r == d) {
        Some(i) => std::mem::swap(&mut real[i], &mut virt[0]),
        None => {
            let j = virt.iter().position(|&v| v == d).expect("d is a dimension");
            virt.swap(0, j);
        }
    }
    FieldMap::new(real, virt)
}

#[test]
fn identity_move_is_a_copy() {
    let mut rng = Rng::new(1);
    for (n, vp) in [(0, 0), (0, 5), (3, 0), (3, 4), (6, 12)] {
        let from = random_map(&mut rng, n, vp);
        check_move(&from, &from);
    }
}

#[test]
fn local_only_moves() {
    let mut rng = Rng::new(2);
    for (n, vp) in [(0, 7), (2, 3), (4, 8), (6, 12)] {
        let from = random_map(&mut rng, n, vp);
        check_move(&from, &local_only(&mut rng, &from));
    }
}

#[test]
fn node_only_moves() {
    let mut rng = Rng::new(3);
    for (n, vp) in [(2, 0), (3, 3), (5, 6), (6, 12)] {
        let from = random_map(&mut rng, n, vp);
        check_move(&from, &node_only(&mut rng, &from));
    }
}

#[test]
fn node_bit_feeding_local_bit_zero() {
    let mut rng = Rng::new(4);
    for (n, vp) in [(1, 1), (2, 5), (4, 8), (6, 12)] {
        let from = random_map(&mut rng, n, vp);
        let to = node_fed_bottom(&mut rng, &from);
        assert!(matches!(from.locate(to.virt_dim(0)), Role::Real(_)), "t = 0 by construction");
        check_move(&from, &to);
    }
}

#[test]
fn no_node_or_no_local_dimensions() {
    let mut rng = Rng::new(5);
    for (n, vp) in [(0, 1), (0, 6), (0, 12), (1, 0), (4, 0), (6, 0)] {
        let from = random_map(&mut rng, n, vp);
        check_move(&from, &random_map(&mut rng, n, vp));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_map_pairs_match_the_oracle(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let n = rng.below(7) as u32;
        let vp = rng.below(13) as u32;
        let from = random_map(&mut rng, n, vp);
        let to = match rng.below(4) {
            0 => local_only(&mut rng, &from),
            1 => node_only(&mut rng, &from),
            2 if n > 0 && vp > 0 => node_fed_bottom(&mut rng, &from),
            _ => random_map(&mut rng, n, vp),
        };
        check_move(&from, &to);
    }
}

//! Property test: the block-move `MappedMatrix` data plane is
//! observationally equivalent to the element-path reference
//! implementation it replaced.
//!
//! Random legal schedules of the exchange-engine primitives run through
//! both implementations and must produce identical payloads at every
//! node, identical role maps, and identical [`CommReport`]s.

use cubecomm::BufferPolicy;
use cubesim::{CommReport, MachineParams, PortMode, SimNet};
use cubetest::Rng;
use cubetranspose::reference::ref_twin;
use cubetranspose::{FieldMap, MappedMatrix};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Exchange { i: u32, j: u32, policy: BufferPolicy },
    Swap { i1: u32, i2: u32 },
    Permute { perm: Vec<u32> },
    Relabel { perm: Vec<u32> },
}

/// Half the time a rotation of the local address — the permutation the
/// transposes are made of, realized by the tiled local-transpose kernel
/// (its 8×8 register tile needs `vp ≥ 6`) — otherwise a uniform shuffle.
fn random_perm(rng: &mut Rng, vp: u32) -> Vec<u32> {
    if vp >= 2 && rng.below(2) == 0 {
        let a = 1 + rng.below(vp as u64 - 1) as u32;
        return (0..vp).map(|j| (j + a) % vp).collect();
    }
    let mut p: Vec<u32> = (0..vp).collect();
    rng.shuffle(&mut p);
    p
}

fn random_policy(rng: &mut Rng, vp: u32) -> BufferPolicy {
    match rng.below(3) {
        0 => BufferPolicy::Ideal,
        1 => BufferPolicy::Unbuffered,
        _ => BufferPolicy::Buffered { min_direct: 1 << rng.below(vp as u64 + 1) },
    }
}

/// `count` random primitives and then, when the local array has at
/// least four runs to send, one exchange that sends each run as a
/// message of its own — so every schedule streams sub-rounds through
/// the direct branch at least once.
fn random_ops(rng: &mut Rng, n: u32, vp: u32, count: usize) -> Vec<Op> {
    let mut ops: Vec<Op> = (0..count)
        .map(|_| match rng.below(4) {
            0 if n >= 2 => {
                let i1 = rng.below(n as u64) as u32;
                let i2 = (i1 + 1 + rng.below(n as u64 - 1) as u32) % n;
                Op::Swap { i1, i2 }
            }
            1 => Op::Permute { perm: random_perm(rng, vp) },
            2 => Op::Relabel { perm: random_perm(rng, vp) },
            _ => Op::Exchange {
                i: rng.below(n as u64) as u32,
                j: rng.below(vp as u64) as u32,
                policy: random_policy(rng, vp),
            },
        })
        .collect();
    if vp >= 3 {
        let j = rng.below(vp as u64 - 2) as u32;
        let policy = match rng.below(2) {
            0 => BufferPolicy::Unbuffered,
            _ => BufferPolicy::Buffered { min_direct: 1 << j },
        };
        ops.push(Op::Exchange { i: rng.below(n as u64) as u32, j, policy });
    }
    ops
}

/// A random role assignment of `n + vp` matrix dimensions.
fn random_map(rng: &mut Rng, n: u32, vp: u32) -> FieldMap {
    let mut dims: Vec<u32> = (0..n + vp).collect();
    for k in (1..dims.len()).rev() {
        let j = rng.below(k as u64 + 1) as usize;
        dims.swap(k, j);
    }
    let virt = dims.split_off(n as usize);
    FieldMap::new(dims, virt)
}

fn unit_net(n: u32) -> SimNet<Vec<u64>> {
    SimNet::new(n, MachineParams::unit(PortMode::OnePort).with_t_copy(0.5))
}

type Outcome = (Vec<Vec<u64>>, FieldMap, CommReport);

fn run_block(map: FieldMap, ops: &[Op]) -> Outcome {
    let mut m = MappedMatrix::<u64>::from_fn(map, |w| w);
    let mut net = unit_net(m.map().n());
    for op in ops {
        match op {
            Op::Exchange { i, j, policy } => m.exchange_real_virt(&mut net, *i, *j, *policy),
            Op::Swap { i1, i2 } => m.swap_real_real(&mut net, *i1, *i2),
            Op::Permute { perm } => m.permute_virt(&mut net, perm),
            Op::Relabel { perm } => m.relabel_virt(perm),
        }
    }
    net.finish_round(); // flush a trailing permute's copy charge
    let map = m.map().clone();
    (m.into_buffers(), map, net.finalize())
}

fn run_reference(map: FieldMap, ops: &[Op]) -> Outcome {
    let mut m = ref_twin(&MappedMatrix::<u64>::from_fn(map, |w| w));
    let mut net = unit_net(m.map().n());
    for op in ops {
        match op {
            Op::Exchange { i, j, policy } => m.exchange_real_virt(&mut net, *i, *j, *policy),
            Op::Swap { i1, i2 } => m.swap_real_real(&mut net, *i1, *i2),
            Op::Permute { perm } => m.permute_virt(&mut net, perm),
            Op::Relabel { perm } => m.relabel_virt(perm),
        }
    }
    net.finish_round();
    let map = m.map().clone();
    (m.into_buffers(), map, net.finalize())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn block_move_data_plane_matches_reference(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        // Up to 256 elements per node, so that a rotation can have both
        // sides of the local matrix at the register tile's eight; fewer
        // nodes there, which keeps the per-element reference quick.
        let vp = 1 + rng.below(8) as u32;
        let n = 1 + rng.below(if vp > 5 { 2 } else { 3 }) as u32;
        let map = random_map(&mut rng, n, vp);
        let count = 1 + rng.below(6) as usize;
        let ops = random_ops(&mut rng, n, vp, count);
        let expect = run_reference(map.clone(), &ops);
        let got = run_block(map, &ops);
        prop_assert_eq!(&expect.0, &got.0, "payloads diverge");
        prop_assert_eq!(&expect.1, &got.1, "role maps diverge");
        prop_assert_eq!(&expect.2, &got.2, "reports diverge");
    }

    #[test]
    fn rearrange_to_matches_reference(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let n = 1 + rng.below(3) as u32;
        let vp = 1 + rng.below(4) as u32;
        let start = random_map(&mut rng, n, vp);
        let target = random_map(&mut rng, n, vp);
        let policy = random_policy(&mut rng, vp);

        let mut rm = ref_twin(&MappedMatrix::<u64>::from_fn(start.clone(), |w| w));
        let mut rnet = unit_net(n);
        let rsteps = rm.rearrange_to(&mut rnet, &target, policy);
        rnet.finish_round();
        let expect = (rm.into_buffers(), rsteps, rnet.finalize());

        let mut m = MappedMatrix::<u64>::from_fn(start, |w| w);
        let mut net = unit_net(n);
        let steps = m.rearrange_to(&mut net, &target, policy);
        net.finish_round();
        prop_assert_eq!(&expect.0, &m.into_buffers(), "payloads diverge");
        prop_assert_eq!(expect.1, steps);
        prop_assert_eq!(&expect.2, &net.finalize(), "reports diverge");
    }
}

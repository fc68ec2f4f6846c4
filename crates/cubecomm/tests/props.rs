//! Property-based tests for the personalized-communication algorithms:
//! every planner family, on random sizes, roots and dimension splits,
//! delivers labelled payloads through `exec::execute`.

use cubeaddr::{DimSet, NodeId};
use cubecomm::exec::execute;
use cubecomm::plan::{
    all_to_all_exchange_plan, all_to_all_sbnt_plan, exchange_plan, one_to_all_sbt_plan,
    one_to_all_trees_plan, sbnt_plan, some_to_all_plan, BlockMeta, CommSchedule,
};
use cubecomm::sbt::Sbt;
use cubecomm::{Block, BufferPolicy};
use cubesim::{CommReport, MachineParams, PortMode, SimNet};
use proptest::prelude::*;

/// Deterministic pseudo-random size table from a seed: `sizes[s][d]` is
/// `hash(s, d, seed) % (max_b + 1)` (zeros allowed — virtual elements).
fn random_sizes(n: u32, seed: u64, max_b: u64) -> Vec<Vec<u64>> {
    let num = 1u64 << n;
    (0..num)
        .map(|s| {
            (0..num)
                .map(|d| {
                    let h =
                        (s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(d).wrapping_mul(seed | 1))
                            >> 33;
                    h % (max_b + 1)
                })
                .collect()
        })
        .collect()
}

/// The payload of block `id`: its elements labelled `id·1000 + i`.
fn labelled(id: usize, b: &BlockMeta) -> Block<u64> {
    Block::new(b.src, b.dst, (0..b.elems).map(|i| id as u64 * 1000 + i).collect())
}

/// Executes `plan` with one labelled payload per block, in plan-block
/// order, on a unit net of `ports`, and checks that every node ends up
/// holding exactly the blocks planned for it, intact and in id order.
fn delivers(plan: &CommSchedule, ports: PortMode) -> CommReport {
    let payloads = plan.blocks.iter().enumerate().map(|(id, b)| labelled(id, b)).collect();
    let mut net = SimNet::on_topology(plan.topo, MachineParams::unit(ports));
    let held = execute(&mut net, plan, payloads);
    for (x, got) in held.iter().enumerate() {
        let planned = plan.blocks.iter().enumerate().filter(|(_, b)| b.dst.index() == x);
        let want: Vec<Block<u64>> = planned.map(|(id, b)| labelled(id, b)).collect();
        assert_eq!(got, &want, "{}: node {x}", plan.name);
    }
    net.finalize()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The exchange delivers arbitrary (ragged, sparse) size tables under
    /// every buffering policy, and its time respects the all-to-all lower
    /// bound computed from the actual critical volume.
    #[test]
    fn exchange_random_blocks(n in 1u32..5, seed in any::<u64>(), max_b in 0u64..6) {
        let sizes = random_sizes(n, seed, max_b);
        for policy in [
            BufferPolicy::Ideal,
            BufferPolicy::Unbuffered,
            BufferPolicy::Buffered { min_direct: 2 },
        ] {
            let plan = all_to_all_exchange_plan(n, &sizes, policy, PortMode::OnePort);
            let r = delivers(&plan, PortMode::OnePort);
            prop_assert!(r.time >= r.critical_elems as f64);
        }
    }

    /// SBnT routing delivers the same random size tables (n-port).
    #[test]
    fn sbnt_random_blocks(n in 1u32..5, seed in any::<u64>(), max_b in 0u64..6) {
        delivers(&all_to_all_sbnt_plan(n, &random_sizes(n, seed, max_b)), PortMode::AllPorts);
    }

    /// One-to-all delivers ragged per-destination data from any root
    /// through the SBT, every tree family the cube admits (the `n`
    /// rotated trees, each `k | n` optimally rotated family, the
    /// reflected pair on even cubes) and the SBnT.
    #[test]
    fn one_to_all_random(n in 1u32..6, root_raw in any::<u64>(), len in 0u64..9) {
        let root = NodeId(root_raw & cubeaddr::mask(n));
        let sizes: Vec<u64> = (0..(1u64 << n)).map(|d| len + d % 3).collect();
        delivers(&one_to_all_sbt_plan(n, root, &sizes), PortMode::OnePort);
        let mut families: Vec<Vec<Sbt>> =
            (1..=n).filter(|k| n % k == 0).map(|k| Sbt::k_rotated(n, root, k)).collect();
        if n % 2 == 0 {
            families.push(Sbt::reflected_pair(n, root).to_vec());
        }
        for trees in &families {
            let r = delivers(&one_to_all_trees_plan(n, &sizes, trees), PortMode::AllPorts);
            prop_assert!(r.rounds <= n as usize);
        }
        let blocks = NodeId::all(n).zip(&sizes).filter(|&(_, &elems)| elems > 0);
        let blocks = blocks.map(|(dst, &elems)| BlockMeta { src: root, dst, elems }).collect();
        delivers(&sbnt_plan(n, blocks), PortMode::AllPorts);
    }

    /// Some-to-all in both phase orders, and all-to-some, with a random
    /// split of the cube dimensions into l and k sets, deliver
    /// everything, whatever the subset shape.
    #[test]
    fn some_to_all_random_split(n in 1u32..5, mask_raw in any::<u64>(), seed in any::<u64>()) {
        let l_dims = DimSet(mask_raw & cubeaddr::mask(n));
        let k_dims = l_dims.complement(n);
        let subcube: Vec<NodeId> = NodeId::all(n).filter(|x| x.bits() & k_dims.0 == 0).collect();
        let num = 1u64 << n;
        let sizes: Vec<Vec<u64>> = (0..subcube.len() as u64)
            .map(|i| (0..num).map(|d| (i + d + seed) % 4).collect())
            .collect();
        let (ideal, one_port) = (BufferPolicy::Ideal, PortMode::OnePort);
        let split_first = some_to_all_plan(n, l_dims, k_dims, &sizes, ideal, one_port);
        delivers(&split_first, one_port);
        let l_then_k: Vec<u32> = l_dims.iter_desc().chain(k_dims.iter_desc()).collect();
        let blocks = split_first.blocks.clone();
        delivers(&exchange_plan(n, blocks, &l_then_k, ideal, one_port, "l first"), one_port);
        // All-to-some: every node to the k-subcube, accumulation last.
        let mut blocks = Vec::new();
        for src in NodeId::all(n) {
            for (i, &dst) in subcube.iter().enumerate() {
                let elems = (src.bits() + i as u64 + seed) % 4;
                if elems > 0 {
                    blocks.push(BlockMeta { src, dst, elems });
                }
            }
        }
        delivers(&exchange_plan(n, blocks, &l_then_k, ideal, one_port, "all-to-some"), one_port);
    }
}

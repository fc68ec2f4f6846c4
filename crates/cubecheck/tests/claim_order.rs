//! `check_all` does not depend on the order of the claims: reversing
//! every round's claims, or shuffling all of them across rounds, gives
//! the same diagnostics.
//!
//! A built plan's claims ascend by `(round, src, dim)`, which lets the
//! rules walk them in place. A reversed or shuffled lowering is out of
//! that order, so these cases keep the index-sorted walk exercised on
//! every planner's output and on a corrupted lowering.

use cubeaddr::NodeId;
use cubecheck::workloads::transpose_msgs;
use cubecheck::{check_all, lower, Diag, LinkClaim, Lowered, Rule};
use cubecomm::plan::{self, BlockMeta, CommSchedule};
use cubecomm::sbt::Sbt;
use cubecomm::BufferPolicy;
use cubesim::{MachineParams, PortMode};
use cubetest::Rng;
use cubetopo::{SwappedDragonfly, Topology};

/// The lowering with each round's claims reversed, rounds in place.
fn reverse_rounds(low: &Lowered) -> Lowered {
    let mut claims = low.claims.clone();
    for round in claims.chunk_by_mut(|a, b| a.round == b.round) {
        round.reverse();
    }
    Lowered { claims, ..low.clone() }
}

/// The lowering with all its claims in an order drawn from `seed`
/// (a Fisher–Yates shuffle on SplitMix64), rounds mixed.
fn shuffle(low: &Lowered, seed: u64) -> Lowered {
    let mut claims = low.claims.clone();
    Rng::new(seed).shuffle(&mut claims);
    Lowered { claims, ..low.clone() }
}

fn in_key_order(low: &Lowered) -> bool {
    low.claims.is_sorted_by_key(|c| (c.round, c.src, c.dim))
}

/// Lowers `plan` on its own port mode and checks it as built and with
/// every round reversed; returns the diagnostics and whether the
/// reversal left key order.
fn check_both_ways(plan: &CommSchedule, params: &MachineParams) -> (Vec<Diag>, bool) {
    let low = lower(plan, params);
    let reversed = reverse_rounds(&low);
    let diags = check_all(&low, params);
    assert_eq!(check_all(&reversed, params), diags, "{}", plan.name);
    (diags, in_key_order(&low) && !in_key_order(&reversed))
}

/// A deterministic `num × num` size matrix with entries in `0..=max_b`.
fn sizes(num: usize, seed: u64, max_b: u64) -> Vec<Vec<u64>> {
    (0..num as u64)
        .map(|s| {
            (0..num as u64)
                .map(|d| {
                    let h = s
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(d)
                        .wrapping_mul(seed | 1);
                    (h >> 33) % (max_b + 1)
                })
                .collect()
        })
        .collect()
}

/// One message from every node, destinations and sizes from row 0.
fn msgs(num: usize, seed: u64, max_b: u64) -> Vec<(NodeId, NodeId, u64)> {
    sizes(num, seed, max_b)[0]
        .iter()
        .enumerate()
        .map(|(i, &h)| (NodeId(i as u64), NodeId(h.wrapping_mul(i as u64 + 1) % num as u64), h))
        .collect()
}

/// Every planner: exchange under each buffer policy, SBT, rotated
/// trees, SBnT and the e-cube router on the `n`-cube, and both Swapped
/// Dragonfly planners on `D3(k, m)`.
fn plans(n: u32, (k, m): (u32, u32), seed: u64, max_b: u64) -> Vec<CommSchedule> {
    let num = 1usize << n;
    let cube = sizes(num, seed, max_b);
    let blocks: Vec<BlockMeta> = cube
        .iter()
        .enumerate()
        .flat_map(|(s, row)| {
            row.iter().enumerate().filter(|&(_, &e)| e > 0).map(move |(d, &elems)| BlockMeta {
                src: NodeId(s as u64),
                dst: NodeId(d as u64),
                elems,
            })
        })
        .collect();
    let dims: Vec<u32> = (0..n).map(|i| (i + seed as u32) % n).collect();
    let root = NodeId(seed % num as u64);
    let rotated: Vec<Sbt> = (0..n).map(|r| Sbt::rotated(n, root, r)).collect();
    let mut out: Vec<CommSchedule> =
        [BufferPolicy::Ideal, BufferPolicy::Unbuffered, BufferPolicy::Buffered { min_direct: 2 }]
            .into_iter()
            .map(|policy| {
                plan::exchange_plan(n, blocks.clone(), &dims, policy, PortMode::OnePort, "order")
            })
            .collect();
    out.push(plan::one_to_all_sbt_plan(n, root, &cube[0]));
    out.push(plan::one_to_all_trees_plan(n, &cube[0], &rotated));
    out.push(plan::all_to_all_sbnt_plan(n, &cube));
    out.push(plan::ecube_route_plan(n, &msgs(num, seed, max_b)));
    let df = SwappedDragonfly::new(k, m).num_nodes();
    out.push(plan::dragonfly_direct_plan(k, m, &msgs(df, seed, max_b)));
    out.push(plan::dragonfly_swap_exchange_plan(k, m, &sizes(df, seed, max_b)));
    out
}

#[test]
fn reversing_every_round_leaves_every_planners_diagnostics_unchanged() {
    let mut reordered = 0;
    for n in 1..=5 {
        for shape in [(1, 2), (2, 3), (3, 4)] {
            for seed in [1, 7, 42] {
                for plan in plans(n, shape, seed, 4) {
                    let params = MachineParams::unit(plan.ports);
                    let (diags, out_of_order) = check_both_ways(&plan, &params);
                    assert!(diags.is_empty(), "{}: {}", plan.name, diags[0]);
                    reordered += usize::from(out_of_order);
                }
            }
        }
    }
    assert!(reordered > 100, "only {reordered} reversals left key order");
}

#[test]
fn shuffling_all_claims_leaves_every_planners_diagnostics_unchanged() {
    let mut mixed = 0;
    for n in 1..=5 {
        for shape in [(1, 2), (2, 3), (3, 4)] {
            for seed in [1, 7, 42] {
                for plan in plans(n, shape, seed, 4) {
                    let params = MachineParams::unit(plan.ports);
                    let low = lower(&plan, &params);
                    let diags = check_all(&low, &params);
                    assert!(diags.is_empty(), "{}: {}", plan.name, diags[0]);
                    let shuffled = shuffle(&low, seed << 8 | u64::from(n));
                    assert_eq!(check_all(&shuffled, &params), diags, "{}", plan.name);
                    mixed += usize::from(!shuffled.claims.is_sorted_by_key(|c| c.round));
                }
            }
        }
    }
    assert!(mixed > 100, "only {mixed} shuffles mixed rounds");
}

/// The e-cube transpose at n = 4 with three corruptions: a fresh one-hop
/// block on a claimed link, placed right behind the claim it duplicates;
/// one block's last hop dropped; and a block that forks, crossing dim 0
/// in a round it also crosses a higher dim from the same node. Each
/// keeps the claims in key order. The fork is the one a reversal can
/// turn around within a block's hops, so it is what tells a walk in key
/// order from one in claim order.
fn corrupted_lowering() -> (Lowered, LinkClaim) {
    let params = MachineParams::unit(PortMode::AllPorts);
    let plan = plan::ecube_route_plan(4, &transpose_msgs(4, 3));
    let mut low = lower(&plan, &params);
    let at = low.claims.len() / 2;
    let victim = low.claims[at].clone();
    let id = low.blocks.len() as u32;
    low.blocks.push(BlockMeta {
        src: NodeId(victim.src),
        dst: NodeId(victim.src ^ (1 << victim.dim)),
        elems: victim.elems,
    });
    let blocks = low.push_ids(&[id]);
    low.claims.insert(at + 1, LinkClaim { blocks, ..victim.clone() });
    let last = low.claims.iter().rposition(|c| low.ids(c) == [1]).expect("block 1 is routed");
    low.claims.remove(last);
    let fork_at = low.claims.iter().rposition(|c| c.dim > 0 && low.ids(c) != [1]).unwrap();
    let forked = low.claims[fork_at].clone();
    low.claims.insert(fork_at, LinkClaim { dim: 0, ..forked.clone() });
    assert!(in_key_order(&low), "the corruptions keep key order");
    (low, forked)
}

#[test]
fn reversing_every_round_leaves_a_corrupted_lowerings_diagnostics_unchanged() {
    let params = MachineParams::unit(PortMode::AllPorts);
    let (low, forked) = corrupted_lowering();
    let diags = check_all(&low, &params);
    let twice: Vec<&Diag> =
        diags.iter().filter(|d| d.detail == "block claimed twice in one round").collect();
    assert_eq!(twice.len(), 1, "{diags:?}");
    assert_eq!(
        (twice[0].round, twice[0].node, twice[0].dim),
        (Some(forked.round), Some(forked.src), Some(forked.dim))
    );
    let mut rules: Vec<Rule> = diags.iter().map(|d| d.rule).collect();
    rules.dedup();
    assert_eq!(rules, [Rule::LinkExclusive, Rule::Conservation], "{diags:?}");
    let reversed = reverse_rounds(&low);
    assert!(!in_key_order(&reversed));
    assert_eq!(check_all(&reversed, &params), diags);
}

#[test]
fn shuffling_all_claims_leaves_a_corrupted_lowerings_diagnostics_unchanged() {
    let params = MachineParams::unit(PortMode::AllPorts);
    let (low, _) = corrupted_lowering();
    let diags = check_all(&low, &params);
    assert!(!diags.is_empty());
    for seed in 0..16 {
        let shuffled = shuffle(&low, seed);
        assert!(!shuffled.claims.is_sorted_by_key(|c| c.round), "seed {seed} mixes rounds");
        assert_eq!(check_all(&shuffled, &params), diags, "seed {seed}");
    }
}

//! Property tests pinning the factored plan builders to their
//! reference implementations — the `plan_reference` discipline.
//!
//! Three properties, each over every planner:
//!
//! 1. **Reference equivalence:** the fast skeleton-based builders in
//!    `cubecomm::plan` emit [`CommSchedule`]s byte-identical to the
//!    original per-node simulations preserved in
//!    `cubecomm::plan::reference` (same rounds, same message order, same
//!    block ids, same copies).
//! 2. **Cold = cached:** for each cached front door, a warm
//!    [`PlanCache`] hit returns a plan byte-identical to an uncached
//!    construction of the same inputs (and the very same `Arc` on the
//!    second fetch).
//! 3. **Channel order:** every round's messages ascend by channel
//!    `src · ports + dim`, the order `cubecheck`'s schedule fold walks
//!    without sorting. (Consumers accept any order; builders promise
//!    this one.)

use cubeaddr::NodeId;
use cubecomm::exchange::BufferPolicy;
use cubecomm::plan::{self, reference, BlockMeta, CommSchedule, PlanCache};
use cubecomm::sbt::Sbt;
use cubesim::PortMode;
use cubesync::sync::Arc;
use cubetopo::{SwappedDragonfly, Topology};
use proptest::prelude::*;

/// Deterministic pseudo-random size matrix (zeros allowed — dropped
/// blocks), the same generator idiom as `tests/props.rs`.
fn random_sizes(n: u32, seed: u64, max_b: u64) -> Vec<Vec<u64>> {
    random_matrix(1 << n, seed, max_b)
}

/// A `num × num` [`random_sizes`] for any node count.
fn random_matrix(num: usize, seed: u64, max_b: u64) -> Vec<Vec<u64>> {
    (0..num as u64)
        .map(|s| {
            (0..num as u64)
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

fn random_vec(n: u32, seed: u64, max_b: u64) -> Vec<u64> {
    random_sizes(n, seed, max_b).swap_remove(0)
}

/// A seed-shuffled permutation of the dimensions (Fisher–Yates with a
/// splitmix-style stream).
fn random_dims(n: u32, seed: u64) -> Vec<u32> {
    let mut dims: Vec<u32> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..dims.len()).rev() {
        state = state.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0xD1B54A32D192ED03);
        dims.swap(i, (state >> 33) as usize % (i + 1));
    }
    dims
}

/// Exchange blocks with pairwise distinct (src, dst): the nonzero
/// entries of a random size matrix.
fn random_blocks(n: u32, seed: u64, max_b: u64) -> Vec<BlockMeta> {
    let mut blocks = Vec::new();
    for (s, row) in random_sizes(n, seed, max_b).into_iter().enumerate() {
        for (d, elems) in row.into_iter().enumerate() {
            if elems > 0 {
                blocks.push(BlockMeta { src: NodeId(s as u64), dst: NodeId(d as u64), elems });
            }
        }
    }
    blocks
}

fn random_msgs(n: u32, seed: u64, max_b: u64) -> Vec<(NodeId, NodeId, u64)> {
    let num = 1u64 << n;
    random_vec(n, seed, max_b)
        .into_iter()
        .enumerate()
        .map(|(i, h)| (NodeId(i as u64), NodeId(h.wrapping_mul(i as u64 + 1) % num), h))
        .collect()
}

/// Asserts byte-identity field by field so a mismatch names the layer.
fn assert_identical(fast: &CommSchedule, reference: &CommSchedule, what: &str) {
    assert_eq!(fast.topo, reference.topo, "{what}: topo");
    assert_eq!(fast.name, reference.name, "{what}: name");
    assert_eq!(fast.ports, reference.ports, "{what}: ports");
    assert_eq!(fast.dimension_ordered, reference.dimension_ordered, "{what}: dimension_ordered");
    assert_eq!(fast.blocks, reference.blocks, "{what}: blocks");
    assert_eq!(fast.rounds.len(), reference.rounds.len(), "{what}: round count");
    for (i, (f, r)) in fast.rounds.iter().zip(&reference.rounds).enumerate() {
        assert_eq!(f, r, "{what}: round {i}");
    }
}

/// The first `(round, message)` whose channel `src · ports + dim` is
/// below its predecessor's, if any.
fn first_descent(plan: &CommSchedule) -> Option<(usize, usize)> {
    let ports = u64::from(plan.topo.ports());
    plan.rounds.iter().enumerate().find_map(|(r, round)| {
        let channels: Vec<u64> =
            round.msgs.iter().map(|m| m.src.bits() * ports + u64::from(m.dim)).collect();
        channels.windows(2).position(|w| w[0] > w[1]).map(|i| (r, i + 1))
    })
}

/// Every planner with a reference twin, both as boxed closures over
/// shared random inputs. (`all_to_all_exchange_plan` and
/// `some_to_all_plan` delegate to `exchange_plan`.)
type Planner = (&'static str, Box<dyn Fn() -> CommSchedule>, Box<dyn Fn() -> CommSchedule>);

fn planners(n: u32, seed: u64, max_b: u64, policy: BufferPolicy) -> Vec<Planner> {
    let sizes = random_sizes(n, seed, max_b);
    let blocks = random_blocks(n, seed, max_b);
    let dims = random_dims(n, seed);
    let root = NodeId(seed % (1 << n));
    let one_sizes = random_vec(n, seed, max_b);
    let msgs = random_msgs(n, seed, max_b);
    let rotated: Vec<Sbt> = (0..n).map(|k| Sbt::rotated(n, root, k)).collect();

    let mut out: Vec<Planner> = Vec::new();
    {
        let (b, d) = (blocks.clone(), dims.clone());
        out.push((
            "exchange",
            Box::new(move || {
                plan::exchange_plan(n, b.clone(), &d, policy, PortMode::OnePort, "prop/exchange")
            }),
            {
                let (b, d) = (blocks.clone(), dims.clone());
                Box::new(move || {
                    reference::exchange_plan(
                        n,
                        b.clone(),
                        &d,
                        policy,
                        PortMode::OnePort,
                        "prop/exchange",
                    )
                })
            },
        ));
    }
    {
        let s = one_sizes.clone();
        out.push(("one_to_all_sbt", Box::new(move || plan::one_to_all_sbt_plan(n, root, &s)), {
            let s = one_sizes.clone();
            Box::new(move || reference::one_to_all_sbt_plan(n, root, &s))
        }));
    }
    {
        let (s, t) = (one_sizes.clone(), rotated.clone());
        out.push(("one_to_all_trees", Box::new(move || plan::one_to_all_trees_plan(n, &s, &t)), {
            let (s, t) = (one_sizes.clone(), rotated.clone());
            Box::new(move || reference::one_to_all_trees_plan(n, &s, &t))
        }));
    }
    {
        let s = sizes.clone();
        out.push(("all_to_all_sbnt", Box::new(move || plan::all_to_all_sbnt_plan(n, &s)), {
            let s = sizes.clone();
            Box::new(move || reference::all_to_all_sbnt_plan(n, &s))
        }));
    }
    {
        let m = msgs.clone();
        out.push(("ecube_route", Box::new(move || plan::ecube_route_plan(n, &m)), {
            let m = msgs.clone();
            Box::new(move || reference::ecube_route_plan(n, &m))
        }));
    }
    out
}

fn policy_strategy() -> impl Strategy<Value = BufferPolicy> {
    (0u64..17).prop_map(|v| match v {
        0 => BufferPolicy::Ideal,
        1 => BufferPolicy::Unbuffered,
        m => BufferPolicy::Buffered { min_direct: (m - 1) as usize },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 1: fast builders == reference simulations, byte for
    /// byte, for random inputs under every buffering policy.
    #[test]
    fn factored_builders_match_reference(
        n in 1u32..5,
        seed in any::<u64>(),
        max_b in 0u64..6,
        policy in policy_strategy(),
    ) {
        for (what, fast, twin) in planners(n, seed, max_b, policy) {
            assert_identical(&fast(), &twin(), what);
        }
    }

    /// Property 2: a cache hit is byte-identical to a cold build, and a
    /// repeat fetch returns the very same `Arc` — for the cube's e-cube
    /// router and both Swapped Dragonfly front doors.
    #[test]
    fn cached_plans_match_cold_construction(
        n in 1u32..5,
        (k, m) in (1u32..4, 1u32..4),
        seed in any::<u64>(),
        max_b in 0u64..6,
    ) {
        let cache = PlanCache::new(16);
        let msgs = random_msgs(n, seed, max_b);
        let df = SwappedDragonfly::new(k, m).num_nodes();
        let df_sizes = random_matrix(df, seed, max_b);
        let df_msgs: Vec<(NodeId, NodeId, u64)> = df_sizes[0]
            .iter()
            .enumerate()
            .map(|(i, &h)| (NodeId(i as u64), NodeId(h.wrapping_mul(i as u64 + 1) % df as u64), h))
            .collect();

        let pairs: Vec<(&str, CommSchedule, Arc<CommSchedule>, Arc<CommSchedule>)> = vec![
            (
                "ecube_route",
                plan::ecube_route_plan(n, &msgs),
                plan::ecube_route_plan_cached(&cache, n, &msgs),
                plan::ecube_route_plan_cached(&cache, n, &msgs),
            ),
            (
                "dragonfly_direct",
                plan::dragonfly_direct_plan(k, m, &df_msgs),
                plan::dragonfly_direct_plan_cached(&cache, k, m, &df_msgs),
                plan::dragonfly_direct_plan_cached(&cache, k, m, &df_msgs),
            ),
            (
                "dragonfly_swap_exchange",
                plan::dragonfly_swap_exchange_plan(k, m, &df_sizes),
                plan::dragonfly_swap_exchange_plan_cached(&cache, k, m, &df_sizes),
                plan::dragonfly_swap_exchange_plan_cached(&cache, k, m, &df_sizes),
            ),
        ];
        for (what, cold, first, second) in &pairs {
            assert_identical(first, cold, what);
            assert!(Arc::ptr_eq(first, second), "{what}: repeat fetch must hit");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, pairs.len() as u64, "one miss per planner");
        assert_eq!(stats.hits, pairs.len() as u64, "one hit per planner");
    }

    /// Property 3: every builder — each one with a reference twin, the
    /// twin itself, and both Swapped Dragonfly planners — emits each
    /// round's messages in ascending channel order.
    #[test]
    fn every_builder_emits_rounds_in_channel_order(
        n in 1u32..6,
        (k, m) in (1u32..4, 1u32..5),
        seed in any::<u64>(),
        max_b in 0u64..6,
        policy in policy_strategy(),
    ) {
        let mut plans: Vec<(&str, CommSchedule)> = Vec::new();
        for (what, fast, twin) in planners(n, seed, max_b, policy) {
            plans.push((what, fast()));
            plans.push((what, twin()));
        }
        let df = SwappedDragonfly::new(k, m).num_nodes();
        let df_sizes = random_matrix(df, seed, max_b);
        let df_msgs: Vec<(NodeId, NodeId, u64)> = df_sizes[0]
            .iter()
            .enumerate()
            .map(|(i, &h)| (NodeId(i as u64), NodeId(h.wrapping_mul(i as u64 + 1) % df as u64), h))
            .collect();
        plans.push(("dragonfly_direct", plan::dragonfly_direct_plan(k, m, &df_msgs)));
        plans.push(("dragonfly_swap_exchange", plan::dragonfly_swap_exchange_plan(k, m, &df_sizes)));
        for (what, plan) in &plans {
            prop_assert_eq!(first_descent(plan), None, "{}: (round, message) out of channel order", what);
        }
    }
}

//! Deliberately corrupted schedules: each corruption must trigger
//! exactly the intended rule, with the right location attached — the
//! checkers' precision tests (the recall side is the equivalence suite).

use cubeaddr::NodeId;
use cubecheck::{check_all, lower, Diag, LinkClaim, Lowered, Rule};
use cubecomm::plan::{
    all_to_all_exchange_plan, ecube_route_plan, BlockMeta, CommSchedule, PlanRound, PlannedMsg,
};
use cubecomm::BufferPolicy;
use cubesim::{MachineParams, PortMode};

fn rules_of(diags: &[Diag]) -> Vec<Rule> {
    let mut rules: Vec<Rule> = diags.iter().map(|d| d.rule).collect();
    rules.dedup();
    rules
}

/// Duplicate link claim: splitting one exchange message into two
/// messages on the same directed link in the same round breaks *only*
/// edge-disjointness (sizes, chains and ports all stay intact).
#[test]
fn duplicate_link_claim_fires_link_exclusive_only() {
    let sizes = vec![vec![1u64; 4]; 4];
    let plan = all_to_all_exchange_plan(2, &sizes, BufferPolicy::Ideal, PortMode::OnePort);
    let params = MachineParams::unit(PortMode::OnePort);
    let mut low = lower(&plan, &params);

    let victim = low
        .claims
        .iter()
        .position(|c| low.ids(c).len() >= 2)
        .expect("all-to-all claims carry >= 2 blocks");
    let mut split = low.claims[victim].clone();
    let moved = split.blocks.start + 1..split.blocks.end;
    split.blocks.end = moved.start;
    split.elems = low.ids(&split).iter().map(|&b| low.blocks[b as usize].elems).sum();
    split.packets = params.packets(split.elems as usize) as u64;
    let mut second = low.claims[victim].clone();
    second.blocks = moved;
    second.elems = low.ids(&second).iter().map(|&b| low.blocks[b as usize].elems).sum();
    second.packets = params.packets(second.elems as usize) as u64;
    let (round, src, dim) = (split.round, split.src, split.dim);
    low.claims[victim] = split;
    low.claims.push(second);

    let diags = check_all(&low, &params);
    assert_eq!(rules_of(&diags), vec![Rule::LinkExclusive], "{diags:?}");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].round, Some(round));
    assert_eq!(diags[0].node, Some(src));
    assert_eq!(diags[0].dim, Some(dim));
}

/// Oversized packet: declaring fewer packets than `⌈S/B_m⌉` requires
/// breaks only the packet budget.
#[test]
fn oversized_packet_fires_packet_budget_only() {
    let plan = ecube_route_plan(2, &[(NodeId(0), NodeId(3), 4)]);
    let params = MachineParams::unit(PortMode::AllPorts).with_max_packet(2);
    let mut low = lower(&plan, &params);
    assert_eq!(low.claims[0].packets, 2);
    low.claims[0].packets = 1; // one packet of 4 > B_m = 2

    let diags = check_all(&low, &params);
    assert_eq!(rules_of(&diags), vec![Rule::PacketBudget], "{diags:?}");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].round, Some(low.claims[0].round));
    assert_eq!(diags[0].node, Some(0));
    assert_eq!(diags[0].dim, Some(low.claims[0].dim));
}

/// Cyclic channel dependencies: four blocks chasing each other around
/// the 2-cube. Every round is edge-disjoint and every block arrives, but
/// the channel dependency graph is the 4-cycle
/// `(0,d0) → (1,d1) → (3,d0) → (2,d1) → (0,d0)` — the configuration
/// dimension-ordered routing exists to exclude.
#[test]
fn cyclic_channel_dependency_fires_deadlock_free_only() {
    // Block `b` is arena entry `b`.
    let msg = |src: u64, dim: u32, block: u32| PlannedMsg {
        src: NodeId(src),
        dim,
        blocks: block..block + 1,
    };
    let plan = CommSchedule {
        name: "corrupt/cycle".into(),
        topo: cubetopo::TopoSpec::hypercube(2),
        ports: PortMode::AllPorts,
        dimension_ordered: true, // claims an order it does not have
        blocks: vec![
            BlockMeta { src: NodeId(0), dst: NodeId(3), elems: 1 },
            BlockMeta { src: NodeId(1), dst: NodeId(2), elems: 1 },
            BlockMeta { src: NodeId(3), dst: NodeId(0), elems: 1 },
            BlockMeta { src: NodeId(2), dst: NodeId(1), elems: 1 },
        ],
        block_ids: (0..4).collect(),
        rounds: vec![
            PlanRound {
                msgs: vec![msg(0, 0, 0), msg(1, 1, 1), msg(3, 0, 2), msg(2, 1, 3)],
                copies: vec![],
            },
            PlanRound {
                msgs: vec![msg(1, 1, 0), msg(3, 0, 1), msg(2, 1, 2), msg(0, 0, 3)],
                copies: vec![],
            },
        ],
    };
    let params = MachineParams::unit(PortMode::AllPorts);
    let low = lower(&plan, &params);
    let diags = check_all(&low, &params);
    assert_eq!(rules_of(&diags), vec![Rule::DeadlockFree], "{diags:?}");
    assert_eq!(diags.len(), 1);
    assert!(diags[0].detail.contains("cycle"), "{}", diags[0]);
    assert!(diags[0].node.is_some());
}

/// Dropped element: deleting the final hop of a routed block leaves its
/// delivery chain short of the destination — conservation, and only
/// conservation, with the block named.
#[test]
fn dropped_element_fires_conservation_only() {
    let plan = ecube_route_plan(2, &[(NodeId(0), NodeId(3), 2)]);
    let params = MachineParams::unit(PortMode::AllPorts);
    let mut low = lower(&plan, &params);
    assert_eq!(low.claims.len(), 2, "0 -> 3 takes two hops");
    let last = low.claims.iter().map(|c| c.round).max().unwrap();
    low.claims.retain(|c| c.round != last);

    let diags = check_all(&low, &params);
    assert_eq!(rules_of(&diags), vec![Rule::Conservation], "{diags:?}");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].block, Some(0));
    assert_eq!(diags[0].node, Some(1), "chain stops at the intermediate node");
    assert!(diags[0].detail.contains("dropped"), "{}", diags[0]);
}

/// Sanity: the uncorrupted versions of all the fixtures are clean.
#[test]
fn uncorrupted_fixtures_are_clean() {
    let params = MachineParams::unit(PortMode::OnePort);
    let sizes = vec![vec![1u64; 4]; 4];
    let plan = all_to_all_exchange_plan(2, &sizes, BufferPolicy::Ideal, PortMode::OnePort);
    assert!(check_all(&lower(&plan, &params), &params).is_empty());
    let plan =
        all_to_all_exchange_plan(2, &neighbor_sizes(2), BufferPolicy::Ideal, PortMode::OnePort);
    assert!(check_all(&lower(&plan, &params), &params).is_empty());

    let params = MachineParams::unit(PortMode::AllPorts).with_max_packet(2);
    let plan = ecube_route_plan(2, &[(NodeId(0), NodeId(3), 4)]);
    assert!(check_all(&lower(&plan, &params), &params).is_empty());
    let plan = ecube_route_plan(2, &[(NodeId(1), NodeId(2), 1)]);
    assert!(check_all(&lower(&plan, &params), &params).is_empty());
}

/// The diagnostic's `(rule, round, node, dim, block)`.
fn loc(d: &Diag) -> (Rule, Option<usize>, Option<u64>, Option<u32>, Option<u32>) {
    (d.rule, d.round, d.node, d.dim, d.block)
}

/// One element from every node to each of its cube neighbors: every
/// all-to-all block is a single hop.
fn neighbor_sizes(n: u32) -> Vec<Vec<u64>> {
    let num = 1u64 << n;
    (0..num).map(|s| (0..num).map(|d| u64::from((s ^ d).count_ones() == 1)).collect()).collect()
}

/// A one-port violation on a real exchange lowering: node 0's dim-0
/// message moved into the dim-1 round. Its block is a single hop, so the
/// chain stays intact; node 0 now uses two links in round 0, and so does
/// node 1, which sends on dim 1 and receives node 0's message on dim 0.
#[test]
fn one_port_violation_on_exchange_fires_port_model_only() {
    let params = MachineParams::unit(PortMode::OnePort);
    let plan =
        all_to_all_exchange_plan(2, &neighbor_sizes(2), BufferPolicy::Ideal, PortMode::OnePort);
    let mut low = lower(&plan, &params);
    let moved = low
        .claims
        .iter()
        .position(|c| (c.round, c.src, c.dim) == (1, 0, 0))
        .expect("dims go highest first: node 0 crosses dim 0 in round 1");
    assert!(low.claims.iter().any(|c| (c.round, c.src, c.dim) == (0, 0, 1)));
    low.claims[moved].round = 0;

    let diags = check_all(&low, &params);
    assert_eq!(rules_of(&diags), vec![Rule::PortModel], "{diags:?}");
    let locs: Vec<_> = diags.iter().map(loc).collect();
    assert_eq!(
        locs,
        vec![
            (Rule::PortModel, Some(0), Some(0), Some(0), None),
            (Rule::PortModel, Some(0), Some(1), Some(0), None),
        ]
    );
    for d in &diags {
        assert_eq!(d.detail, "one-port node uses links on dims 1 and 0 in one round");
    }
}

/// A claim from node `u64::MAX`: the port model names the claim, the
/// block's chain breaks at it, and the channel arithmetic neither
/// overflows nor panics.
#[test]
fn huge_src_fires_port_model_and_conservation_without_panicking() {
    let plan = ecube_route_plan(2, &[(NodeId(0), NodeId(3), 2)]);
    let params = MachineParams::unit(PortMode::AllPorts);
    let mut low = lower(&plan, &params);
    low.claims[0].src = u64::MAX;
    let (round, dim) = (low.claims[0].round, low.claims[0].dim);

    let diags = check_all(&low, &params);
    assert_eq!(rules_of(&diags), vec![Rule::PortModel, Rule::Conservation], "{diags:?}");
    assert_eq!(diags.len(), 2);
    assert_eq!(loc(&diags[0]), (Rule::PortModel, Some(round), Some(u64::MAX), Some(dim), None));
    assert_eq!(
        loc(&diags[1]),
        (Rule::Conservation, Some(round), Some(u64::MAX), Some(dim), Some(0))
    );
    assert!(diags[1].detail.contains("the block is at node 0"), "{}", diags[1]);
}

/// A hop on port `ports` of node 0. With channels numbered
/// `src * ports + dim` it would alias `(1, dim 0)`, the block's previous
/// hop, and fake a one-channel cycle; with its own id it is just an
/// unlinked claim.
#[test]
fn out_of_range_dim_aliases_no_channel() {
    let plan = ecube_route_plan(2, &[(NodeId(1), NodeId(2), 1)]);
    let params = MachineParams::unit(PortMode::AllPorts);
    let mut low = lower(&plan, &params);
    assert_eq!(low.claims.len(), 2, "1 -> 0 -> 2");
    assert_eq!((low.claims[0].src, low.claims[0].dim), (1, 0));
    assert_eq!((low.claims[1].src, low.claims[1].dim), (0, 1));
    low.claims[1].dim = 2;

    let diags = check_all(&low, &params);
    assert_eq!(rules_of(&diags), vec![Rule::PortModel, Rule::Conservation], "{diags:?}");
    assert_eq!(diags.len(), 2);
    assert_eq!(loc(&diags[0]), (Rule::PortModel, Some(1), Some(0), Some(2), None));
    assert_eq!(loc(&diags[1]), (Rule::Conservation, Some(1), Some(0), Some(2), Some(0)));
    assert!(diags[1].detail.contains("nonexistent link"), "{}", diags[1]);
}

/// Unlinked claims duplicating each other: two empty messages on port
/// `ports` of node 1 in round 0 are one directed link claimed twice; a
/// third on port `ports + 1` is another link.
#[test]
fn duplicate_unlinked_claims_fire_link_exclusive_on_their_pair() {
    let plan = ecube_route_plan(2, &[(NodeId(0), NodeId(3), 2)]);
    let params = MachineParams::unit(PortMode::AllPorts);
    let mut low = lower(&plan, &params);
    let empty = |dim: u32| LinkClaim { round: 0, src: 1, dim, elems: 0, packets: 0, blocks: 0..0 };
    low.claims.extend([empty(2), empty(3), empty(2)]);

    let diags = check_all(&low, &params);
    assert_eq!(
        rules_of(&diags),
        vec![Rule::PortModel, Rule::LinkExclusive, Rule::PacketBudget],
        "{diags:?}"
    );
    let link: Vec<&Diag> = diags.iter().filter(|d| d.rule == Rule::LinkExclusive).collect();
    assert_eq!(link.len(), 1, "{diags:?}");
    assert_eq!(loc(link[0]), (Rule::LinkExclusive, Some(0), Some(1), Some(2), None));
    assert_eq!(link[0].detail, "2 messages claim one directed link in one round");
    assert_eq!(diags.iter().filter(|d| d.rule == Rule::PortModel).count(), 3);
    assert_eq!(diags.iter().filter(|d| d.rule == Rule::PacketBudget).count(), 3);
}

/// The four blocks of `cyclic_channel_dependency_fires_deadlock_free_only`
/// chasing each other around the 2-cube face `0 → 1 → 3 → 2`, as blocks
/// `base..base + 4` in rounds `round` and `round + 1`; their ids go into
/// `low`'s arena.
fn face_cycle(low: &mut Lowered, base: u32, round: usize) -> (Vec<BlockMeta>, Vec<LinkClaim>) {
    let blocks = [(0, 3), (1, 2), (3, 0), (2, 1)].map(|(src, dst)| BlockMeta {
        src: NodeId(src),
        dst: NodeId(dst),
        elems: 1,
    });
    let hop = |(round, src, dim, block): (usize, u64, u32, u32)| LinkClaim {
        round,
        src,
        dim,
        elems: 1,
        packets: 1,
        blocks: low.push_ids(&[base + block]),
    };
    let claims = [
        (round, 0, 0, 0),
        (round, 1, 1, 1),
        (round, 3, 0, 2),
        (round, 2, 1, 3),
        (round + 1, 1, 1, 0),
        (round + 1, 3, 0, 1),
        (round + 1, 2, 1, 2),
        (round + 1, 0, 0, 3),
    ]
    .map(hop);
    (blocks.to_vec(), claims.to_vec())
}

/// Two channel cycles on one face of the 3-cube, one each way round
/// (`(4,d0) → (5,d1) → (7,d0) → (6,d1)` and `(4,d1) → (6,d0) → (7,d1) →
/// (5,d0)`), both entered from channel `(0, d2)`. The reported cycle is
/// the one behind the lower successor, on every run.
#[test]
fn two_cycles_report_the_lower_one_deterministically() {
    // Block `b` is arena entry `b`.
    let msg = |src: u64, dim: u32, block: u32| PlannedMsg {
        src: NodeId(src),
        dim,
        blocks: block..block + 1,
    };
    let meta = |src: u64, dst: u64| BlockMeta { src: NodeId(src), dst: NodeId(dst), elems: 1 };
    let plan = CommSchedule {
        name: "corrupt/two-cycles".into(),
        topo: cubetopo::TopoSpec::hypercube(3),
        ports: PortMode::AllPorts,
        dimension_ordered: true,
        blocks: vec![
            // Clockwise: blocks 0-3.
            meta(4, 7),
            meta(5, 6),
            meta(7, 4),
            meta(6, 5),
            // Counter-clockwise: blocks 4-7.
            meta(4, 7),
            meta(6, 5),
            meta(7, 4),
            meta(5, 6),
            // Down (0, d2) into node 4, then onto either cycle.
            meta(0, 5),
            meta(0, 6),
        ],
        block_ids: (0..10).collect(),
        rounds: vec![
            PlanRound {
                msgs: vec![
                    msg(4, 0, 0),
                    msg(5, 1, 1),
                    msg(7, 0, 2),
                    msg(6, 1, 3),
                    msg(4, 1, 4),
                    msg(6, 0, 5),
                    msg(7, 1, 6),
                    msg(5, 0, 7),
                ],
                copies: vec![],
            },
            PlanRound {
                msgs: vec![
                    msg(5, 1, 0),
                    msg(7, 0, 1),
                    msg(6, 1, 2),
                    msg(4, 0, 3),
                    msg(6, 0, 4),
                    msg(7, 1, 5),
                    msg(5, 0, 6),
                    msg(4, 1, 7),
                ],
                copies: vec![],
            },
            PlanRound { msgs: vec![msg(0, 2, 8)], copies: vec![] },
            PlanRound { msgs: vec![msg(4, 0, 8), msg(0, 2, 9)], copies: vec![] },
            PlanRound { msgs: vec![msg(4, 1, 9)], copies: vec![] },
        ],
    };
    let params = MachineParams::unit(PortMode::AllPorts);
    let low = lower(&plan, &params);
    for _ in 0..8 {
        let diags = check_all(&low, &params);
        assert_eq!(rules_of(&diags), vec![Rule::DeadlockFree], "{diags:?}");
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0].detail,
            "channel dependency cycle: (4, dim 0) -> (5, dim 1) -> (7, dim 0) -> (6, dim 1) -> back"
        );
        assert_eq!(loc(&diags[0]), (Rule::DeadlockFree, None, Some(4), Some(0), None));
    }
}

/// The claims interleaved across rounds, each round's claims kept in
/// their order: round-major ranks, rounds in a scrambled order.
fn interleave_rounds(claims: &[LinkClaim]) -> Vec<LinkClaim> {
    let mut seen = std::collections::HashMap::new();
    let mut keyed: Vec<(usize, u64, &LinkClaim)> = claims
        .iter()
        .map(|c| {
            let rank = seen.entry(c.round).or_insert(0usize);
            *rank += 1;
            (*rank, (c.round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29), c)
        })
        .collect();
    keyed.sort_by_key(|&(rank, scramble, _)| (rank, scramble));
    keyed.into_iter().map(|(_, _, c)| c.clone()).collect()
}

/// The rules group claims by their `round`, not by their position: a
/// lowering whose claims are interleaved across rounds reports exactly
/// what the ordered one does. The fixture breaks every rule whose
/// diagnostics come out round by round or block by block — one-port
/// (the router plan read as one-port), a duplicate link, a dropped hop
/// and a channel cycle.
#[test]
fn claims_shuffled_across_rounds_give_the_same_diagnostics() {
    let params = MachineParams::unit(PortMode::AllPorts);
    let plan = ecube_route_plan(4, &cubecheck::workloads::transpose_msgs(4, 3));
    let mut low = lower(&plan, &params);
    low.ports = PortMode::OnePort;
    let (base, rounds) = (low.blocks.len() as u32, low.rounds);
    let c = low.claims[low.claims.len() / 2].clone();
    low.blocks.push(BlockMeta { src: NodeId(c.src), dst: NodeId(c.src ^ (1 << c.dim)), elems: 3 });
    let blocks = low.push_ids(&[base]);
    low.claims.push(LinkClaim { blocks, ..c });
    let last = low.claims.iter().rposition(|c| low.ids(c) == [1]).expect("block 1 is routed");
    low.claims.remove(last);
    let (blocks, claims) = face_cycle(&mut low, base + 1, rounds);
    low.blocks.extend(blocks);
    low.claims.extend(claims);
    low.rounds += 2;

    let ordered = check_all(&low, &params);
    assert_eq!(
        rules_of(&ordered),
        vec![Rule::PortModel, Rule::LinkExclusive, Rule::Conservation, Rule::DeadlockFree],
        "{ordered:?}"
    );
    let shuffled = Lowered { claims: interleave_rounds(&low.claims), ..low.clone() };
    assert!(!shuffled.claims.is_sorted_by_key(|c| c.round), "the shuffle interleaves rounds");
    assert_eq!(check_all(&shuffled, &params), ordered);
}

/// Paper scale: the n = 14 transpose through the e-cube router (the
/// `cm14-*` lowering, 114 688 claims), with one corruption per rule
/// family, each firing exactly its own rule at its own location.
#[test]
#[ignore = "n = 14; run in release via scripts/ci.sh"]
fn paper_scale_corruptions_fire_their_rules() {
    let params = MachineParams::connection_machine();
    let plan = ecube_route_plan(14, &cubecheck::workloads::transpose_msgs(14, 4));
    let clean = lower(&plan, &params);
    assert_eq!(clean.claims.len(), 114_688);
    assert!(check_all(&clean, &params).is_empty());
    let victim = clean.claims[clean.claims.len() / 2].clone();
    assert_eq!(clean.ids(&victim).len(), 1, "router claims carry one block each");

    // A second message on a claimed link: a fresh one-hop block.
    let mut low = clean.clone();
    let id = low.blocks.len() as u32;
    low.blocks.push(BlockMeta {
        src: NodeId(victim.src),
        dst: NodeId(victim.src ^ (1 << victim.dim)),
        elems: victim.elems,
    });
    let blocks = low.push_ids(&[id]);
    low.claims.push(LinkClaim { blocks, ..victim.clone() });
    let diags = check_all(&low, &params);
    assert_eq!(rules_of(&diags), vec![Rule::LinkExclusive], "{diags:?}");
    assert_eq!(diags.len(), 1);
    assert_eq!(
        loc(&diags[0]),
        (Rule::LinkExclusive, Some(victim.round), Some(victim.src), Some(victim.dim), None)
    );

    // Under-declared packets.
    let mut low = clean.clone();
    let at = clean.claims.len() / 2;
    low.claims[at].packets -= 1;
    let diags = check_all(&low, &params);
    assert_eq!(rules_of(&diags), vec![Rule::PacketBudget], "{diags:?}");
    assert_eq!(diags.len(), 1);
    assert_eq!(
        loc(&diags[0]),
        (Rule::PacketBudget, Some(victim.round), Some(victim.src), Some(victim.dim), None)
    );

    // The victim's block loses its last hop.
    let mut low = clean.clone();
    let block = clean.ids(&victim)[0];
    let last = low.claims.iter().rposition(|c| low.ids(c) == [block]).expect("routed");
    let dropped = low.claims.remove(last);
    assert_ne!(dropped.src, low.blocks[block as usize].src.bits(), "a block of two or more hops");
    let diags = check_all(&low, &params);
    assert_eq!(rules_of(&diags), vec![Rule::Conservation], "{diags:?}");
    assert_eq!(diags.len(), 1);
    assert_eq!(loc(&diags[0]), (Rule::Conservation, None, Some(dropped.src), None, Some(block)));
    assert!(diags[0].detail.contains("dropped"), "{}", diags[0]);

    // The 2-cube face cycle appended in two new rounds.
    let mut low = clean.clone();
    let (base, rounds) = (low.blocks.len() as u32, low.rounds);
    let (blocks, claims) = face_cycle(&mut low, base, rounds);
    low.blocks.extend(blocks);
    low.claims.extend(claims);
    low.rounds += 2;
    let diags = check_all(&low, &params);
    assert_eq!(rules_of(&diags), vec![Rule::DeadlockFree], "{diags:?}");
    assert_eq!(diags.len(), 1);
    assert_eq!(loc(&diags[0]), (Rule::DeadlockFree, None, Some(0), Some(0), None));
    assert_eq!(
        diags[0].detail,
        "channel dependency cycle: (0, dim 0) -> (1, dim 1) -> (3, dim 0) -> (2, dim 1) -> back"
    );
}

//! The charged executor against the send-and-receive executor it
//! replaced.
//!
//! `cubecomm::exec::execute` charges every planned message to the net,
//! tracks each block's holder, and moves each block once, after the last
//! round. The oracle below is the executor it replaced: every message
//! carries its blocks through the `SimNet` as a `BlockMsg` payload, the
//! payload is picked up at the far end of its link with `recv`, and a
//! block is wherever its payload was last received. On every engine's
//! plans, and on seeded corruptions of them (a dropped round, a
//! retargeted sender, a duplicated block id), both must return the same
//! blocks per node and the same `CommReport` — history and link history
//! recorded — or panic with the same text.

use cubeaddr::{DimSet, NodeId};
use cubecomm::exec::execute;
use cubecomm::plan::{
    all_to_all_exchange_plan, all_to_all_sbnt_plan, exchange_plan, one_to_all_sbt_plan,
    one_to_all_trees_plan, some_to_all_plan, BlockMeta, CommSchedule,
};
use cubecomm::sbt::Sbt;
use cubecomm::{Block, BlockMsg, BufferPolicy};
use cubesim::{CommReport, MachineParams, PortMode, SimNet, Topology};
use cubetest::{catch, Rng};
use std::collections::BTreeMap;

/// The executor before it charged its messages: blocks travel in
/// `BlockMsg` payloads, each message received with `recv` at the far end
/// of its link, in send order.
#[track_caller]
fn execute_by_sending(
    net: &mut SimNet<BlockMsg<u64>>,
    plan: &CommSchedule,
    payloads: Vec<Block<u64>>,
) -> Vec<Vec<Block<u64>>> {
    let (blocks, rounds) = (&plan.blocks, &plan.rounds);
    assert_eq!(payloads.len(), blocks.len(), "one payload per planned block");
    let mut at: Vec<NodeId> = blocks.iter().map(|b| b.src).collect();
    // A block is `None` exactly while it is on the wire.
    let mut store: Vec<Option<Block<u64>>> = payloads.into_iter().map(Some).collect();
    for (r, round) in rounds.iter().enumerate() {
        for msg in &round.msgs {
            let mut batch = Vec::with_capacity(plan.ids(msg).len());
            for &id in plan.ids(msg) {
                let (i, b) = (id as usize, &blocks[id as usize]);
                let Some(block) = store[i].take() else {
                    panic!(
                        "round {r}: block {id}: {} -> {} is named twice; the second sender is node {}",
                        b.src, b.dst, msg.src
                    );
                };
                assert!(
                    at[i] == msg.src,
                    "round {r}: node {} sends block {id}: {} -> {}, which is at node {}",
                    msg.src,
                    b.src,
                    b.dst,
                    at[i]
                );
                batch.push(block);
            }
            net.send(msg.src, msg.dim, BlockMsg(batch));
        }
        for &(node, elems) in &round.copies {
            net.local_copy(node, elems as usize);
        }
        net.finish_round();
        for msg in &round.msgs {
            let far = msg.src.neighbor(msg.dim);
            let BlockMsg(batch) = net.recv(far, msg.dim);
            for (&id, block) in plan.ids(msg).iter().zip(batch) {
                at[id as usize] = far;
                store[id as usize] = Some(block);
            }
        }
    }
    let mut held: Vec<Vec<Block<u64>>> = (0..net.num_nodes()).map(|_| Vec::new()).collect();
    for (id, (block, b)) in store.into_iter().zip(blocks).enumerate() {
        if at[id] != b.dst {
            let mut dims: Vec<u32> = rounds.iter().flat_map(|r| &r.msgs).map(|m| m.dim).collect();
            dims.sort_unstable();
            dims.dedup();
            panic!(
                "block {id}: {} -> {} stranded at node {} after {} rounds: \
                 the schedule's dims {dims:?} do not cover it",
                b.src,
                b.dst,
                at[id],
                rounds.len()
            );
        }
        held[at[id].index()].push(block.expect("every delivery was put back"));
    }
    held
}

type Outcome = Result<(Vec<Vec<Block<u64>>>, CommReport), String>;

/// One executor's run of `plan` on a recording net of the plan's cube
/// and port rule, with one payload per planned block whose elements name
/// the block.
fn outcome(plan: &CommSchedule, charged: bool) -> Outcome {
    let n = plan.topo.num_nodes().trailing_zeros();
    let params = MachineParams::intel_ipsc().with_ports(plan.ports).with_max_packet(3);
    let payloads: Vec<Block<u64>> = plan
        .blocks
        .iter()
        .enumerate()
        .map(|(id, b)| {
            Block::new(b.src, b.dst, (0..b.elems).map(|i| id as u64 * 1000 + i).collect())
        })
        .collect();
    catch(|| {
        let mut net = SimNet::new(n, params);
        net.record_history();
        net.record_links();
        let held = if charged {
            execute(&mut net, plan, payloads)
        } else {
            execute_by_sending(&mut net, plan, payloads)
        };
        (held, net.finalize())
    })
}

/// Both executors' outcome, once they are known to agree.
fn both(plan: &CommSchedule) -> Outcome {
    let charged = outcome(plan, true);
    assert_eq!(charged, outcome(plan, false), "{}: executor diverges from the oracle", plan.name);
    charged
}

/// `rows × cols` sizes of 0–3 elements, about a quarter zero.
fn random_sizes(rng: &mut Rng, rows: usize, cols: usize) -> Vec<Vec<u64>> {
    (0..rows).map(|_| (0..cols).map(|_| rng.below(4)).collect()).collect()
}

/// Every engine's plans on the cubes of 1–4 dimensions (the reflected
/// pair on the even ones), sizes drawn from `rng`.
fn engine_plans(rng: &mut Rng) -> Vec<CommSchedule> {
    let policies =
        [BufferPolicy::Ideal, BufferPolicy::Unbuffered, BufferPolicy::Buffered { min_direct: 2 }];
    let mut plans = Vec::new();
    for n in 1..=4u32 {
        let num = 1usize << n;
        let root = NodeId(rng.below(num as u64));
        for policy in policies {
            plans.push(all_to_all_exchange_plan(
                n,
                &random_sizes(rng, num, num),
                policy,
                PortMode::OnePort,
            ));
        }
        let sizes = random_sizes(rng, 1, num).remove(0);
        plans.push(one_to_all_sbt_plan(n, root, &sizes));
        let rotated: Vec<Sbt> = (0..n).map(|k| Sbt::rotated(n, root, k)).collect();
        plans.push(one_to_all_trees_plan(n, &sizes, &rotated));
        if n % 2 == 0 {
            let pair = [Sbt::new(n, root), Sbt::reflected(n, root)];
            plans.push(one_to_all_trees_plan(n, &sizes, &pair));
        }
        plans.push(all_to_all_sbnt_plan(n, &random_sizes(rng, num, num)));
        // Split the dimensions into l (kept) and k (split / accumulated).
        let k_dims = DimSet(rng.below(num as u64) & (num as u64 - 1));
        let l_dims = DimSet::all(n).difference(k_dims);
        let policy = policies[rng.below(3) as usize];
        let subcube: Vec<NodeId> =
            (0..num as u64).filter(|x| x & k_dims.0 == 0).map(NodeId).collect();
        let sizes = random_sizes(rng, subcube.len(), num);
        plans.push(some_to_all_plan(n, l_dims, k_dims, &sizes, policy, PortMode::OnePort));
        // All-to-some: every node to the k-subcube, accumulation last.
        let sizes = random_sizes(rng, num, subcube.len());
        let mut blocks = Vec::new();
        for (s, row) in sizes.iter().enumerate() {
            for (&elems, &dst) in row.iter().zip(&subcube) {
                if elems > 0 {
                    blocks.push(BlockMeta { src: NodeId(s as u64), dst, elems });
                }
            }
        }
        let mut dims: Vec<u32> = l_dims.iter_desc().collect();
        dims.extend(k_dims.iter_desc());
        plans.push(exchange_plan(n, blocks, &dims, policy, PortMode::OnePort, "all_to_some"));
    }
    plans.retain(|p| !p.blocks.is_empty());
    plans
}

/// `plan` corrupted one way, chosen by `rng`: a round dropped, a
/// message's sender moved to another node, or a block id named again in
/// another message (of the same round or any other).
fn corrupt(mut plan: CommSchedule, rng: &mut Rng) -> CommSchedule {
    let num = plan.topo.num_nodes() as u64;
    let msgs: Vec<(usize, usize)> = plan
        .rounds
        .iter()
        .enumerate()
        .flat_map(|(r, round)| (0..round.msgs.len()).map(move |m| (r, m)))
        .collect();
    if msgs.is_empty() {
        return plan;
    }
    let (r, m) = msgs[rng.below(msgs.len() as u64) as usize];
    match rng.below(3) {
        0 => {
            plan.rounds.remove(r);
        }
        1 => {
            let src = &mut plan.rounds[r].msgs[m].src;
            *src = NodeId((src.bits() + 1 + rng.below(num - 1)) % num);
        }
        _ => {
            let ids = plan.ids(&plan.rounds[r].msgs[m]);
            let id = ids[rng.below(ids.len() as u64) as usize];
            let (r2, m2) = msgs[rng.below(msgs.len() as u64) as usize];
            let mut grown = plan.ids(&plan.rounds[r2].msgs[m2]).to_vec();
            grown.push(id);
            plan.rounds[r2].msgs[m2].blocks = plan.push_ids(&grown);
        }
    }
    plan
}

/// What an outcome was, for the tally.
fn kind(outcome: &Outcome) -> &'static str {
    match outcome {
        Ok(_) => "ran",
        Err(text) if text.contains("is named twice") => "named twice",
        Err(text) if text.contains(", which is at node") => "not its holder",
        Err(text) if text.contains("stranded at node") => "stranded",
        Err(text) if text.starts_with("link contention") => "contention",
        Err(text) if text.starts_with("one-port violation") => "one-port",
        Err(text) => panic!("unexpected panic: {text}"),
    }
}

#[test]
fn every_engine_plan_runs_alike_on_both_executors() {
    let mut rng = Rng::new(7);
    let mut count = 0;
    for _ in 0..4 {
        for plan in engine_plans(&mut rng) {
            let outcome = both(&plan);
            assert_eq!(kind(&outcome), "ran", "{}", plan.name);
            count += 1;
        }
    }
    assert!(count >= 100, "only {count} plans");
}

#[test]
fn corrupted_plans_fail_alike_on_both_executors() {
    let mut seen = BTreeMap::new();
    for seed in 0..40 {
        let mut rng = Rng::new(seed);
        for plan in engine_plans(&mut rng) {
            let plan = corrupt(plan, &mut rng);
            *seen.entry(kind(&both(&plan))).or_insert(0) += 1;
        }
    }
    for k in ["ran", "named twice", "not its holder", "stranded"] {
        assert!(seen.get(k).is_some_and(|&c| c >= 10), "too few `{k}`: {seen:?}");
    }
}

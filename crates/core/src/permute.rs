//! Using matrix transposition machinery for other permutations (§7).
//!
//! * [`bit_reversal`] — the bit-reversal permutation
//!   `(x_{n-1} … x_0) ← (x_0 … x_{n-1})` realized by the general exchange
//!   algorithm with dimension pairs `f(i) = i`, `g(i) = n-1-i`;
//! * [`dimension_permutation`] — any permutation of the cube dimensions
//!   (Definition 17) realized by `⌈log₂ n⌉` *parallel swappings*
//!   (Lemma 15), each a set of disjoint dimension transpositions — both
//!   run their relocations as one plan on the crate's flight executor;
//! * [`arbitrary_permutation`] — any node-level permutation realized by
//!   two all-to-all personalized communications (message size at least
//!   `N` per node makes the splitting exact).

use crate::flight::{run_flights, FlightPlan};
use cubeaddr::{DimPermutation, NodeId};
use cubecomm::exchange::BufferPolicy;
use cubecomm::exec;
use cubecomm::plan::all_to_all_exchange_plan;
use cubecomm::BlockMsg;
use cubesim::SimNet;

/// Moves every node's array to the node with the bit-reversed address:
/// `⌊n/2⌋` dimension-pair swaps, each two routing steps, by the general
/// exchange algorithm. Returns the rearranged per-node arrays.
pub fn bit_reversal<T: Clone>(net: &mut SimNet<Vec<T>>, data: Vec<Vec<T>>) -> Vec<Vec<T>> {
    let n = net.n();
    let pairs: Vec<(u32, u32)> = (0..n / 2).map(|i| (i, n - 1 - i)).collect();
    swap_pairs_sequence(net, data, &pairs)
}

/// Realizes the dimension permutation `δ` (node `x`'s data moves to
/// `(x_{δ(n-1)} … x_{δ(0)})`... i.e. to the node `y` with
/// `y = δ⁻¹-gather of x`, matching [`DimPermutation::apply`]'s
/// convention: destination bit `i` = source bit `δ(i)`, so data at `x`
/// ends at the node `y` with `y_i = x_{δ(i)}`).
///
/// Factors `δ` into at most `⌈log₂ n⌉` parallel swappings (Lemma 15) and
/// executes each swapping's disjoint transpositions as distance-2
/// exchanges. Returns the rearranged arrays and the number of parallel
/// swapping steps used.
pub fn dimension_permutation<T: Clone>(
    net: &mut SimNet<Vec<T>>,
    data: Vec<Vec<T>>,
    delta: &DimPermutation,
) -> (Vec<Vec<T>>, usize) {
    assert_eq!(delta.n(), net.n());
    let factors = delta.parallel_swap_factors();
    let steps = factors.len();
    let mut data = data;
    for sigma in &factors {
        data = swap_pairs_sequence(net, data, &sigma.swap_pairs());
    }
    (data, steps)
}

/// Executes dimension transpositions in order, Lemma 6's distance-2
/// relocation per pair `(i1, i2)`: two one-port-legal rounds in which
/// every array whose node's bits `i1` and `i2` differ crosses `i1`, then
/// `i2`, so node `x` then holds what node `x ^ 2^i1 ^ 2^i2` held. One
/// flight per non-empty array: hops `i1, i2` where the node it has
/// reached moves, two holds elsewhere. An empty array is not sent (the
/// net refuses empty messages), so its destination ends up empty.
pub(crate) fn swap_pairs_sequence<T>(
    net: &mut SimNet<Vec<T>>,
    data: Vec<Vec<T>>,
    pairs: &[(u32, u32)],
) -> Vec<Vec<T>> {
    assert_eq!(data.len(), net.num_nodes());
    let plan = relocation_plan(&data, pairs);
    let ledger = run_flights(net, &plan);
    land(&plan, &ledger, data)
}

/// The flights of [`swap_pairs_sequence`]: `2 × pairs` rounds, one
/// flight per non-empty array.
fn relocation_plan<T>(data: &[Vec<T>], pairs: &[(u32, u32)]) -> FlightPlan {
    let mut plan = FlightPlan::new(2 * pairs.len());
    for (x, arr) in data.iter().enumerate() {
        if arr.is_empty() {
            continue;
        }
        let mut at = x as u64;
        let path = plan.path(pairs.iter().flat_map(|&(i1, i2)| {
            let hop = ((at >> i1) ^ (at >> i2)) & 1 == 1;
            at ^= u64::from(hop) * ((1 << i1) | (1 << i2));
            [hop.then_some(i1), hop.then_some(i2)]
        }));
        plan.fly(NodeId(x as u64), path, 0, arr.len());
    }
    plan
}

/// Moves each flight's array from its source in `data` to the node the
/// ledger says it landed on.
///
/// # Panics
/// If two arrays land on one node, naming it and both sources: a plan
/// that does not permute the nodes would otherwise drop one of them.
#[track_caller]
fn land<T>(plan: &FlightPlan, ledger: &[NodeId], mut data: Vec<Vec<T>>) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..data.len()).map(|_| Vec::new()).collect();
    for (i, (f, &at)) in plan.flights.iter().zip(ledger).enumerate() {
        if !out[at.index()].is_empty() {
            let first = plan.flights[..i].iter().zip(ledger).find(|(_, &a)| a == at);
            let (first, _) = first.expect("an earlier landing");
            panic!(
                "relocation lands two arrays at node {at}: from {} and from {}",
                first.src, f.src
            );
        }
        out[at.index()] = std::mem::take(&mut data[f.src.index()]);
    }
    out
}

/// Routes an arbitrary node permutation `π` with two all-to-all
/// personalized communications (§7, after Stout & Wagar): node `x`'s
/// message for `π(x)` is split into `N` near-equal pieces (the first
/// `len mod N` one longer); the first all-to-all scatters piece `j` to
/// node `j`, the second forwards each piece to its final destination.
/// Balanced regardless of `π`.
///
/// `data[x]` is `x`'s message; `perm[x] = π(x)` must be a permutation of
/// the cube's nodes (an entry off the cube panics, naming it).
/// Message lengths should be multiples of `N` for perfectly equal pieces
/// (other lengths still work, with ragged pieces; an empty piece is not
/// sent). Both exchanges are planned from the piece sizes and charged to
/// `net` with [`exec::run`], which checks that every piece reaches its
/// node; then each message moves once, from `x` to `π(x)`.
#[track_caller]
pub fn arbitrary_permutation<T>(
    net: &mut SimNet<BlockMsg<T>>,
    mut data: Vec<Vec<T>>,
    perm: &[NodeId],
) -> Vec<Vec<T>> {
    let num = net.num_nodes();
    assert_eq!(data.len(), num);
    assert_eq!(perm.len(), num);
    let mut seen = vec![false; num];
    for (x, d) in perm.iter().enumerate() {
        assert!(d.index() < num, "perm[{x}] = {d} is not a node of the {}-cube", net.n());
        assert!(!seen[d.index()], "perm is not a permutation");
        seen[d.index()] = true;
    }
    let piece =
        |x: usize, j: usize| (data[x].len() / num + usize::from(j < data[x].len() % num)) as u64;
    // Phase 1: piece j of x's message goes to node j. Phase 2: node j
    // forwards the piece it holds from x to π(x).
    let mut scatter = vec![vec![0u64; num]; num];
    let mut forward = vec![vec![0u64; num]; num];
    for x in 0..num {
        for j in 0..num {
            scatter[x][j] = piece(x, j);
            forward[j][perm[x].index()] = piece(x, j);
        }
    }
    let ports = net.params().ports;
    for sizes in [scatter, forward] {
        let plan = all_to_all_exchange_plan(net.n(), &sizes, BufferPolicy::Ideal, ports);
        exec::run(net, &plan);
    }
    let mut out: Vec<Vec<T>> = (0..num).map(|_| Vec::new()).collect();
    for (x, to) in perm.iter().enumerate() {
        out[to.index()] = std::mem::take(&mut data[x]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubeaddr::bit_reverse;
    use cubesim::{MachineParams, PortMode};

    fn unit_net(n: u32) -> SimNet<Vec<u64>> {
        SimNet::new(n, MachineParams::unit(PortMode::OnePort))
    }

    fn node_data(n: u32, len: usize) -> Vec<Vec<u64>> {
        (0..(1u64 << n)).map(|x| vec![x; len]).collect()
    }

    #[test]
    fn bit_reversal_places_data() {
        for n in 1..=6u32 {
            let mut net = unit_net(n);
            let out = bit_reversal(&mut net, node_data(n, 3));
            for x in 0..(1u64 << n) {
                assert_eq!(out[x as usize], vec![bit_reverse(x, n); 3], "n={n} x={x:#b}");
            }
            net.finalize();
        }
    }

    #[test]
    fn bit_reversal_round_count() {
        // ⌊n/2⌋ pair swaps × 2 rounds each.
        let n = 6;
        let mut net = unit_net(n);
        let _ = bit_reversal(&mut net, node_data(n, 1));
        assert_eq!(net.finalize().rounds, 6);
    }

    #[test]
    fn dimension_permutation_matches_apply() {
        let n = 5;
        let delta = DimPermutation::new(vec![3, 0, 4, 1, 2]);
        let mut net = unit_net(n);
        let (out, steps) = dimension_permutation(&mut net, node_data(n, 2), &delta);
        assert!(steps <= 3);
        for x in 0..(1u64 << n) {
            // Data of x ends at the node y with y_i = x_{δ(i)}.
            let y = delta.apply(x);
            assert_eq!(out[y as usize], vec![x; 2], "x={x:#b} → y={y:#b}");
        }
        net.finalize();
    }

    #[test]
    fn rotation_as_dimension_permutation() {
        // sh^k as a dimension permutation: data of x ends at sh^k(x).
        let n = 4;
        for k in 0..n {
            let delta = DimPermutation::rotation(n, k);
            let mut net = unit_net(n);
            let (out, _) = dimension_permutation(&mut net, node_data(n, 1), &delta);
            for x in 0..(1u64 << n) {
                assert_eq!(out[cubeaddr::shuffle(x, k, n) as usize], vec![x]);
            }
        }
    }

    #[test]
    fn arbitrary_permutation_delivers() {
        let n = 3;
        let num = 1usize << n;
        // A permutation that is not a dimension permutation: add 3 mod N.
        let perm: Vec<NodeId> = (0..num).map(|x| NodeId(((x + 3) % num) as u64)).collect();
        let data: Vec<Vec<u64>> =
            (0..num as u64).map(|x| (0..num as u64 * 2).map(|i| x * 100 + i).collect()).collect();
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let out = arbitrary_permutation(&mut net, data.clone(), &perm);
        for x in 0..num {
            assert_eq!(out[perm[x].index()], data[x], "x={x}");
        }
        net.finalize();
    }

    #[test]
    fn arbitrary_permutation_time_is_two_all_to_alls() {
        let n = 4;
        let num = 1usize << n;
        let msg = num * 4; // multiple of N → equal pieces
        let perm: Vec<NodeId> = (0..num).map(|x| NodeId(((x * 5 + 2) % num) as u64)).collect();
        let data: Vec<Vec<u64>> = (0..num as u64).map(|x| vec![x; msg]).collect();
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let _ = arbitrary_permutation(&mut net, data, &perm);
        let r = net.finalize();
        // Each all-to-all: n rounds of PQ/2N... here per-node msg M = num·4,
        // pieces of 4: per exchange step M/2 elements: time
        // 2·n·(M/2 + 1) with unit costs.
        let expect = 2.0 * n as f64 * ((msg / 2) as f64 + 1.0);
        assert_eq!(r.time, expect);
        assert_eq!(r.rounds, 2 * n as usize);
    }

    #[test]
    fn ragged_messages_still_arrive() {
        let n = 2;
        let num = 4;
        let perm: Vec<NodeId> = vec![NodeId(2), NodeId(0), NodeId(3), NodeId(1)];
        let data: Vec<Vec<u64>> = (0..num).map(|x| vec![x as u64; 5]).collect(); // 5 not divisible by 4
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let out = arbitrary_permutation(&mut net, data.clone(), &perm);
        for x in 0..num {
            assert_eq!(out[perm[x].index()], data[x]);
        }
    }

    /// Messages shorter than `N` and of different lengths, one empty:
    /// most pieces are empty and plan no block.
    #[test]
    fn short_and_empty_messages_arrive_intact() {
        let n = 3;
        let perm: Vec<NodeId> = [5, 2, 7, 0, 1, 3, 6, 4].map(NodeId).to_vec();
        let data: Vec<Vec<u64>> =
            (0..8u64).map(|x| (0..x * 3 % 8).map(|i| x * 10 + i).collect()).collect();
        assert!(data[0].is_empty() && data.iter().all(|msg| msg.len() < 8));
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let out = arbitrary_permutation(&mut net, data.clone(), &perm);
        for x in 0..8 {
            assert_eq!(out[perm[x].index()], data[x], "x={x}");
        }
        net.finalize();
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invalid_permutation_rejected() {
        let mut net: SimNet<BlockMsg<u64>> = SimNet::new(1, MachineParams::unit(PortMode::OnePort));
        let _ = arbitrary_permutation(&mut net, vec![vec![1], vec![2]], &[NodeId(0), NodeId(0)]);
    }

    #[test]
    #[should_panic(expected = "perm[3] = 9 is not a node of the 3-cube")]
    fn entry_off_the_cube_is_named() {
        let mut net: SimNet<BlockMsg<u64>> = SimNet::new(3, MachineParams::unit(PortMode::OnePort));
        let perm = [0, 1, 2, 9, 4, 5, 6, 7].map(NodeId);
        let _ = arbitrary_permutation(&mut net, node_data(3, 8), &perm);
    }

    /// A plan whose flights do not permute the nodes: node 1's array is
    /// planned with an empty pair list (it stays put) while node 2's is
    /// planned with `(0, 1)` and lands on node 1 too.
    #[test]
    #[should_panic(expected = "relocation lands two arrays at node 1: from 1 and from 2")]
    fn two_arrays_landing_on_one_node_panic() {
        let mut net = unit_net(2);
        let data = node_data(2, 1);
        let mut plan = relocation_plan(&data, &[(0, 1)]);
        let stay = plan.path([]);
        let node1 = plan.flights.iter_mut().find(|f| f.src == NodeId(1)).unwrap();
        node1.path = stay;
        let ledger = run_flights(&mut net, &plan);
        let _ = land(&plan, &ledger, data);
    }

    #[test]
    fn empty_arrays_are_noop() {
        let n = 3;
        let mut net = unit_net(n);
        let data: Vec<Vec<u64>> = (0..8).map(|_| Vec::new()).collect();
        let out = bit_reversal(&mut net, data);
        assert!(out.iter().all(Vec::is_empty));
        let r = net.finalize();
        assert_eq!(r.total_elems, 0);
    }
}

//! Transposition drivers for distributed matrices (§5 and the generic
//! `I = ∅` cases).
//!
//! Three interchangeable engines, all moving real data under the cost
//! model:
//!
//! * [`transpose_1d_exchange`] — the standard exchange algorithm on
//!   node-pair blocks (works for *any* pair of layouts, including
//!   Gray-encoded ones), with the §8.1 buffering policies;
//! * [`transpose_1d_sbnt`] — n-port spanning-balanced-n-tree routing of
//!   the same blocks;
//! * [`transpose_stepwise`] — the field-map engine
//!   ([`crate::fieldmap`]): for binary layouts, executes the general
//!   exchange algorithm with exact §8.1 memory-run modeling.
//!
//! The two block engines (and [`crate::relayout()`]) move values only, as
//! the paper does: a block's local addresses at both ends follow from the
//! separable placement tables ([`BlockMoves`]), "implicitly by indirect
//! addressing". Each one plans the blocks with `cubecomm::plan`, runs
//! the plan with [`exec::run`] — which charges every message and tracks
//! every block — and writes the output once with [`BlockMoves::copy`],
//! straight from the input. Every element lands exactly once: the blocks
//! partition the elements, `run` refuses a block that ends short of its
//! destination, and inside a block placement is the layouts' bijection
//! (which `cubelayout`'s proptests check against the per-element
//! enumeration).

use crate::fieldmap::{FieldMap, MappedMatrix};
use cubecomm::exchange::BufferPolicy;
use cubecomm::exec;
use cubecomm::plan::{exchange_plan, sbnt_plan, BlockMeta, CommSchedule};
use cubecomm::{Block, BlockMsg};
use cubelayout::{BlockMoves, DistMatrix, Layout, TransposeSpec};
use cubesim::{Payload, SimNet};

/// A routed element: its destination local address and its value.
///
/// The engines here move values only. The tagged path [`spec_blocks`] →
/// engine → [`assemble`] is kept for the benchmark's per-layer
/// decomposition of the exchange and for the driver pins' "long way".
pub type Routed<T> = (u64, T);

/// Groups the elements of `m` into per-(source, destination) blocks for
/// the transposition `spec`. `blocks[src][dst]` holds
/// `(dst_local, value)` pairs; empty blocks stay empty (virtual elements
/// are not communicated).
pub fn spec_blocks<T: Copy>(spec: &TransposeSpec, m: &DistMatrix<T>) -> Vec<Vec<Vec<Routed<T>>>> {
    let num = spec.before.num_nodes().max(spec.after.num_nodes());
    let traffic = spec.traffic_matrix();
    let sized =
        |s: usize, d: usize| traffic.get(s).and_then(|row| row.get(d)).copied().unwrap_or(0);
    let mut blocks: Vec<Vec<Vec<Routed<T>>>> =
        (0..num).map(|s| (0..num).map(|d| Vec::with_capacity(sized(s, d))).collect()).collect();
    for mv in spec.moves() {
        let value = m.node(mv.src)[mv.src_local as usize];
        blocks[mv.src.index()][mv.dst.index()].push((mv.dst_local, value));
    }
    blocks
}

/// Assembles routed blocks into the output matrix laid out by `after`.
///
/// # Panics
/// If any element is missing, duplicated, misrouted or addressed outside
/// its node's local storage.
#[track_caller]
pub fn assemble<T: Copy + Default>(
    after: &Layout,
    result: Vec<Vec<Block<Routed<T>>>>,
) -> DistMatrix<T> {
    let mut out = DistMatrix::<T>::zeroed(after.clone());
    let per = after.elems_per_node();
    // `filled[node * per + local]`.
    let mut filled = vec![false; after.num_nodes() * per];
    for (x, blks) in result.into_iter().enumerate() {
        for b in blks {
            assert_eq!(b.dst.index(), x, "block for {} delivered to {x}", b.dst);
            let (slots, got) = (out.node_mut(b.dst), &mut filled[x * per..][..per]);
            for (local, value) in b.data {
                let l = local as usize;
                assert!(l < per, "node {x} local {local} is outside its {per} elements");
                assert!(!got[l], "duplicate element at node {x} local {local}");
                got[l] = true;
                slots[l] = value;
            }
        }
    }
    if let Some(missing) = filled.iter().position(|&got| !got) {
        panic!("node {} local {} never received its element", missing / per, missing % per);
    }
    out
}

/// The blocks of `moves` as a plan's blocks, in `moves`' order.
fn metas(moves: &BlockMoves) -> Vec<BlockMeta> {
    moves.blocks().map(|(src, dst, elems)| BlockMeta { src, dst, elems: elems as u64 }).collect()
}

/// The standard exchange algorithm's plan for `moves` on `net`: over the
/// node dimensions any block crosses, highest first.
fn exchange_schedule<P: Payload>(
    moves: &BlockMoves,
    net: &SimNet<P>,
    policy: BufferPolicy,
) -> CommSchedule {
    let diff = moves.blocks().fold(0u64, |acc, (s, d, _)| acc | (s.bits() ^ d.bits()));
    let dims: Vec<u32> = (0..u64::BITS).rev().filter(|&d| (diff >> d) & 1 == 1).collect();
    exchange_plan(net.n(), metas(moves), &dims, policy, net.params().ports, "one_dim/exchange")
}

/// Moves `m` by `moves` with the standard exchange algorithm into a
/// matrix laid out by `to`.
pub(crate) fn exchange_moves<T: Copy + Default>(
    moves: &BlockMoves,
    m: &DistMatrix<T>,
    to: &Layout,
    net: &mut SimNet<BlockMsg<T>>,
    policy: BufferPolicy,
) -> DistMatrix<T> {
    let plan = exchange_schedule(moves, net, policy);
    run_and_copy(moves, m, to, net, &plan)
}

/// Runs `plan`, whose blocks are `moves`' blocks, on `net`, then writes
/// `m` into a matrix laid out by `to` with one copy.
#[track_caller]
fn run_and_copy<T: Copy + Default, P: Payload>(
    moves: &BlockMoves,
    m: &DistMatrix<T>,
    to: &Layout,
    net: &mut SimNet<P>,
    plan: &CommSchedule,
) -> DistMatrix<T> {
    exec::run(net, &plan.blocks, &plan.rounds);
    let mut out = DistMatrix::zeroed(to.clone());
    moves.copy(m, &mut out);
    out
}

/// Transposes `m` into layout `after` with the standard exchange
/// algorithm (§5): all-to-all personalized communication over the node
/// dimensions in which sources and destinations differ, highest first.
/// One-port legal.
///
/// ```
/// use cubelayout::{Assignment, Direction, Encoding, Layout};
/// use cubesim::{MachineParams, PortMode, SimNet};
/// use cubetranspose::{transpose_1d_exchange, verify};
/// use cubecomm::BufferPolicy;
///
/// let before = Layout::one_dim(3, 3, Direction::Rows, 2,
///     Assignment::Consecutive, Encoding::Binary);
/// let after = before.swapped_shape();
/// let matrix = verify::labels(before.clone());
/// let mut net = SimNet::new(2, MachineParams::intel_ipsc());
/// let out = transpose_1d_exchange(&matrix, &after, &mut net, BufferPolicy::Ideal);
/// verify::assert_transposed(&before, &out);
/// assert_eq!(net.finalize().rounds, 2); // n exchange steps
/// ```
///
/// # Panics
/// If a layout's cube is larger than the net's (`block endpoints outside
/// the …`); a larger net is fine.
pub fn transpose_1d_exchange<T: Copy + Default>(
    m: &DistMatrix<T>,
    after: &Layout,
    net: &mut SimNet<BlockMsg<T>>,
    policy: BufferPolicy,
) -> DistMatrix<T> {
    let spec = TransposeSpec::with_after(m.layout().clone(), after.clone());
    exchange_moves(&spec.block_moves(), m, after, net, policy)
}

/// Transposes `m` into layout `after` with n-port SBnT routing (§5's
/// n-port algorithm, optimum within a factor of 2).
///
/// # Panics
/// As [`transpose_1d_exchange`] does.
pub fn transpose_1d_sbnt<T: Copy + Default>(
    m: &DistMatrix<T>,
    after: &Layout,
    net: &mut SimNet<BlockMsg<T>>,
) -> DistMatrix<T> {
    let moves = TransposeSpec::with_after(m.layout().clone(), after.clone()).block_moves();
    let plan = sbnt_plan(net.n(), metas(&moves));
    run_and_copy(&moves, m, after, net, &plan)
}

/// The matrix-of-`A` field map that `after` (a layout of `A^T`) induces:
/// element `w = (u ‖ v)` of `A` must end at `after.place(v, u)`.
pub fn fieldmap_after(spec: &TransposeSpec) -> FieldMap {
    let p = spec.before.p();
    let q = spec.before.q();
    // Map a dimension of w' = (v ‖ u) into w = (u ‖ v) space.
    let conv = |d: u32| if d < p { q + d } else { d - p };
    let after_map = FieldMap::from_layout(&spec.after);
    let real = (0..after_map.n()).map(|i| conv(after_map.real_dim(i))).collect();
    let virt = (0..after_map.vp()).map(|j| conv(after_map.virt_dim(j))).collect();
    FieldMap::new(real, virt)
}

/// Transposes `m` into layout `after` with the field-map engine: the
/// standard exchange algorithm on the *blocked array* storage order of
/// §5/§8.1. Binary layouts only.
///
/// The local array is first (freely) viewed in blocked order — the
/// dimensions about to become real processor bits occupy the top of the
/// local address, so exchange step `k` sends exactly `2^k` memory chunks,
/// reproducing the paper's unbuffered/buffered start-up counts. The final
/// local array is re-interpreted in `after`'s order ("implicitly by
/// indirect addressing"), without charge; the interprocessor cost is
/// exactly `cubemodel::one_dim`'s expressions.
///
/// Falls back to the greedy general-exchange plan when the spec also
/// requires real/real swaps (`I ≠ ∅` cases).
pub fn transpose_stepwise<T: Copy + Default + Send + Sync>(
    m: &DistMatrix<T>,
    after: &Layout,
    net: &mut SimNet<Vec<T>>,
    policy: BufferPolicy,
) -> DistMatrix<T> {
    let spec = TransposeSpec::with_after(m.layout().clone(), after.clone());
    let start = FieldMap::from_layout(&spec.before);
    let target = fieldmap_after(&spec);
    let mut mapped = MappedMatrix::from_dist(start.clone(), m);

    // The (real position, dimension) pairs that must be brought in from
    // the virtual side, in descending real-position order (the standard
    // exchange scans from the highest-order dimension).
    let mut incoming: Vec<(u32, u32)> = Vec::new();
    let mut any_real_real = false;
    for i in (0..target.n()).rev() {
        let want = target.real_dim(i);
        match start.locate(want) {
            crate::fieldmap::Role::Real(cur) if cur == i => {}
            crate::fieldmap::Role::Real(_) => any_real_real = true,
            crate::fieldmap::Role::Virt(_) => incoming.push((i, want)),
        }
    }

    if any_real_real {
        // Mixed case: use the generic plan.
        mapped.rearrange_to(net, &target, policy);
        return DistMatrix::from_buffers(after.clone(), mapped.into_buffers());
    }

    // Free relabel into blocked order: the k-th incoming dimension goes to
    // virtual position vp-1-k; the remaining virtual dims keep their
    // relative order below.
    let vp = start.vp();
    let mut perm: Vec<u32> = Vec::with_capacity(vp as usize);
    let in_set: std::collections::HashSet<u32> = incoming.iter().map(|&(_, d)| d).collect();
    let keep: Vec<u32> = (0..vp).filter(|&j| !in_set.contains(&mapped.map().virt_dim(j))).collect();
    perm.extend(&keep);
    for (_, d) in incoming.iter().rev() {
        match mapped.map().locate(*d) {
            crate::fieldmap::Role::Virt(j) => perm.push(j),
            crate::fieldmap::Role::Real(_) => unreachable!(),
        }
    }
    mapped.relabel_virt(&perm);

    // Exchange steps: step k pairs the k-th real position with the k-th
    // virtual position from the top, so the outgoing data forms 2^k runs.
    for (k, &(i, _)) in incoming.iter().enumerate() {
        mapped.exchange_real_virt(net, i, vp - 1 - k as u32, policy);
    }

    // Final free relabel into the after layout's local order.
    let final_perm: Vec<u32> = (0..target.vp())
        .map(|jn| match mapped.map().locate(target.virt_dim(jn)) {
            crate::fieldmap::Role::Virt(jo) => jo,
            crate::fieldmap::Role::Real(_) => unreachable!("real roles already fixed"),
        })
        .collect();
    mapped.relabel_virt(&final_perm);
    debug_assert_eq!(mapped.map(), &target);
    DistMatrix::from_buffers(after.clone(), mapped.into_buffers())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_transposed, labels};
    use cubeaddr::NodeId;
    use cubelayout::{Assignment, Direction, Encoding};
    use cubesim::{MachineParams, PortMode};

    fn canonical_1d(p: u32, q: u32, n: u32) -> (Layout, Layout) {
        let before =
            Layout::one_dim(p, q, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary);
        let after =
            Layout::one_dim(q, p, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary);
        (before, after)
    }

    /// The delivery of a correct 4×4 transpose over 4 nodes, for the
    /// `assemble` diagnostics below to corrupt.
    fn delivered() -> (Layout, Vec<Vec<Block<Routed<u64>>>>) {
        let (before, after) = canonical_1d(2, 2, 2);
        let spec = TransposeSpec::with_after(before.clone(), after.clone());
        let mut result: Vec<Vec<Block<Routed<u64>>>> = vec![Vec::new(); 4];
        for (s, per_dst) in spec_blocks(&spec, &labels(before)).into_iter().enumerate() {
            for (d, data) in per_dst.into_iter().enumerate() {
                result[d].push(Block::new(NodeId(s as u64), NodeId(d as u64), data));
            }
        }
        (after, result)
    }

    #[test]
    fn assemble_accepts_a_complete_delivery() {
        let (after, result) = delivered();
        assert_transposed(&canonical_1d(2, 2, 2).0, &assemble(&after, result));
    }

    #[test]
    #[should_panic(expected = "node 2 local 4 is outside its 4 elements")]
    fn assemble_names_a_local_address_out_of_range() {
        let (after, mut result) = delivered();
        result[2][1].data[0].0 = 4;
        assemble(&after, result);
    }

    #[test]
    #[should_panic(expected = "duplicate element at node 1 local 3")]
    fn assemble_names_a_duplicate() {
        let (after, mut result) = delivered();
        result[1][0].data[0].0 = 3;
        assemble(&after, result);
    }

    #[test]
    #[should_panic(expected = "node 3 local 2 never received its element")]
    fn assemble_names_a_missing_element() {
        let (after, mut result) = delivered();
        result[3].remove(2);
        assemble(&after, result);
    }

    /// An 8×8 transpose over 4 nodes run through [`run_and_copy`] on the
    /// plan the exchange (`sbnt: false`) or SBnT mover builds, after
    /// `corrupt` has had its way with the plan.
    fn run_corrupted(sbnt: bool, corrupt: impl FnOnce(&mut CommSchedule)) {
        let (before, after) = canonical_1d(3, 3, 2);
        let moves = TransposeSpec::with_after(before.clone(), after.clone()).block_moves();
        let ports = if sbnt { PortMode::AllPorts } else { PortMode::OnePort };
        let mut net: SimNet<BlockMsg<u64>> = SimNet::new(2, MachineParams::unit(ports));
        let mut plan = if sbnt {
            sbnt_plan(2, metas(&moves))
        } else {
            exchange_schedule(&moves, &net, BufferPolicy::Ideal)
        };
        corrupt(&mut plan);
        let out = run_and_copy(&moves, &labels(before.clone()), &after, &mut net, &plan);
        assert_transposed(&before, &out);
        net.finalize();
    }

    #[test]
    fn the_movers_plans_run_uncorrupted() {
        run_corrupted(false, |_| {});
        run_corrupted(true, |_| {});
    }

    #[test]
    #[should_panic(expected = "block 1: 0 -> 1 stranded at node 0 after 1 rounds")]
    fn a_dropped_exchange_round_strands_a_block() {
        run_corrupted(false, |plan| {
            plan.rounds.pop();
        });
    }

    #[test]
    #[should_panic(expected = "stranded at node")]
    fn a_dropped_sbnt_round_strands_a_block() {
        run_corrupted(true, |plan| {
            plan.rounds.pop();
        });
    }

    #[test]
    #[should_panic(expected = "round 0: node 2 sends block 2: 0 -> 2, which is at node 0")]
    fn a_retargeted_exchange_sender_is_refused() {
        run_corrupted(false, |plan| {
            let msg = plan.rounds[0].msgs.iter_mut().find(|m| m.src == NodeId(0)).unwrap();
            msg.src = NodeId(2);
        });
    }

    #[test]
    #[should_panic(expected = "which is at node 0")]
    fn a_retargeted_sbnt_sender_is_refused() {
        run_corrupted(true, |plan| {
            let msg = plan.rounds[0].msgs.iter_mut().find(|m| m.src == NodeId(0)).unwrap();
            msg.src = NodeId(3);
        });
    }

    /// The 8 × 8 cyclic-rows transpose on a 2-cube layout.
    fn cyclic_8x8() -> (Layout, Layout) {
        let before =
            Layout::one_dim(3, 3, Direction::Rows, 2, Assignment::Cyclic, Encoding::Binary);
        let after = before.swapped_shape();
        (before, after)
    }

    #[test]
    fn both_movers_run_on_a_net_larger_than_the_layouts_cube() {
        let (before, after) = cyclic_8x8();
        let m = labels(before.clone());
        let mut net = SimNet::new(3, MachineParams::unit(PortMode::OnePort));
        assert_transposed(
            &before,
            &transpose_1d_exchange(&m, &after, &mut net, BufferPolicy::Ideal),
        );
        net.finalize();
        let mut net = SimNet::new(3, MachineParams::unit(PortMode::AllPorts));
        assert_transposed(&before, &transpose_1d_sbnt(&m, &after, &mut net));
        net.finalize();
    }

    #[test]
    #[should_panic(expected = "block endpoints outside the 1-cube")]
    fn the_exchange_refuses_a_net_smaller_than_the_layouts_cube() {
        let (before, after) = cyclic_8x8();
        let mut net = SimNet::new(1, MachineParams::unit(PortMode::OnePort));
        let _ = transpose_1d_exchange(&labels(before), &after, &mut net, BufferPolicy::Ideal);
    }

    #[test]
    #[should_panic(expected = "block endpoints outside the 1-cube")]
    fn sbnt_refuses_a_net_smaller_than_the_layouts_cube() {
        let (before, after) = cyclic_8x8();
        let mut net = SimNet::new(1, MachineParams::unit(PortMode::AllPorts));
        let _ = transpose_1d_sbnt(&labels(before), &after, &mut net);
    }

    #[test]
    fn exchange_transposes_consecutive_rows() {
        for (p, q, n) in [(3, 3, 2), (2, 4, 2), (4, 2, 2), (3, 3, 3)] {
            let (before, after) = canonical_1d(p, q, n);
            let m = labels(before.clone());
            let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
            let out = transpose_1d_exchange(&m, &after, &mut net, BufferPolicy::Ideal);
            assert_transposed(&before, &out);
            net.finalize();
        }
    }

    #[test]
    fn exchange_time_matches_model() {
        // Ideal policy: T = n(PQ/2N·t_c + τ) exactly.
        let (p, q, n) = (4, 4, 3);
        let (before, after) = canonical_1d(p, q, n);
        let m = labels(before.clone());
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let _ = transpose_1d_exchange(&m, &after, &mut net, BufferPolicy::Ideal);
        let r = net.finalize();
        let expect = cubemodel_exchange(1 << (p + q), n);
        assert_eq!(r.time, expect, "simulated vs model");
        assert_eq!(r.rounds, n as usize);
    }

    fn cubemodel_exchange(pq: u64, n: u32) -> f64 {
        let big_n = cubeaddr::num_nodes(n) as u64;
        n as f64 * (pq as f64 / (2.0 * big_n as f64) + 1.0)
    }

    #[test]
    fn sbnt_transposes_and_beats_exchange_transfer() {
        let (p, q, n) = (4, 4, 3);
        let (before, after) = canonical_1d(p, q, n);
        let m = labels(before.clone());
        let mut net1 = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let _ = transpose_1d_exchange(&m, &after, &mut net1, BufferPolicy::Ideal);
        let r1 = net1.finalize();
        let mut net2 = SimNet::new(n, MachineParams::unit(PortMode::AllPorts));
        let out = transpose_1d_sbnt(&m, &after, &mut net2);
        assert_transposed(&before, &out);
        let r2 = net2.finalize();
        assert!(
            r2.transfer_time < r1.transfer_time,
            "n-port {} vs one-port {}",
            r2.transfer_time,
            r1.transfer_time
        );
    }

    #[test]
    fn stepwise_agrees_with_block_exchange() {
        let (p, q, n) = (3, 3, 2);
        let (before, after) = canonical_1d(p, q, n);
        let m = labels(before.clone());
        let mut net_a = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let a = transpose_1d_exchange(&m, &after, &mut net_a, BufferPolicy::Ideal);
        let mut net_b: SimNet<Vec<u64>> = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let b = transpose_stepwise(&m, &after, &mut net_b, BufferPolicy::Ideal);
        assert_transposed(&before, &b);
        assert_eq!(a, b);
        // Same communication totals for the ideal policy.
        let (ra, rb) = (net_a.finalize(), net_b.finalize());
        assert_eq!(ra.total_elems, rb.total_elems);
        assert_eq!(ra.time, rb.time);
    }

    #[test]
    fn stepwise_unbuffered_matches_section81_model() {
        let (p, q, n) = (4, 4, 3);
        let (before, after) = canonical_1d(p, q, n);
        let m = labels(before.clone());
        let params = MachineParams::unit(PortMode::OnePort).with_max_packet(8);
        let mut net: SimNet<Vec<u64>> = SimNet::new(n, params.clone());
        let _ = transpose_stepwise(&m, &after, &mut net, BufferPolicy::Unbuffered);
        let r = net.finalize();
        let expect = cubemodel::one_dim::unbuffered(1 << (p + q), n, &params);
        assert!((r.time - expect).abs() < 1e-9, "simulated {} vs model {expect}", r.time);
    }

    #[test]
    fn stepwise_buffered_matches_section81_model() {
        let (p, q, n) = (4, 4, 3);
        let (before, after) = canonical_1d(p, q, n);
        let m = labels(before.clone());
        let params = MachineParams::unit(PortMode::OnePort).with_max_packet(8).with_t_copy(0.25);
        for min_direct in [1usize, 4, 16, 64] {
            let mut net: SimNet<Vec<u64>> = SimNet::new(n, params.clone());
            let out =
                transpose_stepwise(&m, &after, &mut net, BufferPolicy::Buffered { min_direct });
            assert_transposed(&before, &out);
            let r = net.finalize();
            let expect = cubemodel::one_dim::buffered(1 << (p + q), n, &params, min_direct);
            assert!(
                (r.time - expect).abs() < 1e-9,
                "min_direct={min_direct}: simulated {} vs model {expect}",
                r.time
            );
        }
    }

    #[test]
    fn gray_encoded_one_dim_transpose() {
        // The block engine handles Gray layouts directly.
        let before =
            Layout::one_dim(3, 3, Direction::Rows, 2, Assignment::Consecutive, Encoding::Gray);
        let after =
            Layout::one_dim(3, 3, Direction::Rows, 2, Assignment::Consecutive, Encoding::Gray);
        let m = labels(before.clone());
        let mut net = SimNet::new(2, MachineParams::unit(PortMode::OnePort));
        let out = transpose_1d_exchange(&m, &after, &mut net, BufferPolicy::Ideal);
        assert_transposed(&before, &out);
        net.finalize();
    }

    #[test]
    fn cyclic_before_consecutive_after() {
        // Lemma 7: transposition combined with change of assignment
        // scheme, still all-to-all.
        let before =
            Layout::one_dim(3, 3, Direction::Cols, 2, Assignment::Cyclic, Encoding::Binary);
        let after =
            Layout::one_dim(3, 3, Direction::Cols, 2, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        let mut net = SimNet::new(2, MachineParams::unit(PortMode::OnePort));
        let out = transpose_1d_exchange(&m, &after, &mut net, BufferPolicy::Ideal);
        assert_transposed(&before, &out);
    }

    #[test]
    fn some_to_all_transpose() {
        // q < n ≤ p: only 2^q processors hold data before, all 2^n after
        // (§2: "some-to-all personalized communication"). The exchange
        // driver routes it; splitting steps have one-sided sends.
        let n = 3u32;
        let before =
            Layout::one_dim(4, 2, Direction::Cols, 2, Assignment::Consecutive, Encoding::Binary);
        let after =
            Layout::one_dim(2, 4, Direction::Cols, 3, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let out = transpose_1d_exchange(&m, &after, &mut net, BufferPolicy::Ideal);
        assert_transposed(&before, &out);
        net.finalize();
    }

    #[test]
    fn all_to_some_transpose() {
        // The reverse: all 2^3 processors hold data before, 2^2 after —
        // data accumulation (all-to-some personalized communication).
        let n = 3u32;
        let before =
            Layout::one_dim(2, 4, Direction::Cols, 3, Assignment::Consecutive, Encoding::Binary);
        let after =
            Layout::one_dim(4, 2, Direction::Cols, 2, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let out = transpose_1d_exchange(&m, &after, &mut net, BufferPolicy::Ideal);
        assert_transposed(&before, &out);
    }

    #[test]
    fn values_follow_labels() {
        // Run with f64 payloads to make sure nothing depends on labels.
        let (before, after) = canonical_1d(3, 3, 2);
        let m = DistMatrix::from_fn(before.clone(), |u, v| (u * 8 + v) as f64 * 0.5);
        let mut net = SimNet::new(2, MachineParams::unit(PortMode::OnePort));
        let out = transpose_1d_exchange(&m, &after, &mut net, BufferPolicy::Ideal);
        crate::verify::assert_dense_transposed(&m, &out);
    }
}

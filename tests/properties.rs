//! Property-based tests (proptest) over the paper's invariants.

use boolcube::addr::{self, DimPermutation, NodeId};
use boolcube::comm::BufferPolicy;
use boolcube::layout::{Assignment, Direction, Encoding, Layout};
use boolcube::sim::{MachineParams, PortMode, SimNet};
use boolcube::transpose::two_dim::{h_of, mpt_path, tr};
use boolcube::transpose::{self, verify};
use proptest::prelude::*;

fn layout_1d_strategy() -> impl Strategy<Value = (Layout, Layout)> {
    (1u32..=4, 1u32..=4, 1u32..=3, prop::bool::ANY, prop::bool::ANY, prop::bool::ANY).prop_map(
        |(p, q, n_raw, rows, cyclic, gray)| {
            let dir = if rows { Direction::Rows } else { Direction::Cols };
            let width = match dir {
                Direction::Rows => p,
                Direction::Cols => q,
            };
            let n = n_raw.min(width).min(match dir {
                Direction::Rows => q,
                Direction::Cols => p,
            });
            let scheme = if cyclic { Assignment::Cyclic } else { Assignment::Consecutive };
            let enc = if gray { Encoding::Gray } else { Encoding::Binary };
            let before = Layout::one_dim(p, q, dir, n, scheme, enc);
            let after = Layout::one_dim(q, p, dir, n, scheme, enc);
            (before, after)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Gray code: bijection and single-bit steps, for random widths.
    #[test]
    fn gray_code_properties(w in 0u64..(1 << 20)) {
        prop_assert_eq!(addr::gray_inverse(addr::gray(w)), w);
        prop_assert_eq!(addr::hamming(addr::gray(w), addr::gray(w + 1)), 1);
    }

    /// Shuffles: sh^k then sh^{-k} is the identity; Lemma 2's bound holds.
    #[test]
    fn shuffle_properties(m in 1u32..16, k in 0u32..16, w_raw in 0u64..(1 << 16)) {
        let w = w_raw & addr::mask(m);
        prop_assert_eq!(addr::unshuffle(addr::shuffle(w, k, m), k, m), w);
        let d = addr::hamming(w, addr::shuffle(w, k, m));
        prop_assert!(d <= addr::shuffle::max_hamming_shuffle(m, k));
    }

    /// Dimension permutations factor into ≤ ⌈log₂ n⌉ involutions whose
    /// composition reproduces the permutation.
    #[test]
    fn lemma15_random_permutations(n in 2u32..9, seed in 0u64..1000) {
        // Fisher–Yates from the seed.
        let mut delta: Vec<u32> = (0..n).collect();
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..n as usize).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            delta.swap(i, (s >> 33) as usize % (i + 1));
        }
        let p = DimPermutation::new(delta);
        let factors = p.parallel_swap_factors();
        prop_assert!(factors.len() as u32 <= (n as usize).next_power_of_two().trailing_zeros());
        for x in 0..(1u64 << n) {
            let mut y = x;
            for f in &factors {
                prop_assert!(f.is_parallel_swapping());
                y = f.apply(y);
            }
            prop_assert_eq!(y, p.apply(x));
        }
    }

    /// MPT paths: per-node edge-disjoint, shortest, and terminating at
    /// tr(x), for random nodes of random (even-dimensional) cubes.
    #[test]
    fn mpt_path_properties(half in 1u32..5, x_raw in 0u64..(1 << 10)) {
        let x = x_raw & addr::mask(2 * half);
        let h = h_of(x, half);
        prop_assume!(h > 0);
        let mut edges = std::collections::HashSet::new();
        for p in 0..2 * h {
            let path = mpt_path(x, half, p);
            prop_assert_eq!(path.len() as u32, 2 * h);
            let mut cur = x;
            for d in path {
                let next = cur ^ (1 << d);
                prop_assert!(edges.insert((cur, next)), "edge reuse");
                cur = next;
            }
            prop_assert_eq!(cur, tr(x, half));
        }
    }

    /// Every randomly drawn 1D transposition spec routes correctly under
    /// the exchange engine, and simulated time meets the all-to-all lower
    /// bound.
    #[test]
    fn random_one_dim_transposes((before, after) in layout_1d_strategy()) {
        let n = before.n().max(after.n());
        let m = verify::labels(before.clone());
        let mut net = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let out = transpose::transpose_1d_exchange(&m, &after, &mut net, BufferPolicy::Ideal);
        verify::assert_transposed(&before, &out);
        let r = net.finalize();
        // No more rounds than dimensions; startups ≤ rounds in Ideal mode.
        prop_assert!(r.rounds <= n as usize);
    }

    /// Random square 2D layouts transpose identically through SPT and
    /// MPT for random packet parameters.
    #[test]
    fn random_two_dim_transposes(
        p in 2u32..5,
        half_raw in 1u32..3,
        b in 1usize..16,
        k in 1u32..4,
        gray in prop::bool::ANY,
        cyclic in prop::bool::ANY,
    ) {
        let half = half_raw.min(p);
        let enc = if gray { Encoding::Gray } else { Encoding::Binary };
        let scheme = if cyclic { Assignment::Cyclic } else { Assignment::Consecutive };
        let before = Layout::square(p, p, half, scheme, enc);
        let after = before.swapped_shape();
        let m = verify::labels(before.clone());
        let mut net1 = SimNet::new(2 * half, MachineParams::unit(PortMode::AllPorts));
        let a = transpose::transpose_spt(&m, &after, &mut net1, b);
        let mut net2 = SimNet::new(2 * half, MachineParams::unit(PortMode::AllPorts));
        let c = transpose::transpose_mpt(&m, &after, &mut net2, k);
        verify::assert_transposed(&before, &a);
        prop_assert_eq!(a, c);
    }

    /// The SBnT path from any src to any dst is a shortest path starting
    /// on the base port.
    #[test]
    fn sbnt_paths_shortest(n in 1u32..8, s in 0u64..256, d in 0u64..256) {
        let (s, d) = (s & addr::mask(n), d & addr::mask(n));
        let path = boolcube::comm::sbnt::sbnt_path_dims(NodeId(s), NodeId(d), n);
        prop_assert_eq!(path.len() as u32, addr::hamming(s, d));
        let mut cur = s;
        for dim in path {
            cur ^= 1 << dim;
        }
        prop_assert_eq!(cur, d);
    }

    /// Layout placement is always a bijection, whatever the parameters.
    #[test]
    fn layout_bijection(
        p in 0u32..5,
        q in 0u32..5,
        nr_raw in 0u32..4,
        nc_raw in 0u32..4,
        gray_r in prop::bool::ANY,
        gray_c in prop::bool::ANY,
        cyc_r in prop::bool::ANY,
        cyc_c in prop::bool::ANY,
    ) {
        let nr = nr_raw.min(p);
        let nc = nc_raw.min(q);
        let layout = Layout::two_dim(
            p,
            q,
            (nr, if cyc_r { Assignment::Cyclic } else { Assignment::Consecutive },
             if gray_r { Encoding::Gray } else { Encoding::Binary }),
            (nc, if cyc_c { Assignment::Cyclic } else { Assignment::Consecutive },
             if gray_c { Encoding::Gray } else { Encoding::Binary }),
        );
        let mut seen = std::collections::HashSet::new();
        for (u, v) in layout.elements() {
            let pl = layout.place(u, v);
            prop_assert!(seen.insert((pl.node, pl.local)));
            prop_assert_eq!(layout.element_at(pl.node, pl.local), (u, v));
        }
    }

    /// Double transpose through the standard exchange is the identity
    /// for random binary layouts.
    #[test]
    fn exchange_involution(p in 1u32..4, q in 1u32..4, n_raw in 1u32..3) {
        let n = n_raw.min(p).min(q);
        let before = Layout::one_dim(p, q, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary);
        let after = Layout::one_dim(q, p, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary);
        let m = verify::labels(before.clone());
        let mut net1 = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let t = transpose::transpose_1d_exchange(&m, &after, &mut net1, BufferPolicy::Ideal);
        let mut net2 = SimNet::new(n, MachineParams::unit(PortMode::OnePort));
        let back = transpose::transpose_1d_exchange(&t, &before, &mut net2, BufferPolicy::Ideal);
        prop_assert_eq!(m, back);
    }
}

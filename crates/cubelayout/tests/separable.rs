//! The table-driven layout maps against the naive per-element
//! enumeration they replaced.
//!
//! The oracles below are the pre-table implementations, kept here and
//! nowhere else: `place` as the bit-by-bit formula, `node_map` /
//! `traffic_matrix` / `moves` as walks over all `PQ` elements.

use cubeaddr::{concat, DimSet, NodeId};
use cubelayout::pattern::{relayout_moves, relayout_traffic, ElementMove};
use cubelayout::{
    Assignment, CommPattern, Direction, DistMatrix, Encoding, Layout, Placement, SubField,
    TransposeSpec,
};
use proptest::prelude::*;

fn naive_place(l: &Layout, u: u64, v: u64) -> Placement {
    let node = concat(l.row_field().to_proc(u), l.col_field().to_proc(v), l.n_c());
    let vrow = l.row_field().dims().complement(l.p()).extract(u);
    let vcol = l.col_field().dims().complement(l.q()).extract(v);
    Placement { node: NodeId(node), local: concat(vrow, vcol, l.q() - l.n_c()) }
}

fn naive_moves(spec: &TransposeSpec) -> Vec<ElementMove> {
    spec.before
        .elements()
        .map(|(u, v)| {
            let (from, to) = (naive_place(&spec.before, u, v), naive_place(&spec.after, v, u));
            ElementMove {
                u,
                v,
                src: from.node,
                src_local: from.local,
                dst: to.node,
                dst_local: to.local,
            }
        })
        .collect()
}

fn naive_node_map(spec: &TransposeSpec) -> Option<Vec<NodeId>> {
    let n_nodes = spec.before.num_nodes().max(spec.after.num_nodes());
    let mut dst_of: Vec<Option<NodeId>> = vec![None; n_nodes];
    for mv in naive_moves(spec) {
        match dst_of[mv.src.index()] {
            None => dst_of[mv.src.index()] = Some(mv.dst),
            Some(prev) if prev != mv.dst => return None,
            _ => {}
        }
    }
    let mut seen = vec![false; n_nodes];
    let mut map = Vec::with_capacity(n_nodes);
    for (s, d) in dst_of.into_iter().enumerate() {
        // A node holding no data maps to itself.
        let d = d.unwrap_or(NodeId(s as u64));
        if seen[d.index()] {
            return None;
        }
        seen[d.index()] = true;
        map.push(d);
    }
    Some(map)
}

fn naive_traffic(moves: &[ElementMove], src_nodes: usize, dst_nodes: usize) -> Vec<Vec<usize>> {
    let mut counts = vec![vec![0usize; dst_nodes]; src_nodes];
    for mv in moves {
        counts[mv.src.index()][mv.dst.index()] += 1;
    }
    counts
}

fn naive_classify(spec: &TransposeSpec) -> CommPattern {
    let (rb, ra) = (spec.r_before(), spec.r_after());
    if let Some(map) = naive_node_map(spec) {
        let identity = map.iter().enumerate().all(|(s, d)| d.index() == s);
        return if identity { CommPattern::Local } else { CommPattern::PairwiseExchange };
    }
    if rb.is_empty() && ra.is_empty() {
        CommPattern::Local
    } else if !rb.intersect(ra).is_empty() {
        CommPattern::Mixed
    } else if rb.len() == ra.len() {
        CommPattern::AllToAll
    } else {
        CommPattern::SomeToAll {
            k: rb.len().abs_diff(ra.len()),
            l: rb.len().min(ra.len()),
            splitting: ra.len() > rb.len(),
        }
    }
}

/// Everything the tables answer for one spec, against the oracles.
fn check_spec(spec: &TransposeSpec) {
    let moves = naive_moves(spec);
    let got: Vec<ElementMove> = spec.moves().collect();
    assert_eq!(got.len(), moves.len(), "{spec:?}");
    for (g, m) in got.iter().zip(&moves) {
        assert_eq!(g, m, "{spec:?}");
    }
    assert_eq!(spec.moves().size_hint(), (moves.len(), Some(moves.len())));
    assert_eq!(spec.node_map(), naive_node_map(spec), "{spec:?}");
    assert_eq!(spec.is_pairwise(), naive_node_map(spec).is_some());
    assert_eq!(spec.classify(), naive_classify(spec), "{spec:?}");
    assert_eq!(
        spec.traffic_matrix(),
        naive_traffic(&moves, spec.before.num_nodes(), spec.after.num_nodes()),
        "{spec:?}"
    );
}

/// `place`, `from_fn`, `gather`, `get` and the label check of one layout.
fn check_layout(l: &Layout) {
    let q = l.q();
    let m = DistMatrix::from_fn(l.clone(), |u, v| (u << q) | v);
    let dense = m.gather();
    for (u, v) in l.elements() {
        let pl = l.place(u, v);
        assert_eq!(pl, naive_place(l, u, v), "{l:?} ({u}, {v})");
        assert_eq!(l.element_at(pl.node, pl.local), (u, v));
        assert_eq!(m.node(pl.node)[pl.local as usize], (u << q) | v);
        assert_eq!(m.get(u, v), (u << q) | v);
        assert_eq!(dense[u as usize][v as usize], (u << q) | v);
    }
    // `from_fn` calls `f` once per element, in row-major order.
    let mut calls = Vec::new();
    DistMatrix::from_fn(l.clone(), |u, v| calls.push((u, v)));
    assert_eq!(calls, l.elements().collect::<Vec<_>>());
}

type FieldDraw = (u32, u32, u32, bool);

/// A processor subfield of a `width`-bit index drawn from every
/// constructor: empty, cyclic, consecutive, split high/low, contiguous.
fn field(width: u32, (kind, a, b, gray): FieldDraw) -> SubField {
    let enc = if gray { Encoding::Gray } else { Encoding::Binary };
    let n = a % (width + 1);
    match kind % 5 {
        0 => SubField::empty(),
        1 => SubField::assigned(Assignment::Cyclic, width, n, enc),
        2 => SubField::assigned(Assignment::Consecutive, width, n, enc),
        3 => SubField::split_high_low(width, n, b % (n + 1), enc),
        _ => SubField::contiguous_at(b % (width - n + 1), n, width, enc),
    }
}

fn fits(f: &SubField, width: u32) -> bool {
    f.dims().union(DimSet::all(width)) == DimSet::all(width)
}

fn field_draw() -> impl Strategy<Value = FieldDraw> {
    (0u32..5, 0u32..8, 0u32..8, prop::bool::ANY)
}

/// A `2^p × 2^q` layout and a layout for its transpose: independent
/// fields (so `n` may differ and the pattern may be anything), the same
/// rule on the swapped shape, a square layout with one rule for both
/// directions (the pairwise case), or the relabeling.
fn spec_strategy() -> impl Strategy<Value = TransposeSpec> {
    ((0u32..5, 0u32..5, 0u32..6), field_draw(), field_draw(), field_draw(), field_draw()).prop_map(
        |((p, q, mode), r, c, ar, ac)| {
            let before = match mode {
                0 => Layout::new(p, p, field(p, r), field(p, r)),
                _ => Layout::new(p, q, field(p, r), field(q, c)),
            };
            let (p, q) = (before.p(), before.q());
            let after = match mode {
                0 => before.swapped_shape(),
                1 if fits(before.row_field(), q) && fits(before.col_field(), p) => {
                    before.swapped_shape()
                }
                2 => before.relabeled(),
                _ => Layout::new(q, p, field(q, ar), field(p, ac)),
            };
            TransposeSpec::with_after(before, after)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_specs_match_the_enumeration(spec in spec_strategy()) {
        check_spec(&spec);
        check_layout(&spec.before);
    }

    #[test]
    fn random_relayouts_match_the_enumeration(
        (p, q) in (0u32..5, 0u32..5),
        from in (field_draw(), field_draw()),
        to in (field_draw(), field_draw()),
    ) {
        let from = Layout::new(p, q, field(p, from.0), field(q, from.1));
        let to = Layout::new(p, q, field(p, to.0), field(q, to.1));
        let naive: Vec<ElementMove> = from
            .elements()
            .map(|(u, v)| {
                let (s, d) = (naive_place(&from, u, v), naive_place(&to, u, v));
                ElementMove { u, v, src: s.node, src_local: s.local, dst: d.node, dst_local: d.local }
            })
            .collect();
        prop_assert_eq!(relayout_moves(&from, &to).collect::<Vec<_>>(), naive.clone());
        prop_assert_eq!(
            relayout_traffic(&from, &to),
            naive_traffic(&naive, from.num_nodes(), to.num_nodes())
        );
    }
}

/// The random specs reach every pattern, and node maps of both kinds.
#[test]
fn the_strategy_covers_every_pattern() {
    let mut rng = proptest::test_runner::TestRng::for_test("the_strategy_covers_every_pattern");
    let mut seen = [0usize; 6];
    for _ in 0..256 {
        let spec = spec_strategy().generate(&mut rng);
        seen[match spec.classify() {
            CommPattern::Local => 0,
            CommPattern::PairwiseExchange => 1,
            CommPattern::AllToAll => 2,
            CommPattern::SomeToAll { .. } => 3,
            CommPattern::Mixed => 4,
        }] += 1;
        seen[5] += usize::from(spec.before.n() != spec.after.n());
    }
    assert!(seen.iter().all(|&c| c >= 8), "{seen:?}");
}

#[test]
fn named_layouts_match_the_enumeration() {
    let mut layouts = vec![
        Layout::banded(5, 3, 2),
        Layout::banded(4, 4, 2),
        Layout::banded_block_rows(6, 3, 1, 2),
        Layout::new(
            5,
            4,
            SubField::split_high_low(5, 3, 1, Encoding::Gray),
            SubField::split_high_low(4, 2, 1, Encoding::Binary),
        ),
        // Vectors: p = 0 and q = 0.
        Layout::one_dim(0, 5, Direction::Cols, 3, Assignment::Cyclic, Encoding::Gray),
        Layout::one_dim(5, 0, Direction::Rows, 2, Assignment::Consecutive, Encoding::Binary),
        Layout::new(0, 0, SubField::empty(), SubField::empty()),
    ];
    for scheme in [Assignment::Cyclic, Assignment::Consecutive] {
        for enc in [Encoding::Binary, Encoding::Gray] {
            layouts.push(Layout::square(4, 4, 2, scheme, enc));
            layouts.push(Layout::one_dim(3, 5, Direction::Cols, 3, scheme, enc));
            layouts.push(Layout::two_dim(5, 3, (2, scheme, enc), (1, Assignment::Cyclic, enc)));
        }
    }
    for before in &layouts {
        check_layout(before);
        check_spec(&TransposeSpec::with_after(before.clone(), before.relabeled()));
        // Every listed layout of the transposed shape as the target:
        // rectangular, some-to-all (`before.n() ≠ after.n()`), mixed.
        for after in &layouts {
            if (after.p(), after.q()) == (before.q(), before.p()) {
                check_spec(&TransposeSpec::with_after(before.clone(), after.clone()));
            }
        }
    }
}

#[test]
fn relation_that_is_not_a_function() {
    // Cyclic columns: node x holds a column residue and must feed every
    // node of the transpose.
    let l = Layout::one_dim(4, 4, Direction::Cols, 2, Assignment::Cyclic, Encoding::Binary);
    let spec = TransposeSpec::symmetric(l);
    assert_eq!(spec.node_map(), None);
    assert_eq!(spec.classify(), CommPattern::AllToAll);
    check_spec(&spec);
    // A function in the column direction only is still not a function.
    let before = Layout::two_dim(
        3,
        3,
        (1, Assignment::Consecutive, Encoding::Binary),
        (1, Assignment::Consecutive, Encoding::Binary),
    );
    let after = Layout::two_dim(
        3,
        3,
        (1, Assignment::Consecutive, Encoding::Binary),
        (1, Assignment::Cyclic, Encoding::Binary),
    );
    let spec = TransposeSpec::with_after(before, after);
    assert_eq!(spec.node_map(), None);
    check_spec(&spec);
}

#[test]
fn function_that_is_not_injective() {
    // Row u lives on node u before; after, column u of A^T lives on node
    // u >> 1: every source has one destination, two sources share it.
    let before =
        Layout::one_dim(2, 2, Direction::Rows, 2, Assignment::Consecutive, Encoding::Binary);
    let after =
        Layout::one_dim(2, 2, Direction::Cols, 1, Assignment::Consecutive, Encoding::Binary);
    let spec = TransposeSpec::with_after(before, after);
    for (s, row) in spec.traffic_matrix().iter().enumerate() {
        assert_eq!(row.iter().filter(|&&c| c > 0).count(), 1, "node {s} has one destination");
    }
    assert_eq!(spec.node_map(), None);
    assert!(!spec.is_pairwise());
    assert_eq!(spec.classify(), CommPattern::Mixed);
    check_spec(&spec);
}

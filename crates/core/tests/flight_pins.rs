//! Pins of the whole-array movers: §6.3's mixed-encoding transposes and
//! Lemma 6's distance-2 relocations.
//!
//! The `gray` table holds what the simulator reported, before these
//! movers shared one executor, for every encoding pair at three problem
//! sizes: round, message and element counts, simulated time, each round's
//! message count and a digest of the link history (every round's
//! `(sender, dim, elements)` set). The relocations behind `bit_reversal`
//! and `dimension_permutation` must equal the same pair sequence run
//! through `RefMappedMatrix::swap_real_real`, the oracle's hand-written
//! rounds: payloads and the whole report, link history included.

use cubeaddr::{bit_reverse, DimPermutation};
use cubelayout::Encoding;
use cubesim::{CommReport, MachineParams, PortMode, SimNet};
use cubetranspose::gray::{self, MixedSpec};
use cubetranspose::permute;
use cubetranspose::reference::RefMappedMatrix;
use cubetranspose::verify::labels;
use cubetranspose::FieldMap;

/// The net the §6.3 movers run on.
type GrayNet = SimNet<Vec<u64>>;

/// `(rounds, messages, elements, critical elements, simulated seconds,
/// messages per round, link-history digest)`.
type Counts = (usize, u64, u64, u64, f64, &'static [u32], u64);

/// `(row Gray, column Gray, p, half, [combined, naive, recode to the
/// opposite encodings])`, on the all-port iPSC.
#[rustfmt::skip]
const GRAY: [(bool, bool, u32, u32, [Counts; 3]); 12] = [
    (false, false, 3, 1, [
        (2, 4, 64, 32, 0.010128, &[2; 2], 0x3822fc2264aaba6),
        (2, 4, 64, 32, 0.010128, &[2; 2], 0x3822fc2264aaba6),
        (0, 0, 0, 0, 0.0, &[], 0x0),
    ]),
    (false, false, 3, 2, [
        (4, 32, 128, 16, 0.020064000000000002, &[8; 4], 0x920c99c8483295d8),
        (4, 32, 128, 16, 0.020064000000000002, &[8; 4], 0x920c99c8483295d8),
        (2, 16, 64, 8, 0.010032000000000001, &[8; 2], 0xbfc2ac678a9e5d34),
    ]),
    (false, false, 4, 3, [
        (6, 192, 768, 24, 0.030096, &[32; 6], 0xa9331975d79ec59c),
        (6, 192, 768, 24, 0.030096, &[32; 6], 0xa9331975d79ec59c),
        (4, 128, 512, 16, 0.020064000000000002, &[32; 4], 0x3df8ea2866d499c8),
    ]),
    (false, true, 3, 1, [
        (2, 4, 64, 32, 0.010128, &[2; 2], 0x3822fc2264aaba6),
        (2, 4, 64, 32, 0.010128, &[2; 2], 0x3822fc2264aaba6),
        (0, 0, 0, 0, 0.0, &[], 0x0),
    ]),
    (false, true, 3, 2, [
        (4, 32, 128, 16, 0.020064000000000002, &[8; 4], 0x7ec28a34a2e03bd8),
        (6, 48, 192, 24, 0.030096, &[8; 6], 0x4b7907c9dbf98a4c),
        (2, 16, 64, 8, 0.010032000000000001, &[8; 2], 0xbfc2ac678a9e5d34),
    ]),
    (false, true, 4, 3, [
        (6, 192, 768, 24, 0.030096, &[32; 6], 0x42ca73387e1a959c),
        (10, 320, 1280, 40, 0.05016, &[32; 10], 0xde25de07de268124),
        (4, 128, 512, 16, 0.020064000000000002, &[32; 4], 0xc5737ac65ab7e9c8),
    ]),
    (true, false, 3, 1, [
        (2, 4, 64, 32, 0.010128, &[2; 2], 0x3822fc2264aaba6),
        (2, 4, 64, 32, 0.010128, &[2; 2], 0x3822fc2264aaba6),
        (0, 0, 0, 0, 0.0, &[], 0x0),
    ]),
    (true, false, 3, 2, [
        (4, 32, 128, 16, 0.020064000000000002, &[8; 4], 0x7ec28a34a2e03bd8),
        (6, 48, 192, 24, 0.030096, &[8; 6], 0x4b7907c9dbf98a4c),
        (2, 16, 64, 8, 0.010032000000000001, &[8; 2], 0xbfc2ac678a9e5d34),
    ]),
    (true, false, 4, 3, [
        (6, 192, 768, 24, 0.030096, &[32; 6], 0x18e98787335a919c),
        (10, 320, 1280, 40, 0.05016, &[32; 10], 0xab2c4a5f7ba49324),
        (4, 128, 512, 16, 0.020064000000000002, &[32; 4], 0xfcd47d1164b079c8),
    ]),
    (true, true, 3, 1, [
        (2, 4, 64, 32, 0.010128, &[2; 2], 0x3822fc2264aaba6),
        (2, 4, 64, 32, 0.010128, &[2; 2], 0x3822fc2264aaba6),
        (0, 0, 0, 0, 0.0, &[], 0x0),
    ]),
    (true, true, 3, 2, [
        (4, 32, 128, 16, 0.020064000000000002, &[8; 4], 0x920c99c8483295d8),
        (4, 32, 128, 16, 0.020064000000000002, &[8; 4], 0x920c99c8483295d8),
        (2, 16, 64, 8, 0.010032000000000001, &[8; 2], 0xbfc2ac678a9e5d34),
    ]),
    (true, true, 4, 3, [
        (6, 192, 768, 24, 0.030096, &[32; 6], 0xa9331975d79ec59c),
        (6, 192, 768, 24, 0.030096, &[32; 6], 0xa9331975d79ec59c),
        (4, 128, 512, 16, 0.020064000000000002, &[32; 4], 0xf6abf318303e49c8),
    ]),
];

fn encoding(gray: bool) -> Encoding {
    if gray {
        Encoding::Gray
    } else {
        Encoding::Binary
    }
}

fn flip(e: Encoding) -> Encoding {
    encoding(e == Encoding::Binary)
}

/// Folds every round's link events (sorted by sender and dim) into one
/// number; a round boundary is folded in too.
fn link_digest(r: &CommReport) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut h = 0u64;
    for round in &r.link_history {
        h = h.wrapping_mul(PRIME).wrapping_add(1);
        for e in round {
            h = h.wrapping_mul(PRIME)
                ^ (e.src << 8 | u64::from(e.dim))
                ^ (u64::from(e.elems) << 40);
        }
    }
    h
}

/// Runs §6.3 mover `algo` (0 combined, 1 naive, 2 recode to the opposite
/// encodings) on labels, checks the output and returns the report.
fn run_gray(spec: &MixedSpec, algo: usize) -> CommReport {
    let m = labels(spec.before());
    let mut net: GrayNet =
        SimNet::new(2 * spec.half, MachineParams::intel_ipsc().with_ports(PortMode::AllPorts));
    net.record_history();
    net.record_links();
    match algo {
        0 => gray::assert_mixed_transposed(spec, &m, &gray::transpose_combined(spec, &m, &mut net)),
        1 => gray::assert_mixed_transposed(
            spec,
            &m,
            &gray::transpose_naive_mixed(spec, &m, &mut net),
        ),
        _ => {
            let (row_to, col_to) = (flip(spec.row_enc), flip(spec.col_enc));
            let out = gray::recode_encodings(spec, &m, &mut net, row_to, col_to);
            let recoded = MixedSpec { row_enc: row_to, col_enc: col_to, ..*spec };
            assert_eq!(out, labels(recoded.before()));
        }
    }
    net.finalize()
}

#[test]
fn gray_movers_report_what_they_reported_before() {
    for (row_gray, col_gray, p, half, pins) in GRAY {
        let spec = MixedSpec { p, half, row_enc: encoding(row_gray), col_enc: encoding(col_gray) };
        for (algo, want) in pins.into_iter().enumerate() {
            let r = run_gray(&spec, algo);
            let per_round: Vec<u32> = r.history.iter().map(|h| h.messages).collect();
            let got = (
                r.rounds,
                r.total_messages,
                r.total_elems,
                r.critical_elems,
                r.time,
                per_round.as_slice(),
                link_digest(&r),
            );
            assert_eq!(got, want, "{spec:?} algorithm {algo}");
        }
    }
}

fn one_port(n: u32) -> SimNet<Vec<u64>> {
    let mut net = SimNet::new(n, MachineParams::intel_ipsc().with_ports(PortMode::OnePort));
    net.record_history();
    net.record_links();
    net
}

/// Node `x` holds `len` distinct values, or nothing when `empty(x)`.
fn arrays(n: u32, len: u64, empty: impl Fn(u64) -> bool) -> Vec<Vec<u64>> {
    (0..1u64 << n)
        .map(|x| if empty(x) { Vec::new() } else { (0..len).map(|i| x * 100 + i).collect() })
        .collect()
}

/// The pair sequence through the oracle's `swap_real_real`, on a map
/// whose real dimension `i` is matrix dimension `i`.
fn oracle(n: u32, data: Vec<Vec<u64>>, pairs: &[(u32, u32)]) -> (Vec<Vec<u64>>, CommReport) {
    let vp = data[0].len().trailing_zeros();
    let map = FieldMap::new((0..n).collect(), (n..n + vp).collect());
    let mut m = RefMappedMatrix::from_buffers(map, data);
    let mut net = one_port(n);
    for &(i1, i2) in pairs {
        m.swap_real_real(&mut net, i1, i2);
    }
    (m.into_buffers(), net.finalize())
}

#[test]
fn bit_reversal_equals_the_oracle() {
    for n in [2, 5] {
        let data = arrays(n, 4, |_| false);
        let mut net = one_port(n);
        let out = permute::bit_reversal(&mut net, data.clone());
        let pairs: Vec<(u32, u32)> = (0..n / 2).map(|i| (i, n - 1 - i)).collect();
        let (want, want_report) = oracle(n, data, &pairs);
        assert_eq!(out, want, "n = {n}");
        assert_eq!(net.finalize(), want_report, "n = {n}");
    }
}

#[test]
fn dimension_permutation_equals_the_oracle() {
    let n = 5;
    let deltas = [
        DimPermutation::new(vec![3, 0, 4, 1, 2]),
        DimPermutation::rotation(n, 2),
        DimPermutation::new(vec![4, 2, 0, 3, 1]),
    ];
    for delta in deltas {
        let data = arrays(n, 8, |_| false);
        let mut net = one_port(n);
        let (out, steps) = permute::dimension_permutation(&mut net, data.clone(), &delta);
        let factors = delta.parallel_swap_factors();
        assert_eq!(steps, factors.len());
        let pairs: Vec<(u32, u32)> = factors.iter().flat_map(|f| f.swap_pairs()).collect();
        let (want, want_report) = oracle(n, data, &pairs);
        assert_eq!(out, want, "{delta:?}");
        assert_eq!(net.finalize(), want_report, "{delta:?}");
    }
}

#[test]
fn empty_arrays_stay_home_and_leave_their_destination_empty() {
    let n = 5;
    let data = arrays(n, 4, |x| x % 3 == 0);
    let mut net = one_port(n);
    let out = permute::bit_reversal(&mut net, data.clone());
    for x in 0..1u64 << n {
        assert_eq!(out[bit_reverse(x, n) as usize], data[x as usize], "x = {x}");
    }
    let r = net.finalize();
    assert_eq!((r.rounds, r.total_elems, r.total_messages), (4, 160, 40));

    let delta = DimPermutation::new(vec![3, 0, 4, 1, 2]);
    let mut net = one_port(n);
    let (out, _) = permute::dimension_permutation(&mut net, data.clone(), &delta);
    for x in 0..1u64 << n {
        assert_eq!(out[delta.apply(x) as usize], data[x as usize], "x = {x}");
    }
    let r = net.finalize();
    assert_eq!((r.rounds, r.total_elems, r.total_messages), (6, 248, 62));
}

//! Property tests for the C2R/R2C in-place transpose kernel
//! (`cubetranspose::inplace`): round-trip identity and equivalence with
//! the out-of-place kernels.

use cubetranspose::inplace;
use cubetranspose::local::Dense;
use proptest::prelude::*;

/// SplitMix64 so shapes are a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, span: u64) -> u64 {
        self.next() % span
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A shape from the family the seed selects: coprime sides, shared
/// factor, degenerate 1 × n / m × 1, or square.
fn random_shape(rng: &mut Rng) -> (usize, usize) {
    match rng.below(5) {
        0 => {
            // gcd = 1 by construction: consecutive integers are coprime.
            let m = 2 + rng.below(40) as usize;
            (m, m + 1)
        }
        1 => {
            // gcd > 1: both sides share the factor g.
            let g = 2 + rng.below(6) as usize;
            (g * (1 + rng.below(8) as usize), g * (1 + rng.below(8) as usize))
        }
        2 => (1, 1 + rng.below(60) as usize),
        3 => (1 + rng.below(60) as usize, 1),
        _ => {
            let m = 1 + rng.below(48) as usize;
            (m, m)
        }
    }
}

fn payload(rows: usize, cols: usize, salt: u64) -> Vec<u64> {
    (0..(rows * cols) as u64).map(|i| i ^ salt.rotate_left(17)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transposing `m × n` and then `n × m` is the identity at every
    /// shape family.
    #[test]
    fn transpose_roundtrip_identity(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (m, n) = random_shape(&mut rng);
        let data = payload(m, n, seed);
        let mut buf = data.clone();
        inplace::transpose(&mut buf, m, n);
        inplace::transpose(&mut buf, n, m);
        prop_assert_eq!(buf, data, "{} x {}", m, n);
    }

    /// The in-place kernel agrees with `Dense::transpose_naive` and with
    /// the tiled out-of-place family.
    #[test]
    fn inplace_matches_naive(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (m, n) = random_shape(&mut rng);
        let data = payload(m, n, seed);
        let dense = Dense::from_vec(m, n, data.clone());
        let expect = dense.transpose_naive().into_vec();
        prop_assert_eq!(
            &expect,
            &cubetranspose::local::transpose_flat(&data, m, n),
            "tiled family diverges from naive at {} x {}", m, n
        );
        let mut got = data.clone();
        inplace::transpose(&mut got, m, n);
        prop_assert_eq!(&expect, &got, "{} x {}", m, n);
    }

    /// Rectangular `Dense::transpose_in_place` (now the one in-place
    /// path, square included) agrees with the naive transpose and swaps
    /// the dimensions.
    #[test]
    fn dense_in_place_rectangular(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (m, n) = random_shape(&mut rng);
        let mut dense = Dense::from_vec(m, n, payload(m, n, seed));
        let expect = dense.transpose_naive();
        dense.transpose_in_place();
        prop_assert_eq!(dense.rows(), n);
        prop_assert_eq!(dense.cols(), m);
        prop_assert_eq!(&dense, &expect, "{} x {}", m, n);
    }
}

/// Pinned (non-random) coverage of the two gcd regimes: when
/// `gcd(m, n) = 1` the rotation pass must be skipped (pure 2-pass), and
/// when `gcd(m, n) > 1` all three passes run — both must match naive.
#[test]
fn gcd_regimes_pinned() {
    for (m, n) in [(7, 16), (16, 7), (31, 64), (12, 18), (18, 12), (32, 24)] {
        let tag = if gcd(m, n) == 1 { "coprime" } else { "shared-factor" };
        let data = payload(m, n, 0xfeed);
        let expect = Dense::from_vec(m, n, data.clone()).transpose_naive().into_vec();
        let mut got = data.clone();
        inplace::transpose(&mut got, m, n);
        assert_eq!(got, expect, "{tag} {m}x{n}");
    }
}

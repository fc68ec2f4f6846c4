//! Order statistics over timing samples, and the seeded shuffle.

/// Quartiles `(q1, median, q3)` of `samples` by linear interpolation
/// between order statistics. Panics on an empty slice: every caller
/// reports a metric, and a metric without a sample is a harness bug.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        let hi = (lo + 1).min(sorted.len() - 1);
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn iqr_ratio(samples: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// SplitMix64: the whole benchmark's randomness (the per-round workload
/// order) comes from one `--seed` through this generator.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle of `0..len`.
    pub fn shuffled(&mut self, len: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            order.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (1.25, 1.5, 1.75));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(iqr_ratio(&[1.0, 2.0]), 0.5 / 1.5);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = SplitMix64(7).shuffled(8);
        assert_eq!(a, SplitMix64(7).shuffled(8));
        assert_ne!(a, SplitMix64(8).shuffled(8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }
}

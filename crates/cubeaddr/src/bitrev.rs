//! Bit-reversal of address fields (paper §7).
//!
//! The bit-reversal permutation `(x_{n-1} x_{n-2} … x_0) ← (x_0 x_1 … x_{n-1})`
//! is the data reordering of radix-2 FFTs; the paper realizes it on the
//! cube with the *general exchange algorithm* by pairing dimensions
//! `f(i) = i`, `g(i) = n-1-i`. A *reflection* of a graph (Definition 9) is
//! the graph with every address bit-reversed.

use crate::{check_dims, mask};

/// Reverses the low `m` bits of `w` (bits at and above position `m` must be
/// zero).
#[inline]
#[track_caller]
pub fn bit_reverse(w: u64, m: u32) -> u64 {
    check_dims(m);
    debug_assert_eq!(w & !mask(m), 0, "address {w:#b} exceeds {m} bits");
    if m == 0 {
        return 0;
    }
    w.reverse_bits() >> (64 - m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cases() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(0b1011, 4), 0b1101);
        assert_eq!(bit_reverse(0, 0), 0);
        assert_eq!(bit_reverse(1, 1), 1);
    }

    #[test]
    fn involution() {
        for m in 1..=12u32 {
            for w in 0..(1u64 << m) {
                assert_eq!(bit_reverse(bit_reverse(w, m), m), w);
            }
        }
    }

    #[test]
    fn is_permutation() {
        let m = 10;
        let mut seen = vec![false; 1 << m];
        for w in 0..(1u64 << m) {
            let r = bit_reverse(w, m) as usize;
            assert!(!seen[r]);
            seen[r] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}

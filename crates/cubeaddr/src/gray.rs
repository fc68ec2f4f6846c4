//! The binary-reflected Gray code and its inverse.
//!
//! The paper embeds matrix rows and columns in the cube either by the
//! binary encoding or by the binary-reflected Gray code `G(w)`, which
//! preserves adjacency: `G(w)` and `G(w+1)` differ in exactly one bit, so
//! consecutive rows (columns) land on neighboring processors.

/// Binary-reflected Gray code of `w`: `G(w) = w ⊕ (w >> 1)`.
///
/// ```
/// use cubeaddr::{gray, gray_inverse, hamming};
/// assert_eq!(gray(5), 0b111);
/// assert_eq!(gray_inverse(gray(12345)), 12345);
/// // Consecutive codewords differ in exactly one bit.
/// assert_eq!(hamming(gray(6), gray(7)), 1);
/// ```
#[inline]
pub fn gray(w: u64) -> u64 {
    w ^ (w >> 1)
}

/// Inverse Gray code: the unique `w` with `gray(w) == g`.
///
/// Computed by the prefix-XOR `w_i = g_{m-1} ⊕ … ⊕ g_i`, folded in
/// O(log bits) steps.
#[inline]
pub fn gray_inverse(g: u64) -> u64 {
    let mut w = g;
    w ^= w >> 32;
    w ^= w >> 16;
    w ^= w >> 8;
    w ^= w >> 4;
    w ^= w >> 2;
    w ^= w >> 1;
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamming;

    #[test]
    fn small_values() {
        // G: 0,1,3,2,6,7,5,4 for 3 bits.
        let expect = [0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100];
        for (w, &g) in expect.iter().enumerate() {
            assert_eq!(gray(w as u64), g);
            assert_eq!(gray_inverse(g), w as u64);
        }
    }

    #[test]
    fn bijection_roundtrip() {
        for w in 0..(1u64 << 12) {
            assert_eq!(gray_inverse(gray(w)), w);
            assert_eq!(gray(gray_inverse(w)), w);
        }
        // Spot-check wide values.
        for w in [u64::MAX, u64::MAX >> 1, 0xdead_beef_cafe_f00d] {
            assert_eq!(gray_inverse(gray(w)), w);
        }
    }

    #[test]
    fn adjacency_preserved() {
        for w in 0..(1u64 << 12) - 1 {
            assert_eq!(hamming(gray(w), gray(w + 1)), 1, "w={w}");
        }
    }

    #[test]
    fn wraparound_is_single_bit() {
        // The Gray sequence is a Hamiltonian cycle: last and first codeword
        // also differ in one bit.
        for m in 1..=10u32 {
            let last = gray((1u64 << m) - 1);
            assert_eq!(hamming(last, gray(0)), 1, "m={m}");
        }
    }

    #[test]
    fn transition_dims_are_ruler_sequence() {
        let expect = [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0, 4];
        for (w, &d) in expect.iter().enumerate() {
            assert_eq!(
                gray(w as u64) ^ gray(w as u64 + 1),
                1 << d,
                "transition bit mismatch at w={w}"
            );
        }
    }

    #[test]
    fn preserves_msb() {
        // The paper's §6.3 uses that binary and Gray codes have identical
        // most significant bits.
        for m in 1..=12u32 {
            for w in 0..(1u64 << m) {
                assert_eq!(gray(w) >> (m - 1), w >> (m - 1));
            }
        }
    }
}

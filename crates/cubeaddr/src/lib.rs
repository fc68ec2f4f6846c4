//! Addressing mathematics for Boolean *n*-cube configured ensemble
//! architectures.
//!
//! This crate provides the bit-level machinery used throughout the
//! Johnsson–Ho matrix-transposition algorithms (YALEU/DCS/TR-572, 1987):
//!
//! * node addresses and neighbor relations on the Boolean *n*-cube
//!   ([`NodeId`]),
//! * Hamming distance and parity ([`hamming()`]),
//! * the shuffle operators `sh^k` (cyclic shifts of the address field,
//!   [`shuffle()`]),
//! * the binary-reflected Gray code and its inverse ([`gray()`]),
//! * bit-reversal ([`bitrev`]),
//! * dimension permutations and their decomposition into *parallel
//!   swappings* (paper Lemma 15, [`dimperm`]),
//! * necklace/rotation utilities used by spanning balanced *n*-tree
//!   routing ([`necklace`]),
//! * sets of cube dimensions and subcube enumeration ([`dimset`]).
//!
//! Addresses are plain `u64` bit strings; an *m*-bit address space supports
//! `m <= 63`. All operations are `O(1)` or `O(m)` bit manipulation with no
//! allocation, so they can sit on the critical path of a simulator or of a
//! real message-passing runtime.

pub mod bitrev;
pub mod dimperm;
pub mod dimset;
pub mod gray;
pub mod hamming;
pub mod necklace;
pub mod node;
pub mod shuffle;

pub use bitrev::bit_reverse;
pub use dimperm::DimPermutation;
pub use dimset::DimSet;
pub use gray::{gray, gray_inverse};
pub use hamming::{hamming, parity};
pub use node::NodeId;
pub use shuffle::{shuffle, unshuffle};

/// Maximum supported number of address bits.
///
/// Addresses are stored in `u64`; one bit is kept in reserve so that
/// intermediate values such as `1 << m` never overflow.
pub const MAX_DIMS: u32 = 63;

/// Panics unless `m` is a valid address-field width.
#[inline]
#[track_caller]
pub fn check_dims(m: u32) {
    assert!(m <= MAX_DIMS, "address field of {m} bits exceeds MAX_DIMS={MAX_DIMS}");
}

/// The low-`m`-bit mask: addresses in an `m`-dimensional field satisfy
/// `w & mask(m) == w`.
#[inline]
pub fn mask(m: u32) -> u64 {
    check_dims(m);
    if m == 0 {
        0
    } else {
        u64::MAX >> (64 - m)
    }
}

/// The number of nodes of an `n`-dimensional Boolean cube, `2^n`, as the
/// `usize` used to size dense per-node tables.
///
/// This is the one audited home for `1 << n` node-count arithmetic: it
/// validates `n` against [`MAX_DIMS`] and (in debug builds) that the
/// count fits the platform's `usize`, instead of silently wrapping.
#[inline]
#[track_caller]
pub fn num_nodes(n: u32) -> usize {
    check_dims(n);
    debug_assert!(
        (n as usize) < usize::BITS as usize,
        "2^{n} nodes overflows usize on this platform"
    );
    1usize << n
}

/// Concatenation of two address fields: `(u || v)` with `v` occupying the
/// `q` low-order bits, as in the paper's element address
/// `(u_{p-1}..u_0 v_{q-1}..v_0)`.
#[inline]
pub fn concat(u: u64, v: u64, q: u32) -> u64 {
    debug_assert_eq!(v & !mask(q), 0, "v does not fit in {q} bits");
    (u << q) | v
}

/// Splits `w` into `(u, v)` such that `w = (u || v)` with `v` the `q`
/// low-order bits. Inverse of [`concat()`].
#[inline]
pub fn split(w: u64, q: u32) -> (u64, u64) {
    (w >> q, w & mask(q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_widths() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(1), 1);
        assert_eq!(mask(4), 0b1111);
        assert_eq!(mask(63), u64::MAX >> 1);
    }

    #[test]
    #[should_panic]
    fn mask_rejects_64() {
        mask(64);
    }

    #[test]
    fn concat_split_roundtrip() {
        let (u, v, q) = (0b1011, 0b0110, 4);
        let w = concat(u, v, q);
        assert_eq!(w, 0b1011_0110);
        assert_eq!(split(w, q), (u, v));
    }

    #[test]
    fn concat_zero_width() {
        assert_eq!(concat(0b101, 0, 0), 0b101);
        assert_eq!(split(0b101, 0), (0b101, 0));
    }
}

//! Applications of Boolean-cube matrix transposition — the workloads the
//! paper's introduction motivates.
//!
//! * [`cplx`] — a minimal complex-number type for the FFT.
//! * [`fft`] — radix-2 FFTs: the local kernel, and the transpose-based
//!   *four-step* parallel FFT whose global data movement is exactly the
//!   matrix transposition the paper optimizes.
//!
//! The FFT runs its communication through the simulated cube, so the
//! transposition costs are accounted under the paper's model, and it is
//! verified against the naive DFT. §1's other two motivations, ADI and
//! FACR, live in the `adi_heat` and `poisson_facr` examples, which
//! assert their own numerical checks.

pub mod cplx;
pub mod fft;

pub use cplx::Cplx;

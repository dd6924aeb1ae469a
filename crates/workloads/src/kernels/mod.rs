//! Numeric kernels backing the benchmark task bodies.
//!
//! All matrix kernels operate on square row-major tiles (the workloads
//! store matrices tile-major so every tile is one contiguous region).
//! Each kernel has a reference-checked unit test; the benchmarks'
//! end-to-end verifiers then check whole-workload numerics.
//!
//! The hot kernels vectorize yet stay **bit-identical** to plain scalar
//! loops (kept in tests as `reference`, and asserted equal bit for bit
//! for both CPU instantiations): replicas are compared bitwise, so a
//! kernel's result may depend on nothing but its inputs. The private
//! `dispatch` module documents the runtime CPU selection.

pub mod blas;
mod dispatch;
pub mod factor;
pub mod fft;
pub mod nbody;
pub mod perlin;
#[cfg(test)]
mod reference;

pub use blas::{daxpy, dgemm, dgemm_nt, dsyrk_lower, dtrsm_right_lower_trans};
pub use factor::{bdiv_upper, dgetrf_nopiv, dpotrf, fwd_lower_unit};
pub use fft::{bit_reverse_permute, dft2_reference, fft1d, fft_rows};
pub use nbody::accumulate_forces;
pub use perlin::Perlin;

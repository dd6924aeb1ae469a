//! Tile factorization kernels: Cholesky (POTRF) and LU without
//! pivoting (the SparseLU/Linpack `lu0`), plus the forward/backward
//! panel solves.
//!
//! The LU kernels omit pivoting, as the BSC SparseLU benchmark does;
//! the workloads feed diagonally dominant matrices, for which unpivoted
//! LU is backward stable. DESIGN.md records the simplification.
//!
//! As in [`blas`](super::blas), every kernel keeps the reference loop's
//! per-element operation order, so both CPU instantiations are
//! bit-identical to it. The
//! panel solves are rearranged to vectorize; the two diagonal-tile
//! factorizations keep their loops (one task per elimination step, a
//! small share of the flops) and only gain the AVX2 instantiation.

use super::blas::{solve_right_transposed, transpose, transpose_into, RB};
use super::dispatch::multiversion;

multiversion! {
    /// In-place Cholesky factorization of an `n×n` SPD tile: on return
    /// the lower triangle holds `L` with `A = L·Lᵀ`. The strict upper
    /// triangle is zeroed. Returns `Err` if a non-positive pivot appears
    /// (matrix not positive definite).
    pub fn dpotrf(a: &mut [f64], n: usize) -> Result<(), String> => dpotrf_avx2 / dpotrf_body;
}

#[inline(always)]
pub(crate) fn dpotrf_body(a: &mut [f64], n: usize) -> Result<(), String> {
    debug_assert_eq!(a.len(), n * n);
    for j in 0..n {
        let mut d = a[j * n + j];
        for k in 0..j {
            d -= a[j * n + k] * a[j * n + k];
        }
        if d <= 0.0 {
            return Err(format!("non-positive pivot {d} at column {j}"));
        }
        let d = d.sqrt();
        a[j * n + j] = d;
        for i in j + 1..n {
            let mut v = a[i * n + j];
            for k in 0..j {
                v -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = v / d;
        }
    }
    for i in 0..n {
        for j in i + 1..n {
            a[i * n + j] = 0.0;
        }
    }
    Ok(())
}

multiversion! {
    /// In-place unpivoted LU of an `n×n` tile: on return the tile packs
    /// a unit-diagonal `L` (strict lower) and `U` (upper). The `lu0`
    /// kernel of SparseLU.
    pub fn dgetrf_nopiv(a: &mut [f64], n: usize) => dgetrf_nopiv_avx2 / dgetrf_nopiv_body;
}

#[inline(always)]
pub(crate) fn dgetrf_nopiv_body(a: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    for k in 0..n {
        let pivot = a[k * n + k];
        debug_assert!(pivot != 0.0, "zero pivot at {k}");
        for i in k + 1..n {
            let lik = a[i * n + k] / pivot;
            a[i * n + k] = lik;
            for j in k + 1..n {
                a[i * n + j] -= lik * a[k * n + j];
            }
        }
    }
}

multiversion! {
    /// `B := L⁻¹·B` where `L` is the unit-diagonal lower factor packed
    /// in `lu` (SparseLU's `fwd`: updates a block to the right of the
    /// diagonal).
    ///
    /// Per element: `b_ij −= l_ik·b_kj` for ascending `k < i`, skipping
    /// zero `l_ik`. Rows are solved top to bottom (row `k` is final
    /// before row `i > k` reads it); `RB` columns of the row being
    /// solved stay in registers across the `k` loop.
    pub fn fwd_lower_unit(lu: &[f64], b: &mut [f64], n: usize)
        => fwd_lower_unit_avx2 / fwd_lower_unit_body;
}

#[inline(always)]
pub(crate) fn fwd_lower_unit_body(lu: &[f64], b: &mut [f64], n: usize) {
    debug_assert_eq!(lu.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    let jb = n - n % RB;
    for i in 0..n {
        let (done, rest) = b[..n * n].split_at_mut(i * n);
        let row = &mut rest[..n];
        let lrow = &lu[i * n..][..i];
        for j0 in (0..jb).step_by(RB) {
            let mut acc = [0.0; RB];
            acc.copy_from_slice(&row[j0..j0 + RB]);
            for (k, &lik) in lrow.iter().enumerate() {
                if lik != 0.0 {
                    for (v, x) in acc.iter_mut().zip(&done[k * n + j0..][..RB]) {
                        *v -= lik * x;
                    }
                }
            }
            row[j0..j0 + RB].copy_from_slice(&acc);
        }
        let tail = &mut row[jb..];
        for (k, &lik) in lrow.iter().enumerate() {
            if lik != 0.0 {
                for (v, x) in tail.iter_mut().zip(&done[k * n + jb..(k + 1) * n]) {
                    *v -= lik * x;
                }
            }
        }
    }
}

multiversion! {
    /// `B := B·U⁻¹` where `U` is the upper factor packed in `lu`
    /// (SparseLU's `bdiv`: updates a block below the diagonal).
    ///
    /// Per element: `v = b_ij`, `v −= b_ik·u_kj` for ascending `k < j`,
    /// `b_ij = v / u_jj`; solved on a transposed copy of `B`.
    pub fn bdiv_upper(lu: &[f64], b: &mut [f64], n: usize) => bdiv_upper_avx2 / bdiv_upper_body;
}

#[inline(always)]
pub(crate) fn bdiv_upper_body(lu: &[f64], b: &mut [f64], n: usize) {
    debug_assert_eq!(lu.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    let mut bt = transpose(b, n);
    solve_right_transposed(&mut bt, n, |j, k| lu[k * n + j], |j| lu[j * n + j]);
    transpose_into(&bt, b, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::blas::dgemm;

    fn spd_matrix(n: usize) -> Vec<f64> {
        // A = Mᵀ·M + n·I with deterministic M.
        let m: Vec<f64> = (0..n * n)
            .map(|i| ((i * 37 + 11) % 17) as f64 / 17.0 - 0.5)
            .collect();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += m[k * n + i] * m[k * n + j];
                }
                a[i * n + j] = acc + if i == j { n as f64 } else { 0.0 };
            }
        }
        a
    }

    fn diag_dominant(n: usize, seed: u64) -> Vec<f64> {
        let mut a: Vec<f64> = (0..n * n)
            .map(|i| {
                let h = (i as u64 + seed + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect();
        for i in 0..n {
            a[i * n + i] += n as f64;
        }
        a
    }

    #[test]
    fn dpotrf_reconstructs() {
        let n = 12;
        let a0 = spd_matrix(n);
        let mut l = a0.clone();
        dpotrf(&mut l, n).expect("SPD");
        // L·Lᵀ == A.
        let mut lt = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                lt[i * n + j] = l[j * n + i];
            }
        }
        let mut recon = vec![0.0; n * n];
        dgemm(&mut recon, &l, &lt, n, 1.0);
        for (r, e) in recon.iter().zip(&a0) {
            assert!((r - e).abs() < 1e-9, "{r} vs {e}");
        }
    }

    #[test]
    fn dpotrf_rejects_indefinite() {
        let mut a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, −1
        assert!(dpotrf(&mut a, 2).is_err());
    }

    #[test]
    fn lu_reconstructs() {
        let n = 10;
        let a0 = diag_dominant(n, 7);
        let mut lu = a0.clone();
        dgetrf_nopiv(&mut lu, n);
        // Unpack L (unit diag) and U; check L·U == A.
        let mut l = vec![0.0; n * n];
        let mut u = vec![0.0; n * n];
        for i in 0..n {
            l[i * n + i] = 1.0;
            for j in 0..i {
                l[i * n + j] = lu[i * n + j];
            }
            for j in i..n {
                u[i * n + j] = lu[i * n + j];
            }
        }
        let mut recon = vec![0.0; n * n];
        dgemm(&mut recon, &l, &u, n, 1.0);
        for (r, e) in recon.iter().zip(&a0) {
            assert!((r - e).abs() < 1e-9, "{r} vs {e}");
        }
    }

    #[test]
    fn fwd_solves_unit_lower() {
        let n = 8;
        let a0 = diag_dominant(n, 3);
        let mut lu = a0.clone();
        dgetrf_nopiv(&mut lu, n);
        let b0 = diag_dominant(n, 9);
        let mut b = b0.clone();
        fwd_lower_unit(&lu, &mut b, n);
        // L·B_new == B0.
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            l[i * n + i] = 1.0;
            for j in 0..i {
                l[i * n + j] = lu[i * n + j];
            }
        }
        let mut recon = vec![0.0; n * n];
        dgemm(&mut recon, &l, &b, n, 1.0);
        for (r, e) in recon.iter().zip(&b0) {
            assert!((r - e).abs() < 1e-9);
        }
    }

    #[test]
    fn bdiv_solves_upper_from_right() {
        let n = 8;
        let a0 = diag_dominant(n, 5);
        let mut lu = a0.clone();
        dgetrf_nopiv(&mut lu, n);
        let b0 = diag_dominant(n, 13);
        let mut b = b0.clone();
        bdiv_upper(&lu, &mut b, n);
        // B_new·U == B0.
        let mut u = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                u[i * n + j] = lu[i * n + j];
            }
        }
        let mut recon = vec![0.0; n * n];
        dgemm(&mut recon, &b, &u, n, 1.0);
        for (r, e) in recon.iter().zip(&b0) {
            assert!((r - e).abs() < 1e-9);
        }
    }
}

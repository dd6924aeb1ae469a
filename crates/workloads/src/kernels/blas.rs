//! Dense linear-algebra tile kernels (the reproduction's CBLAS stand-in).
//!
//! Every kernel performs, for each output element, the same rounded
//! operations in the same order as the plain textbook loop it replaces
//! (kept as `kernels::reference` in tests): same `k` order, same
//! zero-skip, no FMA, no reassociation. Only the traversal of *elements*
//! changes — register-blocked tiles and transposed scratch copies let
//! the compiler vectorize across independent elements — so results are
//! bit-identical to the scalar loops, in both CPU instantiations (see
//! the `dispatch` module).

use super::dispatch::multiversion;

/// Rows of `C` a GEMM micro-kernel holds in registers.
const MR: usize = 4;
/// Columns of `C` a GEMM micro-kernel holds in registers (two AVX2
/// vectors per row).
const NR: usize = 8;
/// Elements a triangular-solve block holds in registers (eight AVX2
/// vectors).
pub(crate) const RB: usize = 32;

multiversion! {
    /// `C := C + alpha · A·B` on `n×n` row-major tiles.
    ///
    /// Per element this is the i-k-j loop: `c_ij += (alpha·a_ik)·b_kj`
    /// for ascending `k`, skipping every `k` whose `alpha·a_ik` is zero.
    /// `MR×NR` blocks of `C` stay in registers across the whole `k`
    /// loop; rows and columns beyond the last full block run the same
    /// accumulation one row at a time.
    pub fn dgemm(c: &mut [f64], a: &[f64], b: &[f64], n: usize, alpha: f64)
        => dgemm_avx2 / dgemm_body;
}

#[inline(always)]
pub(crate) fn dgemm_body(c: &mut [f64], a: &[f64], b: &[f64], n: usize, alpha: f64) {
    debug_assert_eq!(c.len(), n * n);
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    let (c, a, b) = (&mut c[..n * n], &a[..n * n], &b[..n * n]);
    let (mb, nb) = (n - n % MR, n - n % NR);
    for i0 in (0..mb).step_by(MR) {
        for j0 in (0..nb).step_by(NR) {
            gemm_micro(c, a, b, n, alpha, i0, j0);
        }
        for i in i0..i0 + MR {
            gemm_row(c, a, b, n, alpha, i, nb);
        }
    }
    for i in mb..n {
        gemm_row(c, a, b, n, alpha, i, 0);
    }
}

/// The `MR×NR` block of `C` at `(i0, j0)`, accumulated in registers.
#[inline(always)]
fn gemm_micro(c: &mut [f64], a: &[f64], b: &[f64], n: usize, alpha: f64, i0: usize, j0: usize) {
    let arows: [&[f64]; MR] = core::array::from_fn(|r| &a[(i0 + r) * n..][..n]);
    let mut acc = [[0.0; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[(i0 + r) * n + j0..][..NR]);
    }
    for k in 0..n {
        let bk = &b[k * n + j0..][..NR];
        for (row, arow) in acc.iter_mut().zip(arows) {
            let aik = alpha * arow[k];
            // The reference's zero-skip: a zero multiplier leaves the
            // row untouched (keeps −0.0 in C, keeps ∞/NaN in B out).
            if aik != 0.0 {
                for (cj, bj) in row.iter_mut().zip(bk) {
                    *cj += aik * bj;
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i0 + r) * n + j0..][..NR].copy_from_slice(row);
    }
}

/// Row `i` of `C`, columns `j0..n`, in the reference i-k-j order.
#[inline(always)]
fn gemm_row(c: &mut [f64], a: &[f64], b: &[f64], n: usize, alpha: f64, i: usize, j0: usize) {
    let crow = &mut c[i * n + j0..(i + 1) * n];
    for k in 0..n {
        let aik = alpha * a[i * n + k];
        if aik == 0.0 {
            continue;
        }
        for (cj, bj) in crow.iter_mut().zip(&b[k * n + j0..(k + 1) * n]) {
            *cj += aik * bj;
        }
    }
}

/// `mᵀ` of an `n×n` row-major tile, as a new tile.
#[inline(always)]
pub(crate) fn transpose(m: &[f64], n: usize) -> Vec<f64> {
    let mut t = vec![0.0; n * n];
    transpose_into(m, &mut t, n);
    t
}

/// Writes `mᵀ` into `out`.
#[inline(always)]
pub(crate) fn transpose_into(m: &[f64], out: &mut [f64], n: usize) {
    for (i, row) in m[..n * n].chunks_exact(n).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            out[j * n + i] = v;
        }
    }
}

/// Inner products `Σ_k a_ik·b_jk` for the `MR×NR` block at `(i0, j0)`,
/// given `bt = Bᵀ`: each starts at `0.0` and adds `a_ik·bt_kj` for
/// ascending `k` — the reference `dot` loop, vectorized across `j`.
#[inline(always)]
fn dot_micro(a: &[f64], bt: &[f64], n: usize, i0: usize, j0: usize) -> [[f64; NR]; MR] {
    let arows: [&[f64]; MR] = core::array::from_fn(|r| &a[(i0 + r) * n..][..n]);
    let mut acc = [[0.0; NR]; MR];
    for k in 0..n {
        let bk = &bt[k * n + j0..][..NR];
        for (row, arow) in acc.iter_mut().zip(arows) {
            let aik = arow[k];
            for (dj, bj) in row.iter_mut().zip(bk) {
                *dj += aik * bj;
            }
        }
    }
    acc
}

/// Inner products `Σ_k a_ik·b_jk` of row `i` for columns `j0..n` into
/// `dots[..n - j0]`, given `bt = Bᵀ`, in the same per-element order as
/// [`dot_micro`].
#[inline(always)]
fn dot_row(a: &[f64], bt: &[f64], n: usize, i: usize, j0: usize, dots: &mut [f64]) {
    let dots = &mut dots[..n - j0];
    dots.fill(0.0);
    for k in 0..n {
        let aik = a[i * n + k];
        for (dj, bj) in dots.iter_mut().zip(&bt[k * n + j0..(k + 1) * n]) {
            *dj += aik * bj;
        }
    }
}

multiversion! {
    /// `C := C + alpha · A·Bᵀ` on `n×n` row-major tiles — the GEMM
    /// variant of blocked Cholesky's trailing update
    /// (`A_ij −= A_ik·A_jkᵀ`).
    ///
    /// Per element: `dot = Σ_k a_ik·b_jk` accumulated from `0.0` in
    /// ascending `k`, then `c_ij += alpha·dot`. `B` is transposed into
    /// scratch so the accumulation runs across `j` in registers.
    pub fn dgemm_nt(c: &mut [f64], a: &[f64], b: &[f64], n: usize, alpha: f64)
        => dgemm_nt_avx2 / dgemm_nt_body;
}

#[inline(always)]
pub(crate) fn dgemm_nt_body(c: &mut [f64], a: &[f64], b: &[f64], n: usize, alpha: f64) {
    debug_assert_eq!(c.len(), n * n);
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    let bt = transpose(b, n);
    let mut dots = vec![0.0; n];
    let (mb, nb) = (n - n % MR, n - n % NR);
    for i0 in (0..mb).step_by(MR) {
        for j0 in (0..nb).step_by(NR) {
            let block = dot_micro(a, &bt, n, i0, j0);
            for (r, row) in block.iter().enumerate() {
                for (cj, dot) in c[(i0 + r) * n + j0..][..NR].iter_mut().zip(row) {
                    *cj += alpha * dot;
                }
            }
        }
    }
    for i in 0..n {
        let j0 = if i < mb { nb } else { 0 };
        dot_row(a, &bt, n, i, j0, &mut dots);
        for (cj, dot) in c[i * n + j0..(i + 1) * n].iter_mut().zip(&dots) {
            *cj += alpha * dot;
        }
    }
}

multiversion! {
    /// `C := C − A·Aᵀ`, updating only the lower triangle (plus diagonal)
    /// of the `n×n` tile `C` — the SYRK update of blocked Cholesky.
    ///
    /// Per element `j ≤ i`: `dot = Σ_k a_ik·a_jk` from `0.0` in
    /// ascending `k`, then `c_ij −= dot`; computed like [`dgemm_nt`].
    pub fn dsyrk_lower(c: &mut [f64], a: &[f64], n: usize) => dsyrk_lower_avx2 / dsyrk_lower_body;
}

#[inline(always)]
pub(crate) fn dsyrk_lower_body(c: &mut [f64], a: &[f64], n: usize) {
    debug_assert_eq!(c.len(), n * n);
    debug_assert_eq!(a.len(), n * n);
    let at = transpose(a, n);
    let mut dots = vec![0.0; n];
    let (mb, nb) = (n - n % MR, n - n % NR);
    for i0 in (0..mb).step_by(MR) {
        // Blocks holding any column ≤ the block's last row; the
        // inner products above the diagonal are computed and dropped.
        for j0 in (0..nb).step_by(NR).take_while(|&j0| j0 < i0 + MR) {
            let block = dot_micro(a, &at, n, i0, j0);
            for (r, row) in block.iter().enumerate() {
                let i = i0 + r;
                for (j, dot) in (j0..).zip(row) {
                    if j <= i {
                        c[i * n + j] -= dot;
                    }
                }
            }
        }
    }
    for i in 0..n {
        let j0 = if i < mb { nb } else { 0 };
        if j0 > i {
            continue;
        }
        dot_row(a, &at, n, i, j0, &mut dots);
        for (cj, dot) in c[i * n + j0..=i * n + i].iter_mut().zip(&dots) {
            *cj -= dot;
        }
    }
}

/// Solves, in place on the transposed tile `xt` (`xt[j][r] = X[r][j]`),
/// the right-sided triangular system whose reference loop is, for every
/// row `r` of `X` and ascending `j`:
/// `v = x_rj; for k < j { v −= x_rk · coef(j, k) }; x_rj = v / diag(j)`.
///
/// Row `j` of `xt` depends only on rows `k < j`, so the `r` direction is
/// free: `RB` consecutive `r` stay in registers across the `k` loop, and
/// the remaining `r` run the same updates as a row-wide axpy.
#[inline(always)]
pub(crate) fn solve_right_transposed(
    xt: &mut [f64],
    n: usize,
    coef: impl Fn(usize, usize) -> f64,
    diag: impl Fn(usize) -> f64,
) {
    let rb = n - n % RB;
    for j in 0..n {
        let (done, rest) = xt[..n * n].split_at_mut(j * n);
        let row = &mut rest[..n];
        let d = diag(j);
        for r0 in (0..rb).step_by(RB) {
            let mut acc = [0.0; RB];
            acc.copy_from_slice(&row[r0..r0 + RB]);
            for k in 0..j {
                let ck = coef(j, k);
                for (v, x) in acc.iter_mut().zip(&done[k * n + r0..][..RB]) {
                    *v -= x * ck;
                }
            }
            for (out, v) in row[r0..r0 + RB].iter_mut().zip(&acc) {
                *out = v / d;
            }
        }
        let tail = &mut row[rb..];
        for k in 0..j {
            let ck = coef(j, k);
            for (v, x) in tail.iter_mut().zip(&done[k * n + rb..(k + 1) * n]) {
                *v -= x * ck;
            }
        }
        for v in tail {
            *v /= d;
        }
    }
}

multiversion! {
    /// `X := X · L⁻ᵀ` where `L` is lower triangular with a non-unit
    /// diagonal — the TRSM of blocked right-looking Cholesky
    /// (`A_ik := A_ik · L_kk⁻ᵀ`).
    ///
    /// Per element: `v = x_rj`, `v −= x_rk·l_jk` for ascending `k < j`,
    /// `x_rj = v / l_jj`; solved on a transposed copy of `X`.
    pub fn dtrsm_right_lower_trans(l: &[f64], x: &mut [f64], n: usize)
        => dtrsm_right_lower_trans_avx2 / dtrsm_right_lower_trans_body;
}

#[inline(always)]
pub(crate) fn dtrsm_right_lower_trans_body(l: &[f64], x: &mut [f64], n: usize) {
    debug_assert_eq!(l.len(), n * n);
    debug_assert_eq!(x.len(), n * n);
    let mut xt = transpose(x, n);
    solve_right_transposed(&mut xt, n, |j, k| l[j * n + k], |j| l[j * n + j]);
    transpose_into(&xt, x, n);
}

/// `y := y + a·x` over equal-length slices (Stream's triad companion).
pub fn daxpy(y: &mut [f64], x: &[f64], a: f64) {
    debug_assert_eq!(y.len(), x.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm(c: &mut [f64], a: &[f64], b: &[f64], n: usize, alpha: f64) {
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += a[i * n + k] * b[k * n + j];
                }
                c[i * n + j] += alpha * acc;
            }
        }
    }

    fn det_matrix(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-random values in [-1, 1].
        (0..n * n)
            .map(|i| {
                let h = (i as u64 + 1)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(seed);
                ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn dgemm_matches_naive() {
        let n = 13;
        let a = det_matrix(n, 1);
        let b = det_matrix(n, 2);
        let mut c1 = det_matrix(n, 3);
        let mut c2 = c1.clone();
        dgemm(&mut c1, &a, &b, n, -1.0);
        naive_gemm(&mut c2, &a, &b, n, -1.0);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn dsyrk_matches_gemm_on_lower_triangle() {
        let n = 9;
        let a = det_matrix(n, 4);
        let mut c1 = det_matrix(n, 5);
        let mut c2 = c1.clone();
        dsyrk_lower(&mut c1, &a, n);
        // Reference: full C -= A·Aᵀ via gemm with Bᵀ.
        let mut at = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                at[i * n + j] = a[j * n + i];
            }
        }
        naive_gemm(&mut c2, &a, &at, n, -1.0);
        for i in 0..n {
            for j in 0..=i {
                assert!((c1[i * n + j] - c2[i * n + j]).abs() < 1e-12);
            }
            // Upper triangle untouched by syrk.
            for j in i + 1..n {
                assert_ne!(c1[i * n + j], c2[i * n + j]);
            }
        }
    }

    #[test]
    fn dtrsm_right_lower_trans_solves() {
        let n = 8;
        // A well-conditioned lower-triangular L.
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..i {
                l[i * n + j] = 0.3 / (1.0 + (i + j) as f64);
            }
            l[i * n + i] = 2.0 + i as f64 * 0.1;
        }
        let x0 = det_matrix(n, 6);
        let mut x = x0.clone();
        dtrsm_right_lower_trans(&l, &mut x, n);
        // Check X_new · Lᵀ == X0.
        let mut lt = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                lt[i * n + j] = l[j * n + i];
            }
        }
        let mut recon = vec![0.0; n * n];
        naive_gemm(&mut recon, &x, &lt, n, 1.0);
        for (r, e) in recon.iter().zip(&x0) {
            assert!((r - e).abs() < 1e-10, "{r} vs {e}");
        }
    }

    #[test]
    fn dgemm_nt_matches_explicit_transpose() {
        let n = 7;
        let a = det_matrix(n, 8);
        let b = det_matrix(n, 9);
        let mut bt = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                bt[i * n + j] = b[j * n + i];
            }
        }
        let mut c1 = det_matrix(n, 10);
        let mut c2 = c1.clone();
        dgemm_nt(&mut c1, &a, &b, n, -1.0);
        naive_gemm(&mut c2, &a, &bt, n, -1.0);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn daxpy_basic() {
        let mut y = vec![1.0, 2.0, 3.0];
        daxpy(&mut y, &[10.0, 20.0, 30.0], 0.5);
        assert_eq!(y, vec![6.0, 12.0, 18.0]);
    }
}

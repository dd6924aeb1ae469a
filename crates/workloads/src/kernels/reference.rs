//! The plain scalar tile kernels the vectorized ones replace, kept as
//! references, and the tests asserting bit-for-bit identity with them —
//! for the baseline instantiation (called directly, so it is tested even
//! on AVX2 hosts) and, where the CPU has it, the AVX2 one.

use super::dispatch::has_avx2;
use super::{blas, factor, Perlin};

pub(crate) fn dgemm(c: &mut [f64], a: &[f64], b: &[f64], n: usize, alpha: f64) {
    for i in 0..n {
        for k in 0..n {
            let aik = alpha * a[i * n + k];
            if aik == 0.0 {
                continue;
            }
            let brow = &b[k * n..(k + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for j in 0..n {
                crow[j] += aik * brow[j];
            }
        }
    }
}

pub(crate) fn dgemm_nt(c: &mut [f64], a: &[f64], b: &[f64], n: usize, alpha: f64) {
    for i in 0..n {
        for j in 0..n {
            let mut dot = 0.0;
            for k in 0..n {
                dot += a[i * n + k] * b[j * n + k];
            }
            c[i * n + j] += alpha * dot;
        }
    }
}

pub(crate) fn dsyrk_lower(c: &mut [f64], a: &[f64], n: usize) {
    for i in 0..n {
        for j in 0..=i {
            let mut dot = 0.0;
            for k in 0..n {
                dot += a[i * n + k] * a[j * n + k];
            }
            c[i * n + j] -= dot;
        }
    }
}

pub(crate) fn dtrsm_right_lower_trans(l: &[f64], x: &mut [f64], n: usize) {
    for r in 0..n {
        let row = &mut x[r * n..(r + 1) * n];
        for j in 0..n {
            let mut v = row[j];
            for k in 0..j {
                v -= row[k] * l[j * n + k];
            }
            row[j] = v / l[j * n + j];
        }
    }
}

pub(crate) fn dpotrf(a: &mut [f64], n: usize) -> Result<(), String> {
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

pub(crate) fn dgetrf_nopiv(a: &mut [f64], n: usize) {
    for k in 0..n {
        let pivot = a[k * n + k];
        for i in k + 1..n {
            let lik = a[i * n + k] / pivot;
            a[i * n + k] = lik;
            for j in k + 1..n {
                a[i * n + j] -= lik * a[k * n + j];
            }
        }
    }
}

pub(crate) fn fwd_lower_unit(lu: &[f64], b: &mut [f64], n: usize) {
    for k in 0..n {
        for i in k + 1..n {
            let lik = lu[i * n + k];
            if lik == 0.0 {
                continue;
            }
            for j in 0..n {
                b[i * n + j] -= lik * b[k * n + j];
            }
        }
    }
}

pub(crate) fn bdiv_upper(lu: &[f64], b: &mut [f64], n: usize) {
    for i in 0..n {
        for j in 0..n {
            let mut v = b[i * n + j];
            for k in 0..j {
                v -= b[i * n + k] * lu[k * n + j];
            }
            b[i * n + j] = v / lu[j * n + j];
        }
    }
}

/// The 2-D noise with libm `floor` and a `match` over the gradients.
pub(crate) fn noise2(p: &Perlin, x: f64, y: f64) -> f64 {
    fn fade(t: f64) -> f64 {
        t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
    }
    fn lerp(a: f64, b: f64, t: f64) -> f64 {
        a + t * (b - a)
    }
    fn grad(hash: u8, x: f64, y: f64) -> f64 {
        match hash & 7 {
            0 => x + y,
            1 => x - y,
            2 => -x + y,
            3 => -x - y,
            4 => x,
            5 => -x,
            6 => y,
            _ => -y,
        }
    }
    let perm = &p.perm;
    let xi = x.floor();
    let yi = y.floor();
    let xf = x - xi;
    let yf = y - yi;
    let xi = (xi as i64 & 255) as usize;
    let yi = (yi as i64 & 255) as usize;
    let u = fade(xf);
    let v = fade(yf);
    let aa = perm[(perm[xi] as usize + yi) & 511];
    let ab = perm[(perm[xi] as usize + yi + 1) & 511];
    let ba = perm[(perm[(xi + 1) & 511] as usize + yi) & 511];
    let bb = perm[(perm[(xi + 1) & 511] as usize + yi + 1) & 511];
    let x1 = lerp(grad(aa, xf, yf), grad(ba, xf - 1.0, yf), u);
    let x2 = lerp(grad(ab, xf, yf - 1.0), grad(bb, xf - 1.0, yf - 1.0), u);
    lerp(x1, x2, v)
}

/// The per-pixel fractal sum over [`noise2`].
pub(crate) fn fbm2(p: &Perlin, mut x: f64, mut y: f64, octaves: u32) -> f64 {
    let mut sum = 0.0;
    let mut amp = 1.0;
    for _ in 0..octaves {
        sum += amp * noise2(p, x, y);
        x *= 2.0;
        y *= 2.0;
        amp *= 0.5;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perlin_noise::PerlinConfig;
    use crate::Scale;

    /// Tile sizes: every size up to two GEMM register blocks, primes
    /// just below and past a solve block (37 mixes full blocks with
    /// edges in both directions), and the benchmark tile.
    fn sizes() -> impl Iterator<Item = usize> {
        (1..=17).chain([31, 37, 64])
    }

    /// Deterministic values in `[-1, 1)`; with `zeros`, about 3 in 7
    /// entries are exact zeros of either sign.
    fn tile(n: usize, seed: u64, zeros: bool) -> Vec<f64> {
        (0..n * n)
            .map(|i| {
                let h = (i as u64 + 1)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(seed.wrapping_mul(0xbf58_476d_1ce4_e5b9));
                let z = (h ^ (h >> 31)).wrapping_mul(0xd6e8_feb8_6659_fd93);
                match (zeros, z % 7) {
                    (true, 0 | 1) => 0.0,
                    (true, 2) => -0.0,
                    _ => ((z >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0,
                }
            })
            .collect()
    }

    /// `tile` with a dominant diagonal of alternating sign (non-zero
    /// pivots for the solves and the LU).
    fn dominant(n: usize, seed: u64, zeros: bool) -> Vec<f64> {
        let mut m = tile(n, seed, zeros);
        for i in 0..n {
            m[i * n + i] = if i % 2 == 0 { 1.5 } else { -1.25 } * n as f64;
        }
        m
    }

    /// A symmetric positive definite tile: `dominant`'s lower triangle
    /// mirrored, with a positive diagonal.
    fn spd(n: usize, seed: u64, zeros: bool) -> Vec<f64> {
        let mut m = tile(n, seed, zeros);
        for i in 0..n {
            for j in 0..i {
                m[j * n + i] = m[i * n + j];
            }
            m[i * n + i] = 2.0 * n as f64;
        }
        m
    }

    /// Runs `reference` and `variant` on copies of `out` and asserts
    /// bitwise-equal tiles and equal return values.
    fn check<R: PartialEq + std::fmt::Debug>(
        what: &str,
        out: &[f64],
        reference: impl Fn(&mut [f64]) -> R,
        variant: impl Fn(&mut [f64]) -> R,
    ) {
        let mut want = out.to_vec();
        let want_ret = reference(&mut want);
        let mut got = out.to_vec();
        let got_ret = variant(&mut got);
        assert_eq!(got_ret, want_ret, "{what}: return value");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    /// Checks the baseline body (called directly, so it is exercised on
    /// AVX2 hosts too) and, when the CPU has AVX2, the AVX2 copy.
    macro_rules! assert_identical {
        ($what:expr, $out:expr, $reference:expr, $body:path, $avx2:path, |$c:ident| ($($arg:expr),*)) => {{
            let what = $what;
            check(&format!("{what} (baseline)"), $out, $reference, |$c: &mut [f64]| $body($($arg),*));
            #[cfg(target_arch = "x86_64")]
            if has_avx2() {
                check(&format!("{what} (avx2)"), $out, $reference, |$c: &mut [f64]| {
                    // SAFETY: the CPU supports AVX2 (checked above).
                    unsafe { $avx2($($arg),*) }
                });
            }
        }};
    }

    #[test]
    fn gemm_family_is_bit_identical() {
        for n in sizes() {
            for zeros in [false, true] {
                let (a, b, c) = (tile(n, 1, zeros), tile(n, 2, zeros), tile(n, 3, zeros));
                for alpha in [1.0, -1.0] {
                    let what = format!("n={n} zeros={zeros} alpha={alpha}");
                    assert_identical!(
                        format!("dgemm {what}"),
                        &c,
                        |c: &mut [f64]| dgemm(c, &a, &b, n, alpha),
                        blas::dgemm_body,
                        blas::dgemm_avx2,
                        |c| (c, &a, &b, n, alpha)
                    );
                    assert_identical!(
                        format!("dgemm_nt {what}"),
                        &c,
                        |c: &mut [f64]| dgemm_nt(c, &a, &b, n, alpha),
                        blas::dgemm_nt_body,
                        blas::dgemm_nt_avx2,
                        |c| (c, &a, &b, n, alpha)
                    );
                }
                assert_identical!(
                    format!("dsyrk_lower n={n} zeros={zeros}"),
                    &c,
                    |c: &mut [f64]| dsyrk_lower(c, &a, n),
                    blas::dsyrk_lower_body,
                    blas::dsyrk_lower_avx2,
                    |c| (c, &a, n)
                );
            }
        }
    }

    #[test]
    fn solves_are_bit_identical() {
        for n in sizes() {
            for zeros in [false, true] {
                let what = format!("n={n} zeros={zeros}");
                let (l, x) = (dominant(n, 4, zeros), tile(n, 5, zeros));
                assert_identical!(
                    format!("dtrsm_right_lower_trans {what}"),
                    &x,
                    |x: &mut [f64]| dtrsm_right_lower_trans(&l, x, n),
                    blas::dtrsm_right_lower_trans_body,
                    blas::dtrsm_right_lower_trans_avx2,
                    |x| (&l, x, n)
                );
                assert_identical!(
                    format!("fwd_lower_unit {what}"),
                    &x,
                    |x: &mut [f64]| fwd_lower_unit(&l, x, n),
                    factor::fwd_lower_unit_body,
                    factor::fwd_lower_unit_avx2,
                    |x| (&l, x, n)
                );
                assert_identical!(
                    format!("bdiv_upper {what}"),
                    &x,
                    |x: &mut [f64]| bdiv_upper(&l, x, n),
                    factor::bdiv_upper_body,
                    factor::bdiv_upper_avx2,
                    |x| (&l, x, n)
                );
            }
        }
    }

    #[test]
    fn factorizations_are_bit_identical() {
        for n in sizes() {
            for zeros in [false, true] {
                let what = format!("n={n} zeros={zeros}");
                assert_identical!(
                    format!("dgetrf_nopiv {what}"),
                    &dominant(n, 6, zeros),
                    |a: &mut [f64]| dgetrf_nopiv(a, n),
                    factor::dgetrf_nopiv_body,
                    factor::dgetrf_nopiv_avx2,
                    |a| (a, n)
                );
                assert_identical!(
                    format!("dpotrf {what}"),
                    &spd(n, 7, zeros),
                    |a: &mut [f64]| dpotrf(a, n),
                    factor::dpotrf_body,
                    factor::dpotrf_avx2,
                    |a| (a, n)
                );
            }
        }
        // The error path: an indefinite tile fails identically.
        assert_identical!(
            "dpotrf indefinite",
            &[1.0, 2.0, 2.0, 1.0],
            |a: &mut [f64]| dpotrf(a, 2),
            factor::dpotrf_body,
            factor::dpotrf_avx2,
            |a| (a, 2)
        );
    }

    /// [`Perlin::noise2`] compiled inside an AVX2 function.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn noise2_avx2(p: &Perlin, x: f64, y: f64) -> f64 {
        p.noise2(x, y)
    }

    fn assert_noise_identical(p: &Perlin, x: f64, y: f64) {
        let want = noise2(p, x, y).to_bits();
        assert_eq!(p.noise2(x, y).to_bits(), want, "noise2({x}, {y}) baseline");
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY: the CPU supports AVX2 (checked above).
            let got = unsafe { noise2_avx2(p, x, y) };
            assert_eq!(got.to_bits(), want, "noise2({x}, {y}) avx2");
        }
    }

    #[test]
    fn perlin_noise_is_bit_identical_at_edge_coordinates() {
        let p = Perlin::new(2016);
        let big = 4_503_599_627_370_496.0; // 2⁵²
        let mut coords = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            255.0,
            256.0,
            -256.0,
            1e-300,
            -1e-300,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            0.999_999_999_999_999_9,
            -0.999_999_999_999_999_9,
            big - 0.5,
            -(big - 0.5),
            big,
            -big,
            big + 2.0,
            -big * 3.0,
            1e18,
            -1e18,
            9.3e18, // beyond i64: the saturating cast
            -9.3e18,
            f64::MAX,
            f64::MIN,
        ];
        // Negative coordinates, lattice points and fractions.
        coords.extend((-40..40).map(|i| i as f64 * 0.37));
        coords.extend((-8..8).map(f64::from));
        for &x in &coords {
            for &y in &coords {
                assert_noise_identical(&p, x, y);
            }
        }
    }

    #[test]
    fn perlin_fill_is_bit_identical_over_the_medium_domain() {
        // Every pixel of every frame of the Medium render, through the
        // same coordinate mapping as the workload.
        let cfg = PerlinConfig::at(Scale::Medium);
        let p = Perlin::new(2016);
        let width = cfg.width();
        let inv = 8.0 / width as f64;
        let mut got = vec![0.0; cfg.pixels];
        for frame in 0..cfg.frames {
            let (fx, fy) = (frame as f64 * 0.17, frame as f64 * 0.13);
            let coord = |px: usize| {
                (
                    (px % width) as f64 * inv + fx,
                    (px / width) as f64 * inv + fy,
                )
            };
            let want: Vec<u64> = (0..cfg.pixels)
                .map(|px| {
                    let (x, y) = coord(px);
                    fbm2(&p, x, y, cfg.octaves).to_bits()
                })
                .collect();
            let assert_frame = |got: &[f64], what: &str| {
                for (px, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), *w, "frame {frame} pixel {px} ({what})");
                }
            };
            p.fbm2_fill_body(&mut got, cfg.octaves, coord);
            assert_frame(&got, "baseline");
            #[cfg(target_arch = "x86_64")]
            if has_avx2() {
                // SAFETY: the CPU supports AVX2 (checked above).
                unsafe { p.fbm2_fill_avx2(&mut got, cfg.octaves, coord) };
                assert_frame(&got, "avx2");
            }
        }
    }
}

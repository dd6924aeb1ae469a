//! 2-D Perlin gradient noise (Ken Perlin's improved noise, 2002),
//! backing the Perlin Noise benchmark ("noise generation to improve
//! realism in motion pictures", Table I).

/// A Perlin noise generator with a seeded permutation table.
#[derive(Debug, Clone)]
pub struct Perlin {
    pub(super) perm: [u8; 512],
}

impl Perlin {
    /// Builds the generator; `seed` shuffles the permutation table
    /// (Fisher–Yates with a SplitMix64 stream).
    pub fn new(seed: u64) -> Self {
        let mut table: [u8; 256] = core::array::from_fn(|i| i as u8);
        let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in (1..256usize).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            table.swap(i, j);
        }
        let mut perm = [0u8; 512];
        for i in 0..512 {
            perm[i] = table[i % 256];
        }
        Perlin { perm }
    }

    #[inline(always)]
    fn fade(t: f64) -> f64 {
        t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
    }

    #[inline(always)]
    fn lerp(a: f64, b: f64, t: f64) -> f64 {
        a + t * (b - a)
    }

    /// `(x.floor(), x.floor() as i64 & 255)` without a libm call
    /// (baseline x86-64 has no rounding instruction). Below 2⁵²
    /// truncation through `i64` is exact, and a truncation above `x`
    /// steps down by one; from 2⁵² up every `f64` is an integer (and
    /// ±∞/NaN floor to themselves). The sign copy keeps
    /// `floor(−0.0) = −0.0`; it changes no other result, which always
    /// has the sign of `x`.
    #[inline(always)]
    fn floor_cell(x: f64) -> (f64, usize) {
        const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
        if x.abs() < TWO_POW_52 {
            // SAFETY: |x| < 2⁵², so the truncation fits an `i64`. (The
            // saturating `as` cast cost about 10 % of a Perlin block.)
            let t = unsafe { x.to_int_unchecked::<i64>() };
            let below = t as f64 > x;
            // `t − 0.0` is `t`, and `t − 1.0` is exact below 2⁵².
            let floor = (t as f64 - f64::from(u8::from(below))).copysign(x);
            (floor, ((t - i64::from(below)) & 255) as usize)
        } else {
            (x, (x as i64 & 255) as usize)
        }
    }

    /// One of 8 gradient directions, picked by `hash & 7`, dotted with
    /// `(x, y)`: `x + y`, `x − y`, `−x + y`, `−x − y`, `x`, `−x`, `y`,
    /// `−y`.
    ///
    /// Branch-free through [`GRAD`]: each term is `x` or `y` with its
    /// sign bit flipped (exact negation) or, for a missing term,
    /// `−0.0` — the one additive identity for every `f64`, so
    /// `x + (−0.0)` is `x` bit for bit, signed zeros included (a `0·y`
    /// coefficient would turn a `−0.0` result into `+0.0`).
    #[inline(always)]
    fn grad(hash: u8, x: f64, y: f64) -> f64 {
        #[inline(always)]
        fn term(v: f64, flip: u64, keep: u64) -> f64 {
            f64::from_bits(((v.to_bits() ^ flip) & keep) | (!keep & SIGN))
        }
        let [x_flip, x_keep, y_flip, y_keep] = GRAD[usize::from(hash & 7)];
        term(x, x_flip, x_keep) + term(y, y_flip, y_keep)
    }

    /// Noise value at `(x, y)`, in `[-√2/2·2, √2·…]` ≈ `[-1.5, 1.5]`
    /// (classic Perlin range for 2-D with these gradients; zero at
    /// integer lattice points).
    #[inline(always)]
    pub fn noise2(&self, x: f64, y: f64) -> f64 {
        let (x0, xi) = Self::floor_cell(x);
        let (y0, yi) = Self::floor_cell(y);
        let xf = x - x0;
        let yf = y - y0;
        let u = Self::fade(xf);
        let v = Self::fade(yf);
        let aa = self.perm[(self.perm[xi] as usize + yi) & 511];
        let ab = self.perm[(self.perm[xi] as usize + yi + 1) & 511];
        let ba = self.perm[(self.perm[(xi + 1) & 511] as usize + yi) & 511];
        let bb = self.perm[(self.perm[(xi + 1) & 511] as usize + yi + 1) & 511];
        let x1 = Self::lerp(Self::grad(aa, xf, yf), Self::grad(ba, xf - 1.0, yf), u);
        let x2 = Self::lerp(
            Self::grad(ab, xf, yf - 1.0),
            Self::grad(bb, xf - 1.0, yf - 1.0),
            u,
        );
        Self::lerp(x1, x2, v)
    }

    /// Fractal Brownian motion: `octaves` layers of noise at doubling
    /// frequency and halving amplitude — what the benchmark evaluates
    /// per pixel.
    #[inline(always)]
    pub fn fbm2(&self, mut x: f64, mut y: f64, octaves: u32) -> f64 {
        let mut sum = 0.0;
        let mut amp = 1.0;
        for _ in 0..octaves {
            sum += amp * self.noise2(x, y);
            x *= 2.0;
            y *= 2.0;
            amp *= 0.5;
        }
        sum
    }

    /// Fills `out[k] = fbm2(x, y, octaves)` with `(x, y) = coord(k)` —
    /// a block of pixels. Picks the AVX2 instantiation once per block
    /// when the CPU has it; both are bit-identical to
    /// calling [`Perlin::fbm2`] per pixel.
    pub fn fbm2_fill(&self, out: &mut [f64], octaves: u32, coord: impl Fn(usize) -> (f64, f64)) {
        #[cfg(target_arch = "x86_64")]
        if super::dispatch::has_avx2() {
            // SAFETY: the running CPU supports AVX2 (checked above).
            return unsafe { self.fbm2_fill_avx2(out, octaves, coord) };
        }
        self.fbm2_fill_body(out, octaves, coord)
    }

    /// AVX2 instantiation of `fbm2_fill_body`.
    ///
    /// # Safety
    ///
    /// The running CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn fbm2_fill_avx2(
        &self,
        out: &mut [f64],
        octaves: u32,
        coord: impl Fn(usize) -> (f64, f64),
    ) {
        self.fbm2_fill_body(out, octaves, coord)
    }

    #[inline(always)]
    pub(crate) fn fbm2_fill_body(
        &self,
        out: &mut [f64],
        octaves: u32,
        coord: impl Fn(usize) -> (f64, f64),
    ) {
        for (k, v) in out.iter_mut().enumerate() {
            let (x, y) = coord(k);
            *v = self.fbm2(x, y, octaves);
        }
    }
}

/// The sign bit of an `f64`.
const SIGN: u64 = 1 << 63;

/// [`Perlin::grad`]'s terms per `hash & 7`, as bit masks:
/// `[x_flip, x_keep, y_flip, y_keep]`. A flip of [`SIGN`] negates the
/// term; a keep of `0` replaces it by `−0.0`.
const GRAD: [[u64; 4]; 8] = [
    [0, !0, 0, !0],       // x + y
    [0, !0, SIGN, !0],    // x − y
    [SIGN, !0, 0, !0],    // −x + y
    [SIGN, !0, SIGN, !0], // −x − y
    [0, !0, 0, 0],        // x
    [SIGN, !0, 0, 0],     // −x
    [0, 0, 0, !0],        // y
    [0, 0, SIGN, !0],     // −y
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_cell_matches_libm_floor() {
        let big = 4_503_599_627_370_496.0; // 2⁵²
        let mut xs = vec![
            0.0,
            -0.0,
            1e-310,
            -1e-310,
            0.5,
            -0.5,
            1.0 - f64::EPSILON / 2.0,
            -(1.0 - f64::EPSILON / 2.0),
            big - 0.5,
            -(big - 0.5),
            big,
            -big,
            big + 1.0,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        xs.extend((-600..600).map(|i| i as f64 * 0.25 + 0.125));
        xs.extend((-600..600).map(f64::from));
        for x in xs {
            let want = x.floor();
            let (got, cell) = Perlin::floor_cell(x);
            assert_eq!(got.to_bits(), want.to_bits(), "floor({x})");
            assert_eq!(cell, (want as i64 & 255) as usize, "cell({x})");
        }
        let (nan, cell) = Perlin::floor_cell(f64::NAN);
        assert!(nan.is_nan());
        assert_eq!(cell, 0);
    }

    #[test]
    fn zero_at_lattice_points() {
        let p = Perlin::new(42);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(p.noise2(i as f64, j as f64), 0.0);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Perlin::new(7);
        let b = Perlin::new(7);
        let c = Perlin::new(8);
        let (x, y) = (3.7, 1.2);
        assert_eq!(a.noise2(x, y), b.noise2(x, y));
        assert_ne!(a.noise2(x, y), c.noise2(x, y));
    }

    #[test]
    fn bounded_values() {
        let p = Perlin::new(99);
        for i in 0..2000 {
            let x = i as f64 * 0.137;
            let y = i as f64 * 0.211;
            let v = p.noise2(x, y);
            assert!(v.abs() <= 2.0, "noise out of range: {v}");
            let f = p.fbm2(x, y, 4);
            assert!(f.abs() <= 4.0, "fbm out of range: {f}");
        }
    }

    #[test]
    fn continuity() {
        // Perlin noise is C¹; check small steps give small deltas.
        let p = Perlin::new(1);
        let mut prev = p.noise2(0.5, 0.5);
        for k in 1..1000 {
            let v = p.noise2(0.5 + k as f64 * 1e-4, 0.5);
            assert!((v - prev).abs() < 1e-2);
            prev = v;
        }
    }

    #[test]
    fn not_identically_zero() {
        let p = Perlin::new(3);
        let sum: f64 = (0..100)
            .map(|i| {
                p.noise2(i as f64 * 0.37 + 0.13, i as f64 * 0.21 + 0.7)
                    .abs()
            })
            .sum();
        assert!(sum > 1.0);
    }
}

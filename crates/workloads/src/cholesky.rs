//! Blocked right-looking Cholesky factorization (Table I: 16384×16384
//! doubles, 512×512 blocks) — the classic POTRF/TRSM/SYRK/GEMM task
//! decomposition whose diamond-shaped dependency structure dataflow
//! runtimes exploit.

use dataflow_rt::{DataArena, TaskGraph, TaskSpec};

use crate::kernels::{dgemm_nt, dpotrf, dsyrk_lower, dtrsm_right_lower_trans};
use crate::matmul::tile;
use crate::{
    check_close, check_residual, no_verify, probe_vector, tiled_row, BuiltWorkload, Scale,
    Workload, WorkloadKind,
};

/// Cholesky parameters.
#[derive(Debug, Clone, Copy)]
pub struct CholeskyConfig {
    /// Matrix dimension.
    pub n: usize,
    /// Tile dimension.
    pub block: usize,
}

impl CholeskyConfig {
    /// Configuration for a scale preset.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Small => CholeskyConfig { n: 96, block: 24 },
            Scale::Medium => CholeskyConfig { n: 512, block: 64 },
            // Table I: 16384×16384, block 512×512.
            Scale::Paper => CholeskyConfig {
                n: 16384,
                block: 512,
            },
            // 184 tiles per dimension: 184 + 2·C(184,2) + C(184,3)
            // = 1,055,240 tasks.
            Scale::Huge => CholeskyConfig {
                n: 11776,
                block: 64,
            },
        }
    }

    /// Tasks the configuration generates
    /// (`nt` potrf + `C(nt,2)` trsm + `C(nt,2)` syrk + `C(nt,3)` gemm).
    pub fn task_count(&self) -> usize {
        let nt = self.nt();
        // Saturating: a single-tile factorization (nt = 1) is just its
        // potrf, and nt = 0 (block > n) generates nothing.
        nt + nt * nt.saturating_sub(1) + nt * nt.saturating_sub(1) * nt.saturating_sub(2) / 6
    }

    /// Tiles per dimension.
    pub fn nt(&self) -> usize {
        self.n / self.block
    }
}

/// Symmetric, diagonally dominant (hence SPD) test value for `(r, c)`
/// of an `n×n` matrix.
fn spd_elem(n: usize, r: usize, c: usize) -> f64 {
    if r == c {
        return n as f64;
    }
    let (lo, hi) = if r < c { (r, c) } else { (c, r) };
    let h = (lo as u64 + 1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((hi as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    let z = (h ^ (h >> 31)).wrapping_mul(0xd6e8_feb8_6659_fd93);
    (((z >> 11) as f64 / (1u64 << 53) as f64) - 0.5) * 0.9
}

/// Reference: naive dense Cholesky of the original matrix, compared on
/// the lower triangle.
fn dense_check(got: &[f64], cfg: CholeskyConfig) -> Result<(), String> {
    let (n, nt, b) = (cfg.n, cfg.nt(), cfg.block);
    let mut dense = vec![0.0; n * n];
    for r in 0..n {
        for c in 0..n {
            dense[r * n + c] = spd_elem(n, r, c);
        }
    }
    crate::kernels::factor::dpotrf(&mut dense, n).map_err(|e| e.to_string())?;
    let mut row = vec![0.0; n];
    let mut lower_got = Vec::new();
    let mut lower_want = Vec::new();
    for r in 0..n {
        tiled_row(got, nt, b, r, &mut row);
        lower_got.extend_from_slice(&row[..=r]);
        lower_want.extend_from_slice(&dense[r * n..=r * n + r]);
    }
    check_close(&lower_got, &lower_want, 1e-8, "cholesky L")
}

/// Residual check of the factor in the lower triangle: `L·(Lᵀ·x)`
/// against `A·x` for a fixed probe `x`, with `A` regenerated from
/// [`spd_elem`]. The tiles above the diagonal still hold `A` and are
/// not read. O(n²) time, O(n) extra memory, any scale.
///
/// Tolerance, per row: blocked Cholesky computes every entry of `L·Lᵀ`
/// as the same inner product as the point algorithm, in another order,
/// so `L̂·L̂ᵀ = A + ΔA` with `|ΔA| ≤ γ_{n+1}·|L̂||L̂ᵀ|` (Higham,
/// Thm. 10.3). The two products add `γ_{2n}·|L̂||L̂ᵀ||x|` and `fl(A·x)`
/// adds `γ_n·|A||x|`: `|fl(L̂·fl(L̂ᵀ·x)) − fl(A·x)| ≤
/// γ_{3n+1}·|L̂||L̂ᵀ||x| + γ_n·|A||x|`. The factor 2 covers second-order
/// terms and the rounding of the bound vectors. A backward-error bound:
/// the conditioning of `A` does not enter.
fn residual_check(factor: &[f64], cfg: CholeskyConfig) -> Result<(), String> {
    let (n, nt, b) = (cfg.n, cfg.nt(), cfg.block);
    let x = probe_vector(n, 0x4348_4f4c);
    let mut row = vec![0.0; n];
    // v = Lᵀ·x and |Lᵀ|·|x|, accumulated row by row of L.
    let (mut v, mut v_abs) = (vec![0.0; n], vec![0.0; n]);
    for (r, xr) in x.iter().enumerate() {
        tiled_row(factor, nt, b, r, &mut row);
        for c in 0..=r {
            v[c] += row[c] * xr;
            v_abs[c] += row[c].abs() * xr.abs();
        }
    }
    // w = L·v, A·x and the bound.
    let (mut w, mut ax, mut bound) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let (g3n, gn) = (crate::gamma(3 * n + 1), crate::gamma(n));
    for r in 0..n {
        tiled_row(factor, nt, b, r, &mut row);
        let (mut wr, mut wa) = (0.0, 0.0);
        for c in 0..=r {
            wr += row[c] * v[c];
            wa += row[c].abs() * v_abs[c];
        }
        let (mut ar, mut aa) = (0.0, 0.0);
        for (c, xc) in x.iter().enumerate() {
            let e = spd_elem(n, r, c);
            ar += e * xc;
            aa += e.abs() * xc.abs();
        }
        w[r] = wr;
        ax[r] = ar;
        bound[r] = 2.0 * (g3n * wa + gn * aa);
    }
    check_residual(&w, &ax, &bound, "cholesky L·Lᵀ·x vs A·x")
}

/// The Cholesky benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cholesky;

impl Workload for Cholesky {
    fn name(&self) -> &'static str {
        "Cholesky"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::SharedMemory
    }

    fn paper_config(&self) -> &'static str {
        "Matrix size 16384x16384 doubles and block size 512x512"
    }

    fn build(&self, scale: Scale, _nodes: usize, materialize: bool) -> BuiltWorkload {
        let cfg = CholeskyConfig::at(scale);
        let (nt, b) = (cfg.nt(), cfg.block);
        let len = cfg.n * cfg.n;
        let mut arena = DataArena::new();
        let a = if materialize {
            let a = arena.alloc("A", len);
            let data = arena.write(a);
            for ti in 0..nt {
                for tj in 0..nt {
                    let base = (ti * nt + tj) * b * b;
                    for r in 0..b {
                        for c in 0..b {
                            data[base + r * b + c] = spd_elem(cfg.n, ti * b + r, tj * b + c);
                        }
                    }
                }
            }
            a
        } else {
            arena.alloc_virtual("A", len)
        };

        let mut graph = TaskGraph::with_chunk_size(b * b);
        let fl_potrf = (b as f64).powi(3) / 3.0;
        let fl_trsm = (b as f64).powi(3);
        let fl_syrk = (b as f64).powi(3);
        let fl_gemm = 2.0 * (b as f64).powi(3);
        for k in 0..nt {
            let bsz = b;
            graph.submit(
                TaskSpec::new("potrf")
                    .updates(tile(a, nt, b, k, k))
                    .flops(fl_potrf)
                    .kernel(move |ctx| {
                        let mut t = ctx.w(0);
                        dpotrf(t.as_mut_slice(), bsz).expect("SPD input");
                    }),
            );
            for i in k + 1..nt {
                graph.submit(
                    TaskSpec::new("trsm")
                        .reads(tile(a, nt, b, k, k))
                        .updates(tile(a, nt, b, i, k))
                        .flops(fl_trsm)
                        .kernel(move |ctx| {
                            let l = ctx.r(0);
                            let mut x = ctx.w(1);
                            dtrsm_right_lower_trans(l.as_slice(), x.as_mut_slice(), bsz);
                        }),
                );
            }
            for i in k + 1..nt {
                graph.submit(
                    TaskSpec::new("syrk")
                        .reads(tile(a, nt, b, i, k))
                        .updates(tile(a, nt, b, i, i))
                        .flops(fl_syrk)
                        .kernel(move |ctx| {
                            let aik = ctx.r(0);
                            let mut aii = ctx.w(1);
                            dsyrk_lower(aii.as_mut_slice(), aik.as_slice(), bsz);
                        }),
                );
                for j in k + 1..i {
                    graph.submit(
                        TaskSpec::new("gemm")
                            .reads(tile(a, nt, b, i, k))
                            .reads(tile(a, nt, b, j, k))
                            .updates(tile(a, nt, b, i, j))
                            .flops(fl_gemm)
                            .kernel(move |ctx| {
                                let aik = ctx.r(0);
                                let ajk = ctx.r(1);
                                let mut aij = ctx.w(2);
                                dgemm_nt(
                                    aij.as_mut_slice(),
                                    aik.as_slice(),
                                    ajk.as_slice(),
                                    bsz,
                                    -1.0,
                                );
                            }),
                    );
                }
            }
        }

        let placement = vec![0; graph.len()];
        let verify: crate::Verifier = if !materialize {
            no_verify()
        } else {
            let dense = scale == Scale::Small;
            Box::new(move |arena: &mut DataArena| {
                if dense {
                    dense_check(arena.read(a), cfg)?;
                }
                residual_check(arena.read(a), cfg)
            })
        };

        BuiltWorkload {
            arena,
            graph,
            placement,
            verify,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow_rt::Executor;

    #[test]
    fn residual_check_catches_a_perturbed_factor() {
        let mut built = Cholesky.build(Scale::Small, 1, true);
        Executor::new(2).run(&built.graph, &mut built.arena);
        let cfg = CholeskyConfig::at(Scale::Small);
        let a = dataflow_rt::BufferId::from_raw(0);
        residual_check(built.arena.read(a), cfg).expect("the computed factor passes");
        let mut factor = built.arena.read(a).to_vec();
        factor[7 * 24 + 2] *= 1.0 + 1e-9;
        assert!(residual_check(&factor, cfg).is_err());
    }

    #[test]
    fn small_cholesky_verifies_sequential() {
        let built = Cholesky.build(Scale::Small, 1, true);
        let BuiltWorkload {
            mut arena,
            graph,
            verify,
            ..
        } = built;
        Executor::sequential().run(&graph, &mut arena);
        verify(&mut arena).expect("cholesky results");
    }

    #[test]
    fn small_cholesky_verifies_parallel() {
        let built = Cholesky.build(Scale::Small, 1, true);
        let BuiltWorkload {
            mut arena,
            graph,
            verify,
            ..
        } = built;
        Executor::new(4).run(&graph, &mut arena);
        verify(&mut arena).expect("cholesky results");
    }

    #[test]
    fn task_count_formula() {
        let built = Cholesky.build(Scale::Small, 1, true);
        let nt = CholeskyConfig::at(Scale::Small).nt();
        // nt potrf + nt(nt−1)/2 trsm + nt(nt−1)/2 syrk + Σ C(m,2) gemm.
        let trsm = nt * (nt - 1) / 2;
        let gemm: usize = (0..nt)
            .map(|k| {
                let m = nt - k - 1;
                m * m.saturating_sub(1) / 2
            })
            .sum();
        assert_eq!(built.graph.len(), nt + 2 * trsm + gemm);
    }

    #[test]
    fn paper_scale_structure_is_buildable() {
        let built = Cholesky.build(Scale::Paper, 1, false);
        let nt = CholeskyConfig::at(Scale::Paper).nt();
        assert_eq!(nt, 32);
        assert!(built.graph.len() > 5000);
        assert!(built.arena.has_virtual_buffers());
    }

    #[test]
    fn dependency_chain_potrf_trsm() {
        // The first trsm must depend on the first potrf.
        let built = Cholesky.build(Scale::Small, 1, true);
        let g = &built.graph;
        let potrf0 = dataflow_rt::TaskId::from_raw(0);
        let trsm0 = dataflow_rt::TaskId::from_raw(1);
        assert_eq!(g.task(potrf0).label, "potrf");
        assert_eq!(g.task(trsm0).label, "trsm");
        assert!(g.predecessors(trsm0).contains(&potrf0));
    }
}

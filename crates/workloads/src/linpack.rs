//! Linpack/HPL (Table I: 131072 doubles, block 256, 8×8 process grid):
//! dense blocked LU factorization with 2-D block-cyclic placement over
//! the node grid, followed by a host-side solve + residual check.
//!
//! Two documented simplifications versus HPL proper (DESIGN.md):
//! pivoting is omitted (inputs are diagonally dominant, for which
//! unpivoted LU is backward stable — the same choice the SparseLU
//! benchmark makes), and the Paper-scale block size is 2048 rather than
//! 256 (a 512-tile factorization would emit 44 M tasks; 64 tiles keep
//! the graph buildable while preserving the 8×8-grid communication
//! pattern).

use dataflow_rt::{DataArena, TaskGraph, TaskSpec};

use crate::kernels::{bdiv_upper, dgemm, dgetrf_nopiv, fwd_lower_unit};
use crate::matmul::tile;
use crate::{gamma, no_verify, tiled_row, BuiltWorkload, Scale, Workload, WorkloadKind};

/// Linpack parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinpackConfig {
    /// Matrix dimension.
    pub n: usize,
    /// Tile dimension.
    pub block: usize,
    /// Process-grid rows (grid is `pr × pr`).
    pub grid: usize,
}

impl LinpackConfig {
    /// Configuration for a scale preset.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Small => LinpackConfig {
                n: 96,
                block: 16,
                grid: 2,
            },
            Scale::Medium => LinpackConfig {
                n: 1024,
                block: 64,
                grid: 4,
            },
            // Table I: N = 131072, 8×8 grid; tile size raised to 2048
            // (see module docs).
            Scale::Paper => LinpackConfig {
                n: 131072,
                block: 2048,
                grid: 8,
            },
            // 147 tiles per dimension: Σ (m+1)² = 1,069,670 tasks.
            Scale::Huge => LinpackConfig {
                n: 9408,
                block: 64,
                grid: 8,
            },
        }
    }

    /// Tasks the configuration generates
    /// (per elimination step `k`: `1 + 2m + m²` with `m = nt − k − 1`).
    pub fn task_count(&self) -> usize {
        let nt = self.nt();
        (0..nt)
            .map(|k| {
                let m = nt - k - 1;
                1 + 2 * m + m * m
            })
            .sum()
    }

    /// Tiles per dimension.
    pub fn nt(&self) -> usize {
        self.n / self.block
    }
}

/// Diagonally dominant dense test element.
fn hpl_elem(n: usize, r: usize, c: usize) -> f64 {
    if r == c {
        return 2.0 * n as f64;
    }
    let h = (r as u64 + 3)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((c as u64 + 7).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    let z = (h ^ (h >> 31)).wrapping_mul(0xd6e8_feb8_6659_fd93);
    ((z >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

/// HPL-style check: solve `A·x = b` for `b = A·1` with the computed
/// factors; the solution must be `1` within a forward-error bound.
/// `A` is regenerated from [`hpl_elem`]; the factors are read in place.
/// O(n²) time, O(n) extra memory, any scale.
///
/// Tolerance: LU plus the two triangular solves give `x̂` with
/// `(A + ΔA)·x̂ = b̂`, `|ΔA| ≤ γ_{3n}·|L̂||Û|` (Higham, Thm. 9.4), and
/// `b̂ = fl(A·1)` errs by at most `γ_n·|A|·1`. So
/// `‖x̂ − 1‖∞ ≤ ‖A⁻¹‖∞·(γ_n·‖A‖∞ + γ_{3n}·‖|L̂||Û|‖∞·‖x̂‖∞)`, and
/// since `A` is strictly diagonally dominant by rows,
/// `‖A⁻¹‖∞ ≤ 1/δ` with `δ = min_r (|a_rr| − Σ_{c≠r} |a_rc|)` (Varah,
/// 1975) — the conditioning enters through `δ`. Every norm is computed
/// here; the factor 2 covers second-order terms and their rounding.
fn hpl_check(factors: &[f64], cfg: LinpackConfig) -> Result<(), String> {
    let (n, nt, b) = (cfg.n, cfg.nt(), cfg.block);
    // b = A·1, ‖A‖∞ and the dominance margin δ.
    let mut rhs = vec![0.0; n];
    let (mut norm_a, mut delta) = (0.0f64, f64::INFINITY);
    for (r, rv) in rhs.iter_mut().enumerate() {
        let mut off = 0.0;
        for c in 0..n {
            let e = hpl_elem(n, r, c);
            *rv += e;
            if c != r {
                off += e.abs();
            }
        }
        let diag = hpl_elem(n, r, r).abs();
        norm_a = norm_a.max(diag + off);
        delta = delta.min(diag - off);
    }
    if delta <= 0.0 {
        return Err(format!(
            "linpack: A is not diagonally dominant (δ = {delta})"
        ));
    }
    let mut row = vec![0.0; n];
    // Forward solve L·y = b (unit lower) and ‖|L̂||Û|‖∞ via |U|·1.
    let mut y = rhs;
    let mut u_abs = vec![0.0; n];
    for r in 0..n {
        tiled_row(factors, nt, b, r, &mut row);
        for c in 0..r {
            y[r] -= row[c] * y[c];
        }
        u_abs[r] = row[r..].iter().map(|v| v.abs()).sum();
    }
    let mut norm_lu = 0.0f64;
    for r in 0..n {
        tiled_row(factors, nt, b, r, &mut row);
        let lu: f64 = u_abs[r] + (0..r).map(|c| row[c].abs() * u_abs[c]).sum::<f64>();
        norm_lu = norm_lu.max(lu);
    }
    // Back solve U·x = y.
    let mut x = y;
    for r in (0..n).rev() {
        tiled_row(factors, nt, b, r, &mut row);
        for c in r + 1..n {
            x[r] -= row[c] * x[c];
        }
        x[r] /= row[r];
    }
    let norm_x = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let tol = 2.0 * (gamma(n) * norm_a + gamma(3 * n) * norm_lu * norm_x) / delta;
    for (i, xi) in x.iter().enumerate() {
        let err = (xi - 1.0).abs();
        if err > tol || err.is_nan() {
            return Err(format!("linpack x[{i}] = {xi}, want 1.0 within {tol:e}"));
        }
    }
    Ok(())
}

/// The Linpack benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct Linpack;

impl Workload for Linpack {
    fn name(&self) -> &'static str {
        "Linpack"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Distributed
    }

    fn paper_config(&self) -> &'static str {
        "Matrix size 131072 doubles, block size 256, 8x8 grid"
    }

    fn build(&self, scale: Scale, nodes: usize, materialize: bool) -> BuiltWorkload {
        let cfg = LinpackConfig::at(scale);
        let (nt, b) = (cfg.nt(), cfg.block);
        let len = cfg.n * cfg.n;
        // 2-D block-cyclic owner, folded onto the available nodes.
        let nodes = nodes.max(1);
        let grid = cfg.grid;
        let owner = move |i: usize, j: usize| (((i % grid) * grid + (j % grid)) % nodes) as u32;

        let mut arena = DataArena::new();
        let a = if materialize {
            let a = arena.alloc("A", len);
            let data = arena.write(a);
            for ti in 0..nt {
                for tj in 0..nt {
                    let base = (ti * nt + tj) * b * b;
                    for r in 0..b {
                        for c in 0..b {
                            data[base + r * b + c] = hpl_elem(cfg.n, ti * b + r, tj * b + c);
                        }
                    }
                }
            }
            a
        } else {
            arena.alloc_virtual("A", len)
        };

        let mut graph = TaskGraph::with_chunk_size(b * b);
        let mut placement = Vec::new();
        let fl_lu0 = 2.0 / 3.0 * (b as f64).powi(3);
        let fl_tri = (b as f64).powi(3);
        let fl_gemm = 2.0 * (b as f64).powi(3);
        for k in 0..nt {
            let bsz = b;
            graph.submit(
                TaskSpec::new("getrf")
                    .updates(tile(a, nt, b, k, k))
                    .flops(fl_lu0)
                    .kernel(move |ctx| {
                        let mut t = ctx.w(0);
                        dgetrf_nopiv(t.as_mut_slice(), bsz);
                    }),
            );
            placement.push(owner(k, k));
            for j in k + 1..nt {
                graph.submit(
                    TaskSpec::new("trsm_l")
                        .reads(tile(a, nt, b, k, k))
                        .updates(tile(a, nt, b, k, j))
                        .flops(fl_tri)
                        .kernel(move |ctx| {
                            let lu = ctx.r(0);
                            let mut blk = ctx.w(1);
                            fwd_lower_unit(lu.as_slice(), blk.as_mut_slice(), bsz);
                        }),
                );
                placement.push(owner(k, j));
            }
            for i in k + 1..nt {
                graph.submit(
                    TaskSpec::new("trsm_u")
                        .reads(tile(a, nt, b, k, k))
                        .updates(tile(a, nt, b, i, k))
                        .flops(fl_tri)
                        .kernel(move |ctx| {
                            let lu = ctx.r(0);
                            let mut blk = ctx.w(1);
                            bdiv_upper(lu.as_slice(), blk.as_mut_slice(), bsz);
                        }),
                );
                placement.push(owner(i, k));
            }
            for i in k + 1..nt {
                for j in k + 1..nt {
                    graph.submit(
                        TaskSpec::new("gemm")
                            .reads(tile(a, nt, b, i, k))
                            .reads(tile(a, nt, b, k, j))
                            .updates(tile(a, nt, b, i, j))
                            .flops(fl_gemm)
                            .kernel(move |ctx| {
                                let aik = ctx.r(0);
                                let akj = ctx.r(1);
                                let mut aij = ctx.w(2);
                                dgemm(
                                    aij.as_mut_slice(),
                                    aik.as_slice(),
                                    akj.as_slice(),
                                    bsz,
                                    -1.0,
                                );
                            }),
                    );
                    placement.push(owner(i, j));
                }
            }
        }

        let verify: crate::Verifier = if materialize {
            Box::new(move |arena: &mut DataArena| hpl_check(arena.read(a), cfg))
        } else {
            no_verify()
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
    fn small_linpack_verifies_sequential() {
        let built = Linpack.build(Scale::Small, 1, true);
        let BuiltWorkload {
            mut arena,
            graph,
            verify,
            ..
        } = built;
        Executor::sequential().run(&graph, &mut arena);
        verify(&mut arena).expect("linpack solve");
    }

    #[test]
    fn hpl_check_catches_a_perturbed_factor() {
        let mut built = Linpack.build(Scale::Small, 1, true);
        Executor::new(2).run(&built.graph, &mut built.arena);
        let cfg = LinpackConfig::at(Scale::Small);
        let a = dataflow_rt::BufferId::from_raw(0);
        hpl_check(built.arena.read(a), cfg).expect("the computed factors pass");
        let mut factors = built.arena.read(a).to_vec();
        factors[9 * 16 + 4] *= 1.0 + 1e-6;
        assert!(hpl_check(&factors, cfg).is_err());
    }

    #[test]
    fn small_linpack_verifies_parallel() {
        let built = Linpack.build(Scale::Small, 4, true);
        let BuiltWorkload {
            mut arena,
            graph,
            verify,
            ..
        } = built;
        Executor::new(4).run(&graph, &mut arena);
        verify(&mut arena).expect("linpack solve");
    }

    #[test]
    fn dense_task_count() {
        let built = Linpack.build(Scale::Small, 1, false);
        let nt = LinpackConfig::at(Scale::Small).nt();
        let want: usize = (0..nt)
            .map(|k| {
                let m = nt - k - 1;
                1 + 2 * m + m * m
            })
            .sum();
        assert_eq!(built.graph.len(), want);
    }

    #[test]
    fn block_cyclic_placement() {
        let built = Linpack.build(Scale::Small, 4, false);
        // 2×2 grid folded onto 4 nodes: getrf(0) at (0,0) → node 0;
        // getrf(1) at (1,1) → node 3.
        assert_eq!(built.placement[0], 0);
        let mut seen = [false; 4];
        for &p in &built.placement {
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all grid nodes used");
    }

    #[test]
    fn paper_scale_structure_is_buildable() {
        let built = Linpack.build(Scale::Paper, 64, false);
        let nt = LinpackConfig::at(Scale::Paper).nt();
        assert_eq!(nt, 64);
        assert!(built.graph.len() > 80_000, "{}", built.graph.len());
        assert!(built.arena.has_virtual_buffers());
    }
}

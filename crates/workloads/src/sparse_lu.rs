//! SparseLU: blocked LU decomposition of a block-sparse matrix
//! (Table I: 12800×12800 doubles, 200×200 blocks) — the BSC application
//! repository's flagship irregular task workload. Only *present* blocks
//! generate work; `bmod` updates create block fill-in, tracked
//! statically at graph construction exactly as the runtime would
//! discover it dynamically.
//!
//! LU is unpivoted (as in the original benchmark); inputs are made
//! diagonally dominant, for which unpivoted LU is backward stable.

use dataflow_rt::{DataArena, TaskGraph, TaskSpec};

use crate::kernels::{bdiv_upper, dgemm, dgetrf_nopiv, fwd_lower_unit};
use crate::matmul::tile;
use crate::{
    check_close, check_residual, no_verify, probe_vector, tiled_row, BuiltWorkload, Scale,
    Workload, WorkloadKind,
};

/// SparseLU parameters.
#[derive(Debug, Clone, Copy)]
pub struct SparseLuConfig {
    /// Matrix dimension.
    pub n: usize,
    /// Tile dimension.
    pub block: usize,
}

impl SparseLuConfig {
    /// Configuration for a scale preset.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Small => SparseLuConfig { n: 96, block: 16 },
            Scale::Medium => SparseLuConfig { n: 768, block: 64 },
            // Table I: 12800×12800, block 200×200.
            Scale::Paper => SparseLuConfig {
                n: 12800,
                block: 200,
            },
            // 216 tiles per dimension; the fill-in pattern yields
            // 1,117,333 tasks (see [`SparseLuConfig::task_count`]).
            Scale::Huge => SparseLuConfig {
                n: 13824,
                block: 64,
            },
        }
    }

    /// Tiles per dimension.
    pub fn nt(&self) -> usize {
        self.n / self.block
    }

    /// Tasks the configuration generates, computed by replaying the
    /// fill-in pattern without emitting tasks (the sparsity makes a
    /// closed form impractical).
    pub fn task_count(&self) -> usize {
        let nt = self.nt();
        let mut present = vec![false; nt * nt];
        for i in 0..nt {
            for j in 0..nt {
                present[i * nt + j] = initially_present(i, j);
            }
        }
        let mut count = 0usize;
        for k in 0..nt {
            count += 1; // lu0
            count += (k + 1..nt).filter(|&j| present[k * nt + j]).count(); // fwd
            count += (k + 1..nt).filter(|&i| present[i * nt + k]).count(); // bdiv
            for i in k + 1..nt {
                if !present[i * nt + k] {
                    continue;
                }
                for j in k + 1..nt {
                    if present[k * nt + j] {
                        present[i * nt + j] = true;
                        count += 1; // bmod
                    }
                }
            }
        }
        count
    }
}

/// The initial block-sparsity pattern of the BSC benchmark family:
/// diagonal blocks plus a periodic band of off-diagonal blocks.
pub fn initially_present(i: usize, j: usize) -> bool {
    i == j || (i + j).is_multiple_of(3)
}

/// Initial element value. Zero on absent blocks; diagonally dominant so
/// the unpivoted factorization is stable.
fn lu_elem(n: usize, nt: usize, b: usize, r: usize, c: usize) -> f64 {
    if !initially_present(r / b, c / b) {
        let _ = nt;
        return 0.0;
    }
    if r == c {
        return 2.0 * n as f64;
    }
    let h = (r as u64 + 1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((c as u64 + 1).wrapping_mul(0x94d0_49bb_1331_11eb));
    let z = (h ^ (h >> 31)).wrapping_mul(0xd6e8_feb8_6659_fd93);
    ((z >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

/// Reference: dense unpivoted LU of the same initial matrix. Absent
/// blocks start as zeros, so the dense elimination produces fill-in
/// exactly where the blocked algorithm tracked it.
fn dense_check(factors: &[f64], cfg: SparseLuConfig) -> Result<(), String> {
    let (n, nt, b) = (cfg.n, cfg.nt(), cfg.block);
    let mut dense = vec![0.0; n * n];
    for r in 0..n {
        for c in 0..n {
            dense[r * n + c] = lu_elem(n, nt, b, r, c);
        }
    }
    dgetrf_nopiv(&mut dense, n);
    let mut got = vec![0.0; n * n];
    for (r, row) in got.chunks_exact_mut(n).enumerate() {
        tiled_row(factors, nt, b, r, row);
    }
    check_close(&got, &dense, 1e-6, "sparse LU factors")
}

/// Residual check of the packed factors: `L·(U·x)` against `A·x` for a
/// fixed probe `x`, with `A` regenerated from [`lu_elem`]. O(n²) time,
/// O(n) extra memory, any scale.
///
/// Tolerance, per row: the blocked factorization computes every entry
/// of `L·U` as the same inner product as point LU, in another order, so
/// `L̂·Û = A + ΔA` with `|ΔA| ≤ γ_n·|L̂||Û|` (Higham, Thm. 9.3). The two
/// products add `γ_{2n}·|L̂||Û||x|` and `fl(A·x)` adds `γ_n·|A||x|`:
/// `|fl(L̂·fl(Û·x)) − fl(A·x)| ≤ γ_{3n}·|L̂||Û||x| + γ_n·|A||x|`. The
/// factor 2 covers second-order terms and the rounding of the bound
/// vectors. This is a backward-error bound: the matrix's conditioning
/// does not enter.
fn residual_check(factors: &[f64], cfg: SparseLuConfig) -> Result<(), String> {
    let (n, nt, b) = (cfg.n, cfg.nt(), cfg.block);
    let x = probe_vector(n, 0x5350_4c55);
    let mut row = vec![0.0; n];
    // v = U·x and |U|·|x| (U: the upper triangle with the diagonal).
    let (mut v, mut v_abs) = (vec![0.0; n], vec![0.0; n]);
    for r in 0..n {
        tiled_row(factors, nt, b, r, &mut row);
        for c in r..n {
            v[r] += row[c] * x[c];
            v_abs[r] += row[c].abs() * x[c].abs();
        }
    }
    // w = L·v (unit diagonal), A·x and the bound.
    let (mut w, mut ax, mut bound) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let (g3n, gn) = (crate::gamma(3 * n), crate::gamma(n));
    for r in 0..n {
        tiled_row(factors, nt, b, r, &mut row);
        let (mut wr, mut wa) = (v[r], v_abs[r]);
        for c in 0..r {
            wr += row[c] * v[c];
            wa += row[c].abs() * v_abs[c];
        }
        let (mut ar, mut aa) = (0.0, 0.0);
        for (c, xc) in x.iter().enumerate() {
            let e = lu_elem(n, nt, b, r, c);
            ar += e * xc;
            aa += e.abs() * xc.abs();
        }
        w[r] = wr;
        ax[r] = ar;
        bound[r] = 2.0 * (g3n * wa + gn * aa);
    }
    check_residual(&w, &ax, &bound, "sparse LU L·U·x vs A·x")
}

/// The SparseLU benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct SparseLu;

impl Workload for SparseLu {
    fn name(&self) -> &'static str {
        "SparseLU"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::SharedMemory
    }

    fn paper_config(&self) -> &'static str {
        "Matrix size 12800x12800 doubles, block size 200x200"
    }

    fn build(&self, scale: Scale, _nodes: usize, materialize: bool) -> BuiltWorkload {
        let cfg = SparseLuConfig::at(scale);
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
                            data[base + r * b + c] = lu_elem(cfg.n, nt, b, ti * b + r, tj * b + c);
                        }
                    }
                }
            }
            a
        } else {
            arena.alloc_virtual("A", len)
        };

        // Presence matrix, updated with fill-in as bmod tasks are
        // emitted — mirroring the dynamic behaviour of the original.
        let mut present = vec![false; nt * nt];
        for i in 0..nt {
            for j in 0..nt {
                present[i * nt + j] = initially_present(i, j);
            }
        }

        let mut graph = TaskGraph::with_chunk_size(b * b);
        let fl_lu0 = 2.0 / 3.0 * (b as f64).powi(3);
        let fl_tri = (b as f64).powi(3);
        let fl_gemm = 2.0 * (b as f64).powi(3);
        for k in 0..nt {
            let bsz = b;
            graph.submit(
                TaskSpec::new("lu0")
                    .updates(tile(a, nt, b, k, k))
                    .flops(fl_lu0)
                    .kernel(move |ctx| {
                        let mut t = ctx.w(0);
                        dgetrf_nopiv(t.as_mut_slice(), bsz);
                    }),
            );
            for j in k + 1..nt {
                if present[k * nt + j] {
                    graph.submit(
                        TaskSpec::new("fwd")
                            .reads(tile(a, nt, b, k, k))
                            .updates(tile(a, nt, b, k, j))
                            .flops(fl_tri)
                            .kernel(move |ctx| {
                                let lu = ctx.r(0);
                                let mut blk = ctx.w(1);
                                fwd_lower_unit(lu.as_slice(), blk.as_mut_slice(), bsz);
                            }),
                    );
                }
            }
            for i in k + 1..nt {
                if present[i * nt + k] {
                    graph.submit(
                        TaskSpec::new("bdiv")
                            .reads(tile(a, nt, b, k, k))
                            .updates(tile(a, nt, b, i, k))
                            .flops(fl_tri)
                            .kernel(move |ctx| {
                                let lu = ctx.r(0);
                                let mut blk = ctx.w(1);
                                bdiv_upper(lu.as_slice(), blk.as_mut_slice(), bsz);
                            }),
                    );
                }
            }
            for i in k + 1..nt {
                if !present[i * nt + k] {
                    continue;
                }
                for j in k + 1..nt {
                    if !present[k * nt + j] {
                        continue;
                    }
                    // Fill-in: A_ij becomes (or stays) present.
                    present[i * nt + j] = true;
                    graph.submit(
                        TaskSpec::new("bmod")
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
    fn small_sparselu_verifies_sequential() {
        let built = SparseLu.build(Scale::Small, 1, true);
        let BuiltWorkload {
            mut arena,
            graph,
            verify,
            ..
        } = built;
        Executor::sequential().run(&graph, &mut arena);
        verify(&mut arena).expect("sparse LU results");
    }

    #[test]
    fn small_sparselu_verifies_parallel() {
        let built = SparseLu.build(Scale::Small, 1, true);
        let BuiltWorkload {
            mut arena,
            graph,
            verify,
            ..
        } = built;
        Executor::new(3).run(&graph, &mut arena);
        verify(&mut arena).expect("sparse LU results");
    }

    #[test]
    fn residual_check_catches_a_perturbed_factor() {
        let mut built = SparseLu.build(Scale::Small, 1, true);
        Executor::new(2).run(&built.graph, &mut built.arena);
        let cfg = SparseLuConfig::at(Scale::Small);
        let a = dataflow_rt::BufferId::from_raw(0);
        residual_check(built.arena.read(a), cfg).expect("the computed factors pass");
        let mut factors = built.arena.read(a).to_vec();
        factors[5 * 16 + 3] *= 1.0 + 1e-9;
        assert!(residual_check(&factors, cfg).is_err());
    }

    #[test]
    fn sparsity_reduces_task_count() {
        let built = SparseLu.build(Scale::Small, 1, false);
        let nt = SparseLuConfig::at(Scale::Small).nt();
        // A dense LU would have nt lu0 + nt(nt−1) panels + Σ m² gemms.
        let dense_count: usize =
            nt + nt * (nt - 1) + (0..nt).map(|k| (nt - k - 1) * (nt - k - 1)).sum::<usize>();
        assert!(
            built.graph.len() < dense_count,
            "{} tasks vs dense {dense_count}",
            built.graph.len()
        );
        // But at least the dense diagonal pipeline exists.
        assert!(built.graph.len() >= nt);
    }

    #[test]
    fn paper_scale_structure_is_buildable() {
        let built = SparseLu.build(Scale::Paper, 1, false);
        assert_eq!(SparseLuConfig::at(Scale::Paper).nt(), 64);
        assert!(built.graph.len() > 10_000, "{}", built.graph.len());
        assert!(built.arena.has_virtual_buffers());
    }

    #[test]
    fn initial_pattern_has_diagonal() {
        for i in 0..64 {
            assert!(initially_present(i, i));
        }
        // And is genuinely sparse.
        let present = (0..64)
            .flat_map(|i| (0..64).map(move |j| initially_present(i, j)))
            .filter(|&p| p)
            .count();
        assert!(present < 64 * 64 / 2);
    }
}

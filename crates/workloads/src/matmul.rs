//! Blocked matrix multiplication `C += A·B`, repeated (Table I:
//! 9216×9216 doubles, 1024×1024 blocks, CBLAS in the paper; our own
//! `dgemm` tile kernel here).
//!
//! The multiply is decomposed as **independent partial products plus a
//! reduction**: task `(i,j,k)` computes `P_ijk = A_ik·B_kj` into its
//! own tile, and a reduce task folds the k-partials into `C_ij`. That
//! exposes `nt³`-way parallelism per repetition (729 at paper scale)
//! instead of `nt²` serialized k-chains — which is how a 9×9-tile
//! multiply can occupy a 1024-core cluster, and with the repeated
//! multiplications puts the task count in the paper's 25k–48k regime.
//!
//! Matrices are stored tile-major: tile `(i,j)` of an `nt×nt` tiling
//! occupies the contiguous range `[(i·nt+j)·b², (i·nt+j+1)·b²)`.
//! Placement is block-cyclic by `C` tile (owner of `C_ij` computes its
//! partials and reduction).

use dataflow_rt::{BufferId, DataArena, Region, TaskGraph, TaskSpec};

use crate::kernels::dgemm;
use crate::{
    check_close, check_residual, no_verify, probe_vector, tiled_row, BuiltWorkload, Scale,
    Workload, WorkloadKind,
};

/// MatMul parameters.
#[derive(Debug, Clone, Copy)]
pub struct MatmulConfig {
    /// Matrix dimension (multiple of `block`).
    pub n: usize,
    /// Tile dimension.
    pub block: usize,
    /// Repeated multiplications (`C` accumulates across them).
    pub reps: usize,
}

impl MatmulConfig {
    /// Configuration for a scale preset.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Small => MatmulConfig {
                n: 64,
                block: 16,
                reps: 2,
            },
            Scale::Medium => MatmulConfig {
                n: 512,
                block: 64,
                reps: 4,
            },
            // Table I: 9216×9216, block 1024×1024; repetitions put the
            // task count in the paper's quoted 25k–48k range.
            Scale::Paper => MatmulConfig {
                n: 9216,
                block: 1024,
                reps: 40,
            },
            // 241 × (16³ + 16²) = 1,048,832 tasks.
            Scale::Huge => MatmulConfig {
                n: 1024,
                block: 64,
                reps: 241,
            },
        }
    }

    /// Tasks the configuration generates (partials + reductions).
    pub fn task_count(&self) -> usize {
        let nt = self.nt();
        self.reps * (nt * nt * nt + nt * nt)
    }

    /// Tiles per dimension.
    pub fn nt(&self) -> usize {
        self.n / self.block
    }
}

/// Tile region helper for tile-major storage.
pub(crate) fn tile(buf: BufferId, nt: usize, b: usize, i: usize, j: usize) -> Region {
    Region::contiguous(buf, (i * nt + j) * b * b, b * b)
}

/// Deterministic test value for element `(r, c)` of matrix `which`.
fn elem(which: u64, r: usize, c: usize) -> f64 {
    let h = (r as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((c as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(which.wrapping_mul(0x94d0_49bb_1331_11eb));
    let z = (h ^ (h >> 31)).wrapping_mul(0xd6e8_feb8_6659_fd93);
    ((z >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

/// Fills a tile-major matrix buffer with `elem(which, r, c)`.
fn fill_tiled(data: &mut [f64], which: u64, nt: usize, b: usize) {
    for ti in 0..nt {
        for tj in 0..nt {
            let base = (ti * nt + tj) * b * b;
            for r in 0..b {
                for c in 0..b {
                    data[base + r * b + c] = elem(which, ti * b + r, tj * b + c);
                }
            }
        }
    }
}

/// Naive dense reference: `C = reps × A·B` element by element, for the
/// tile-major buffers `[A, B, C]`.
fn dense_check(
    arena: &mut DataArena,
    [a, bb, c]: [BufferId; 3],
    cfg: MatmulConfig,
) -> Result<(), String> {
    let (n, nt, b, reps) = (cfg.n, cfg.nt(), cfg.block, cfg.reps);
    let read_tiled = |data: &[f64], r: usize, cidx: usize| {
        let (ti, tj) = (r / b, cidx / b);
        data[(ti * nt + tj) * b * b + (r % b) * b + (cidx % b)]
    };
    let av = arena.read(a).to_vec();
    let bv = arena.read(bb).to_vec();
    let cv = arena.read(c).to_vec();
    let mut want = vec![0.0; n * n];
    for r in 0..n {
        for k in 0..n {
            let x = read_tiled(&av, r, k);
            for col in 0..n {
                want[r * n + col] += x * read_tiled(&bv, k, col);
            }
        }
    }
    for w in &mut want {
        *w *= reps as f64;
    }
    let got: Vec<f64> = (0..n * n)
        .map(|idx| read_tiled(&cv, idx / n, idx % n))
        .collect();
    check_close(&got, &want, 1e-10, "matmul C")
}

/// Freivalds check of the tile-major product `c`: `C·x` against
/// `reps·A·(B·x)` for a fixed probe `x`, with `A` and `B` regenerated
/// from [`elem`]. O(n²) time, O(n) extra memory, any scale.
///
/// Tolerance, per row `r`, from Higham's `γ_k` ([`crate::gamma`]; all
/// bounds componentwise): `C` is a sum of `reps·n` rounded products, so
/// `|Ĉ − reps·AB| ≤ γ_{reps·n}·reps·|A||B|`; `fl(Ĉx)` adds `γ_n·|Ĉ||x|`
/// and `fl(A·fl(Bx))` adds `γ_{2n}·|A||B||x|`. Hence
/// `|fl(Ĉx) − reps·fl(A·fl(Bx))| ≤ (γ_{reps·n} + γ_{3n})·reps·(|A||B||x|)_r`
/// to first order; the factor 2 covers the second-order terms and the
/// rounding of the bound vector itself (a sum of non-negative terms).
/// Matrix conditioning does not enter: nothing is solved.
fn freivalds_check(c: &[f64], cfg: MatmulConfig) -> Result<(), String> {
    let (n, nt, b) = (cfg.n, cfg.nt(), cfg.block);
    let reps = cfg.reps as f64;
    let x = probe_vector(n, 0x4d41_544d);
    // y = B·x and |B|·|x|.
    let (mut y, mut y_abs) = (vec![0.0; n], vec![0.0; n]);
    for k in 0..n {
        for (col, xc) in x.iter().enumerate() {
            let v = elem(2, k, col);
            y[k] += v * xc;
            y_abs[k] += v.abs() * xc.abs();
        }
    }
    // z = reps·A·y and its bound; w = C·x.
    let (mut z, mut bound, mut w) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let tol = 2.0 * (crate::gamma(cfg.reps * n) + crate::gamma(3 * n)) * reps;
    let mut row = vec![0.0; n];
    for r in 0..n {
        let (mut zr, mut za) = (0.0, 0.0);
        for k in 0..n {
            let v = elem(1, r, k);
            zr += v * y[k];
            za += v.abs() * y_abs[k];
        }
        z[r] = reps * zr;
        bound[r] = tol * za;
        tiled_row(c, nt, b, r, &mut row);
        w[r] = row.iter().zip(&x).map(|(cv, xc)| cv * xc).sum();
    }
    check_residual(&w, &z, &bound, "matmul C·x vs reps·A·(B·x)")
}

/// The MatMul benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct Matmul;

impl Workload for Matmul {
    fn name(&self) -> &'static str {
        "Matmul"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Distributed
    }

    fn paper_config(&self) -> &'static str {
        "Matrix size 9216x9216 doubles and block size 1024x1024 (CBLAS)"
    }

    fn build(&self, scale: Scale, nodes: usize, materialize: bool) -> BuiltWorkload {
        let cfg = MatmulConfig::at(scale);
        let nt = cfg.nt();
        let b = cfg.block;
        let len = cfg.n * cfg.n;
        let parts_len = nt * nt * nt * b * b;
        let mut arena = DataArena::new();
        let (a, bb, c, parts) = if materialize {
            let a = arena.alloc("A", len);
            let bbuf = arena.alloc("B", len);
            let cbuf = arena.alloc("C", len);
            let parts = arena.alloc("P", parts_len);
            fill_tiled(arena.write(a), 1, nt, b);
            fill_tiled(arena.write(bbuf), 2, nt, b);
            (a, bbuf, cbuf, parts)
        } else {
            (
                arena.alloc_virtual("A", len),
                arena.alloc_virtual("B", len),
                arena.alloc_virtual("C", len),
                arena.alloc_virtual("P", parts_len),
            )
        };

        // Partial tile (i,j,k); the k-partials of one C tile are
        // contiguous, so the reduce task takes a single span.
        let part_tile = |i: usize, j: usize, k: usize| {
            Region::contiguous(parts, ((i * nt + j) * nt + k) * b * b, b * b)
        };
        let part_span =
            |i: usize, j: usize| Region::contiguous(parts, (i * nt + j) * nt * b * b, nt * b * b);

        let mut graph = TaskGraph::with_chunk_size(b * b);
        let mut placement = Vec::new();
        let nodes = nodes.max(1) as u32;
        let owner = |i: usize, j: usize| ((i * nt + j) % nodes as usize) as u32;
        let gemm_flops = 2.0 * (b as f64).powi(3);
        for _rep in 0..cfg.reps {
            for i in 0..nt {
                for j in 0..nt {
                    for k in 0..nt {
                        let bsz = b;
                        graph.submit(
                            TaskSpec::new("gemm_part")
                                .reads(tile(a, nt, b, i, k))
                                .reads(tile(bb, nt, b, k, j))
                                .writes(part_tile(i, j, k))
                                .flops(gemm_flops)
                                .kernel(move |ctx| {
                                    let at = ctx.r(0);
                                    let bt = ctx.r(1);
                                    let mut pt = ctx.w(2);
                                    pt.as_mut_slice().fill(0.0);
                                    dgemm(
                                        pt.as_mut_slice(),
                                        at.as_slice(),
                                        bt.as_slice(),
                                        bsz,
                                        1.0,
                                    );
                                }),
                        );
                        placement.push(owner(i, j));
                    }
                }
            }
            for i in 0..nt {
                for j in 0..nt {
                    let (bsz, ntc) = (b, nt);
                    graph.submit(
                        TaskSpec::new("reduce")
                            .reads(part_span(i, j))
                            .updates(tile(c, nt, b, i, j))
                            .flops((nt * b * b) as f64)
                            .kernel(move |ctx| {
                                let span = ctx.r(0);
                                let mut ct = ctx.w(1);
                                let out = ct.as_mut_slice();
                                let all = span.as_slice();
                                for k in 0..ntc {
                                    let part = &all[k * bsz * bsz..(k + 1) * bsz * bsz];
                                    for (o, p) in out.iter_mut().zip(part) {
                                        *o += p;
                                    }
                                }
                            }),
                    );
                    placement.push(owner(i, j));
                }
            }
        }

        let verify: crate::Verifier = if !materialize {
            no_verify()
        } else {
            let dense = scale == Scale::Small;
            Box::new(move |arena: &mut DataArena| {
                if dense {
                    dense_check(arena, [a, bb, c], cfg)?;
                }
                freivalds_check(arena.read(c), cfg)
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
    fn small_matmul_verifies() {
        let built = Matmul.build(Scale::Small, 1, true);
        let BuiltWorkload {
            mut arena,
            graph,
            verify,
            ..
        } = built;
        Executor::new(2).run(&graph, &mut arena);
        verify(&mut arena).expect("matmul results");
    }

    #[test]
    fn freivalds_check_catches_a_perturbed_element() {
        let mut built = Matmul.build(Scale::Small, 1, true);
        Executor::new(2).run(&built.graph, &mut built.arena);
        let cfg = MatmulConfig::at(Scale::Small);
        let c = BufferId::from_raw(2);
        freivalds_check(built.arena.read(c), cfg).expect("the computed product passes");
        let mut data = built.arena.read(c).to_vec();
        data[77] += 1e-6;
        assert!(freivalds_check(&data, cfg).is_err());
    }

    #[test]
    fn task_count_is_reps_times_parts_plus_reduces() {
        let built = Matmul.build(Scale::Small, 4, true);
        let cfg = MatmulConfig::at(Scale::Small);
        let nt = cfg.nt();
        assert_eq!(built.graph.len(), cfg.reps * (nt * nt * nt + nt * nt));
        assert_eq!(built.placement.len(), built.graph.len());
    }

    #[test]
    fn partials_within_a_rep_are_independent() {
        let built = Matmul.build(Scale::Small, 1, true);
        let g = &built.graph;
        let nt = MatmulConfig::at(Scale::Small).nt();
        // All nt³ partial tasks of rep 0 are roots.
        for t in 0..nt * nt * nt {
            let id = dataflow_rt::TaskId::from_raw(t as u32);
            assert_eq!(g.task(id).label, "gemm_part");
            assert!(g.predecessors(id).is_empty(), "partial {t} must be a root");
        }
        // The first reduce depends on its nt partials.
        let first_reduce = dataflow_rt::TaskId::from_raw((nt * nt * nt) as u32);
        assert_eq!(g.task(first_reduce).label, "reduce");
        assert_eq!(g.predecessors(first_reduce).len(), nt);
    }

    #[test]
    fn paper_scale_structure() {
        let built = Matmul.build(Scale::Paper, 64, false);
        let cfg = MatmulConfig::at(Scale::Paper);
        assert_eq!(cfg.nt(), 9);
        // In the paper's quoted 25k–48k fine-task regime.
        assert!(
            built.graph.len() >= 25_000 && built.graph.len() <= 48_000,
            "{} tasks",
            built.graph.len()
        );
        assert!(built.arena.has_virtual_buffers());
        assert!(built.placement.iter().all(|&n| n < 64));
    }

    #[test]
    fn placement_spreads_over_nodes() {
        let built = Matmul.build(Scale::Small, 4, false);
        let mut seen = [false; 4];
        for &n in &built.placement {
            seen[n as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 4 nodes used");
    }
}

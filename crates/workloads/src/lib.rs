//! # workloads
//!
//! The nine task-parallel benchmarks of the paper's Table I, rebuilt as
//! dataflow task graphs over `dataflow-rt`:
//!
//! | Benchmark | Paper configuration |
//! |---|---|
//! | Sparse LU | 12800×12800 doubles, 200×200 blocks |
//! | Cholesky | 16384×16384 doubles, 512×512 blocks |
//! | FFT | 16384×16384 complex doubles, 16384×128 blocks |
//! | Perlin Noise | 65536 pixels, 2048-pixel blocks |
//! | Stream | 2048×2048 doubles, 32768-element blocks |
//! | Nbody | 65536 bodies, blocked by node count |
//! | Matrix Multiplication | 9216×9216 doubles, 1024×1024 blocks |
//! | Pingpong | 65536 doubles, 1024-element blocks |
//! | Linpack | 131072 doubles, 256 blocks, 8×8 grid |
//!
//! Every workload can be **built at three scales** — [`Scale::Small`]
//! (seconds, numerically verified in tests), [`Scale::Medium`] (local
//! benchmarking) and [`Scale::Paper`] (Table-I dimensions) — and in two
//! modes: *materialized* (real buffers, executable and verifiable on
//! the threaded runtime) or *described* (virtual buffers; structure +
//! argument sizes only, for the cluster simulator, where paper-scale
//! graphs would otherwise need gigabytes).
//!
//! Matrices are stored **tile-major** (each block contiguous), the
//! layout the OmpSs benchmarks use, so block arguments are contiguous
//! regions; the FFT's transpose uses strided tile regions on a
//! row-major matrix instead, exercising that part of the runtime.
//!
//! ## Example: build, execute, verify
//!
//! ```
//! use dataflow_rt::Executor;
//! use workloads::{cholesky::Cholesky, Scale, Workload};
//!
//! // A small, materialized Cholesky factorization (real buffers).
//! let mut built = Cholesky.build(Scale::Small, 1, true);
//! Executor::new(2).run(&built.graph, &mut built.arena);
//! assert!((built.verify)(&mut built.arena).is_ok(), "L·Lᵀ must reproduce A");
//! ```
//!
//! ## Example: describe only, then simulate at paper scale
//!
//! ```
//! use fit_model::RateModel;
//! use cluster_sim::SimGraph;
//! use workloads::{all_workloads, Scale};
//!
//! // Described builds carry structure + argument sizes but no data,
//! // so even Table-I dimensions fit in memory; the cluster simulator
//! // consumes them directly.
//! let w = &all_workloads()[0];
//! let built = w.build(Scale::Small, 1, false);
//! let graph = SimGraph::from_task_graph(&built.graph, &RateModel::roadrunner(), built.placement_fn());
//! assert!(!graph.is_empty());
//! ```
//!
//! At [`Scale::Huge`] every benchmark also has a **streamed builder**
//! ([`streamed`]) that reaches ≥ 2²⁰ tasks without materializing a
//! `TaskGraph`, bit-identical to the in-memory path at any scale.

#![deny(missing_docs)]

pub mod catalog;
pub mod cholesky;
pub mod fft2d;
pub mod kernels;
pub mod linpack;
pub mod matmul;
pub mod nbody;
pub mod perlin_noise;
pub mod pingpong;
pub mod sparse_lu;
pub mod stream;
pub mod streamed;

pub use catalog::{all_workloads, distributed_workloads, shared_memory_workloads};
pub use streamed::streamed_workload;

use dataflow_rt::{DataArena, TaskGraph};

/// A workload's result checker: reads the arena after execution and
/// reports what (if anything) is wrong.
pub type Verifier = Box<dyn Fn(&mut DataArena) -> Result<(), String> + Send>;

/// Problem-size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Test scale: runs in well under a second, full numerical
    /// verification.
    Small,
    /// Local benchmarking scale: seconds.
    Medium,
    /// The paper's Table-I dimensions (build with `materialize =
    /// false`; the data would not fit the container).
    Paper,
    /// The million-task stress regime: every benchmark's dimensions are
    /// chosen so the graph has at least 2²⁰ tasks. Intended for the
    /// streamed construction path ([`streamed`]); an in-memory
    /// [`Workload::build`] at this scale is permitted but slow and
    /// memory-hungry.
    Huge,
}

/// Shared-memory vs distributed benchmark (Table I's two groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Runs within one node (paper: 16 cores).
    SharedMemory,
    /// Runs across nodes (paper: 64 nodes × 16 cores).
    Distributed,
}

/// A fully built workload instance.
pub struct BuiltWorkload {
    /// The data buffers (virtual when `materialize` was false).
    pub arena: DataArena,
    /// The task graph.
    pub graph: TaskGraph,
    /// Owner node per task (parallel to task ids). All zeros for
    /// shared-memory workloads.
    pub placement: Vec<u32>,
    /// Checks the computation's results (only meaningful after running
    /// the graph on a materialized arena).
    pub verify: Verifier,
}

impl BuiltWorkload {
    /// Placement lookup for `cluster_sim::SimGraph::from_task_graph`.
    pub fn placement_fn(&self) -> impl Fn(&dataflow_rt::Task) -> u32 + '_ {
        move |t: &dataflow_rt::Task| self.placement.get(t.id.index()).copied().unwrap_or(0)
    }
}

/// One Table-I benchmark.
pub trait Workload: Send + Sync {
    /// Display name (Table-I row).
    fn name(&self) -> &'static str;

    /// Shared-memory or distributed.
    fn kind(&self) -> WorkloadKind;

    /// The paper's configuration, verbatim from Table I.
    fn paper_config(&self) -> &'static str;

    /// Builds the workload.
    ///
    /// * `scale` — problem dimensions;
    /// * `nodes` — placement breadth for distributed workloads
    ///   (ignored by shared-memory ones);
    /// * `materialize` — allocate and initialize real buffers (`true`)
    ///   or describe sizes only (`false`).
    fn build(&self, scale: Scale, nodes: usize, materialize: bool) -> BuiltWorkload;
}

/// A verifier that always passes, for described-only builds.
pub(crate) fn no_verify() -> Verifier {
    Box::new(|_| Ok(()))
}

/// Relative-error comparison helper for workload verifiers.
pub(crate) fn check_close(got: &[f64], want: &[f64], tol: f64, what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: length mismatch {} vs {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let scale = w.abs().max(1.0);
        if (g - w).abs() > tol * scale {
            return Err(format!("{what}: element {i}: got {g}, want {w}"));
        }
    }
    Ok(())
}

/// Unit roundoff of `f64`: half an ulp of 1.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// Higham's `γ_k = k·u / (1 − k·u)` (*Accuracy and Stability of
/// Numerical Algorithms*, §3.1): the relative bound on the rounding
/// error of any `k`-term sum or inner product, in any order —
/// `|fl(xᵀy) − xᵀy| ≤ γ_k·|x|ᵀ|y|`. The residual verifiers derive their
/// tolerances from it.
pub(crate) fn gamma(k: usize) -> f64 {
    let ku = k as f64 * UNIT_ROUNDOFF;
    ku / (1.0 - ku)
}

/// A fixed probe vector in `[-1, 1]ⁿ` for Freivalds-style residual
/// checks (`‖x‖∞ ≤ 1`).
pub(crate) fn probe_vector(n: usize, seed: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|i| {
            let h = (i + 1)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(seed.wrapping_mul(0xbf58_476d_1ce4_e5b9));
            let z = (h ^ (h >> 31)).wrapping_mul(0xd6e8_feb8_6659_fd93);
            ((z >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

/// Copies row `r` of an `nt·b`-square tile-major matrix into `out`.
pub(crate) fn tiled_row(data: &[f64], nt: usize, b: usize, r: usize, out: &mut [f64]) {
    let (ti, rr) = (r / b, r % b);
    for (tj, seg) in out[..nt * b].chunks_exact_mut(b).enumerate() {
        let base = (ti * nt + tj) * b * b + rr * b;
        seg.copy_from_slice(&data[base..base + b]);
    }
}

/// Checks `|got[r] − want[r]| ≤ bound[r]` for every `r` (a NaN fails).
pub(crate) fn check_residual(
    got: &[f64],
    want: &[f64],
    bound: &[f64],
    what: &str,
) -> Result<(), String> {
    for (r, ((g, w), b)) in got.iter().zip(want).zip(bound).enumerate() {
        let err = (g - w).abs();
        if err > *b || err.is_nan() {
            return Err(format!(
                "{what}: row {r}: residual {err:e} exceeds its bound {b:e} ({g} vs {w})"
            ));
        }
    }
    Ok(())
}

//! The replication engine: the paper's Figure-2 pipeline as execution
//! hooks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use appfit_core::{DecisionCtx, ReplicationPolicy};
use dataflow_rt::exec::{CheckpointData, ShadowData};
use dataflow_rt::{ExecRecord, ExecutionHooks, TaskExecution, TaskOutcome};
use fault_inject::{
    scribble_partial_write, ErrorClass, FaultEvent, FaultLog, FaultModel, InjectionConfig,
    InjectionDecision, NoFaults,
};
use fit_model::RateModel;

use crate::comparator::{BitwiseComparator, Comparator};
use crate::vote::majority_vote;

/// Snapshot of the engine's bookkeeping counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointStats {
    /// Input checkpoints taken (= replicated task executions).
    pub checkpoints: u64,
    /// Bytes copied into checkpoints.
    pub checkpoint_bytes: u64,
    /// Replica-vs-original comparisons performed.
    pub compares: u64,
    /// Bytes compared.
    pub compare_bytes: u64,
    /// Output scatters: a replica's result or a vote winner written
    /// back over the task's real output regions. Adopting the
    /// original's own copy scatters nothing — the arena already holds
    /// it — and is not counted.
    pub restores: u64,
}

/// One surviving execution's results, awaiting comparison/vote.
struct ResultCopy {
    data: ShadowData,
    attempt: u32,
    /// An SDC was injected into this copy (ground truth for accounting).
    sdc: bool,
}

#[derive(Default)]
struct Counters {
    checkpoints: AtomicU64,
    checkpoint_bytes: AtomicU64,
    compares: AtomicU64,
    compare_bytes: AtomicU64,
    restores: AtomicU64,
}

/// The selective task-replication engine (see crate docs for the
/// pipeline). Install it on an executor:
///
/// ```
/// use std::sync::Arc;
/// use appfit_core::ReplicateAll;
/// use dataflow_rt::{DataArena, Executor, Region, TaskGraph, TaskSpec};
/// use fit_model::RateModel;
/// use task_replication::ReplicationEngine;
///
/// let mut arena = DataArena::new();
/// let v = arena.alloc("v", 4);
/// let mut g = TaskGraph::new();
/// g.submit(TaskSpec::new("fill").writes(Region::full(v, 4)).kernel(|ctx| {
///     ctx.w(0).as_mut_slice().fill(3.0);
/// }));
/// let engine = Arc::new(ReplicationEngine::new(
///     Arc::new(ReplicateAll),
///     RateModel::roadrunner(),
/// ));
/// let report = Executor::sequential().with_hooks(engine).run(&g, &mut arena);
/// assert!(report.records[0].replicated);
/// assert_eq!(arena.read(v), &[3.0; 4]);
/// ```
pub struct ReplicationEngine {
    policy: Arc<dyn ReplicationPolicy>,
    rates: RateModel,
    faults: Arc<dyn FaultModel>,
    injection: InjectionConfig,
    comparator: Box<dyn Comparator>,
    max_crash_retries: u32,
    log: Arc<FaultLog>,
    counters: Counters,
}

impl ReplicationEngine {
    /// An engine with the given selection policy and rate model; no
    /// fault injection, bitwise comparison, 3 crash retries.
    pub fn new(policy: Arc<dyn ReplicationPolicy>, rates: RateModel) -> Self {
        ReplicationEngine {
            policy,
            rates,
            faults: Arc::new(NoFaults),
            injection: InjectionConfig::Disabled,
            comparator: Box::new(BitwiseComparator),
            max_crash_retries: 3,
            log: Arc::new(FaultLog::new()),
            counters: Counters::default(),
        }
    }

    /// Enables fault injection.
    #[must_use]
    pub fn with_faults(mut self, model: Arc<dyn FaultModel>, config: InjectionConfig) -> Self {
        self.faults = model;
        self.injection = config;
        self
    }

    /// Replaces the result comparator.
    #[must_use]
    pub fn with_comparator(mut self, comparator: Box<dyn Comparator>) -> Self {
        self.comparator = comparator;
        self
    }

    /// Sets how many re-executions from the checkpoint are attempted
    /// when every replica of a task crashes.
    #[must_use]
    pub fn with_max_crash_retries(mut self, retries: u32) -> Self {
        self.max_crash_retries = retries;
        self
    }

    /// The fault log (shared; clone the `Arc` before installing the
    /// engine to keep a handle).
    pub fn log(&self) -> Arc<FaultLog> {
        Arc::clone(&self.log)
    }

    /// The selection policy.
    pub fn policy(&self) -> &Arc<dyn ReplicationPolicy> {
        &self.policy
    }

    /// Snapshot of checkpoint/comparison counters.
    pub fn stats(&self) -> CheckpointStats {
        CheckpointStats {
            checkpoints: self.counters.checkpoints.load(Ordering::Relaxed),
            checkpoint_bytes: self.counters.checkpoint_bytes.load(Ordering::Relaxed),
            compares: self.counters.compares.load(Ordering::Relaxed),
            compare_bytes: self.counters.compare_bytes.load(Ordering::Relaxed),
            restores: self.counters.restores.load(Ordering::Relaxed),
        }
    }

    /// Injection decision for one attempt, from the task's rates and the
    /// attempt's measured duration. The configured [`InjectionConfig`]
    /// computes probabilities; the [`FaultModel`] has the final say, so
    /// scripted plans ([`fault_inject::FaultPlan`]) fire regardless of
    /// the probability configuration.
    fn inject_with_rates(
        &self,
        task: u64,
        attempt: u32,
        nanos: u64,
        rates: fit_model::TaskRates,
    ) -> InjectionDecision {
        let secs = nanos as f64 / 1e9;
        let p = self.injection.probabilities(rates, secs);
        self.faults.decide(task, attempt, p)
    }

    fn record_fault(&self, task: u64, attempt: u32, class: ErrorClass, covered: bool) {
        self.log.record(FaultEvent {
            task,
            attempt,
            class,
            covered,
        });
    }

    /// Flips one bit somewhere in the task's real output regions.
    fn corrupt_real_outputs(&self, exec: &mut TaskExecution<'_>, task: u64, attempt: u32) {
        let mut snap = exec.snapshot_outputs();
        let mut rng = self.faults.corruption_rng(task, attempt);
        if flip_in_shadow(&mut snap, &mut rng) {
            exec.write_outputs(&snap);
        }
    }

    /// Simulates a crashed attempt's partial writes on the real outputs.
    fn scribble_real_outputs(&self, exec: &mut TaskExecution<'_>, task: u64, attempt: u32) {
        let mut snap = exec.snapshot_outputs();
        let mut rng = self.faults.corruption_rng(task, attempt);
        for entry in snap.iter_mut().flatten() {
            scribble_partial_write(entry, &mut rng);
        }
        exec.write_outputs(&snap);
    }

    /// Adopts `copy` as the task's result. The original (attempt 0)
    /// ran on the real regions and nothing writes them after its
    /// snapshot (replicas run on shadow storage), so for it the arena
    /// already holds exactly these outputs and the scatter is skipped.
    fn adopt(&self, exec: &mut TaskExecution<'_>, copy: &ResultCopy) {
        if copy.attempt != 0 {
            self.scatter(exec, &copy.data);
        }
    }

    /// Writes `data` over the task's real output regions.
    fn scatter(&self, exec: &mut TaskExecution<'_>, data: &ShadowData) {
        exec.write_outputs(data);
        self.counters.restores.fetch_add(1, Ordering::Relaxed);
    }

    fn compare(&self, a: &ShadowData, b: &ShadowData) -> bool {
        let mut bytes = 0u64;
        let mut equal = true;
        for (x, y) in a.iter().zip(b) {
            if let (Some(x), Some(y)) = (x, y) {
                bytes += (x.len() * 8) as u64;
                if !self.comparator.equal(x, y) {
                    equal = false;
                }
            }
        }
        self.counters.compares.fetch_add(1, Ordering::Relaxed);
        self.counters
            .compare_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        equal
    }

    /// Runs the replicated path (paper Figure 2).
    ///
    /// One refinement over a literal reading of the paper: after *any*
    /// crash, the engine re-executes from the checkpoint until two
    /// result copies exist before adopting anything, restoring
    /// dual-modular redundancy. Without this, an SDC striking the copy
    /// that survives a crash would be adopted uncompared — a silent
    /// protection gap replication is supposed to close.
    fn execute_replicated(
        &self,
        exec: &mut TaskExecution<'_>,
        ctx: &DecisionCtx,
        rec: &mut ExecRecord,
    ) {
        let task = ctx.id;
        // ① checkpoint inputs.
        let ckpt = exec.checkpoint_inputs();
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.counters
            .checkpoint_bytes
            .fetch_add(exec.task().input_bytes(), Ordering::Relaxed);

        rec.attempts = 0;
        let mut any_due = false;
        // Result copies that survived their execution (possibly
        // silently corrupted — tracked for end-of-task accounting).
        let mut copies: Vec<ResultCopy> = Vec::new();

        // ② the original (writes the real regions)…
        let nanos0 = exec.run_real();
        rec.base_nanos = nanos0;
        rec.total_nanos += nanos0;
        rec.attempts += 1;
        match self.inject_with_rates(task, 0, nanos0, ctx.rates) {
            InjectionDecision::Inject(ErrorClass::Due) => {
                self.record_fault(task, 0, ErrorClass::Due, true);
                self.scribble_real_outputs(exec, task, 0);
                any_due = true;
            }
            InjectionDecision::Inject(ErrorClass::Sdc) => {
                self.corrupt_real_outputs(exec, task, 0);
                copies.push(ResultCopy {
                    data: exec.snapshot_outputs(),
                    attempt: 0,
                    sdc: true,
                });
            }
            _ => copies.push(ResultCopy {
                data: exec.snapshot_outputs(),
                attempt: 0,
                sdc: false,
            }),
        }

        // …and its replica (shadow storage, pristine checkpointed inputs).
        let mut shadow = exec.new_shadow(&ckpt);
        let nanos1 = exec.run_redirected(&ckpt, &mut shadow);
        rec.total_nanos += nanos1;
        rec.attempts += 1;
        match self.inject_with_rates(task, 1, nanos1, ctx.rates) {
            InjectionDecision::Inject(ErrorClass::Due) => {
                self.record_fault(task, 1, ErrorClass::Due, true);
                any_due = true;
            }
            InjectionDecision::Inject(ErrorClass::Sdc) => {
                let mut rng = self.faults.corruption_rng(task, 1);
                flip_in_shadow(&mut shadow, &mut rng);
                copies.push(ResultCopy {
                    data: shadow,
                    attempt: 1,
                    sdc: true,
                });
            }
            _ => copies.push(ResultCopy {
                data: shadow,
                attempt: 1,
                sdc: false,
            }),
        }

        // Crash recovery: re-execute from the checkpoint until two
        // copies exist (or the retry budget runs out).
        let mut next_attempt = 2u32;
        let mut retries = self.max_crash_retries;
        while copies.len() < 2 && retries > 0 {
            retries -= 1;
            match self.reexecute(exec, ctx, rec, &ckpt, next_attempt) {
                Some(copy) => copies.push(copy),
                None => any_due = true,
            }
            next_attempt += 1;
        }

        match copies.len() {
            0 => {
                // Every attempt crashed.
                rec.outcome = TaskOutcome::Crashed;
            }
            1 => {
                // Retry budget exhausted with a single survivor: adopt
                // it; an SDC in it goes uncompared (honest accounting).
                let only = &copies[0];
                self.adopt(exec, only);
                if only.sdc {
                    self.record_fault(task, only.attempt, ErrorClass::Sdc, false);
                    rec.uncovered_sdc = true;
                }
                rec.due_recovered = any_due;
            }
            _ => {
                // ③ compare the two copies at the synchronization point.
                let (a, b) = (&copies[0], &copies[1]);
                if self.compare(&a.data, &b.data) {
                    self.adopt(exec, a);
                    // Bitwise-equal copies cannot carry a (single-bit)
                    // corruption; log any flagged events as covered.
                    for c in &copies {
                        if c.sdc {
                            self.record_fault(task, c.attempt, ErrorClass::Sdc, true);
                        }
                    }
                    rec.due_recovered = any_due;
                } else {
                    // ④ mismatch = SDC detected; re-execute and ⑤ vote.
                    rec.sdc_detected = true;
                    self.vote_and_adopt(exec, ctx, rec, &ckpt, copies, next_attempt, retries);
                    rec.due_recovered = any_due && rec.outcome == TaskOutcome::Completed;
                }
            }
        }
    }

    /// One re-execution from the checkpoint. Returns the surviving copy,
    /// or `None` if the attempt crashed (DUE).
    fn reexecute(
        &self,
        exec: &mut TaskExecution<'_>,
        ctx: &DecisionCtx,
        rec: &mut ExecRecord,
        ckpt: &CheckpointData,
        attempt: u32,
    ) -> Option<ResultCopy> {
        let task = ctx.id;
        let mut data = exec.new_shadow(ckpt);
        let nanos = exec.run_redirected(ckpt, &mut data);
        rec.total_nanos += nanos;
        rec.attempts += 1;
        match self.inject_with_rates(task, attempt, nanos, ctx.rates) {
            InjectionDecision::Inject(ErrorClass::Due) => {
                self.record_fault(task, attempt, ErrorClass::Due, true);
                None
            }
            InjectionDecision::Inject(ErrorClass::Sdc) => {
                let mut rng = self.faults.corruption_rng(task, attempt);
                flip_in_shadow(&mut data, &mut rng);
                Some(ResultCopy {
                    data,
                    attempt,
                    sdc: true,
                })
            }
            _ => Some(ResultCopy {
                data,
                attempt,
                sdc: false,
            }),
        }
    }

    /// A mismatch was detected between two copies: obtain a third from
    /// the checkpoint and take the element-wise majority vote (⑤).
    #[allow(clippy::too_many_arguments)]
    fn vote_and_adopt(
        &self,
        exec: &mut TaskExecution<'_>,
        ctx: &DecisionCtx,
        rec: &mut ExecRecord,
        ckpt: &CheckpointData,
        copies: Vec<ResultCopy>,
        mut next_attempt: u32,
        mut retries: u32,
    ) {
        let task = ctx.id;
        let mut third: Option<ResultCopy> = None;
        loop {
            let candidate = self.reexecute(exec, ctx, rec, ckpt, next_attempt);
            next_attempt += 1;
            match candidate {
                Some(c) => {
                    third = Some(c);
                    break;
                }
                None if retries > 0 => retries -= 1,
                None => break,
            }
        }
        let (a, b) = (&copies[0], &copies[1]);
        match third {
            Some(c) => {
                let mut winner: ShadowData = Vec::with_capacity(a.data.len());
                let mut unresolved = 0usize;
                for i in 0..a.data.len() {
                    match (&a.data[i], &b.data[i], &c.data[i]) {
                        (Some(x), Some(y), Some(z)) => {
                            let v = majority_vote(x, y, z);
                            unresolved += v.unresolved;
                            winner.push(Some(v.winner));
                        }
                        _ => winner.push(None),
                    }
                }
                self.scatter(exec, &winner);
                rec.sdc_corrected = unresolved == 0;
                rec.uncovered_sdc |= unresolved > 0;
                // Outvoted corruptions are covered; corruption in the
                // adopted tie-break copy is not.
                for cp in copies.iter().chain(core::iter::once(&c)) {
                    if cp.sdc {
                        let covered = unresolved == 0 || cp.attempt != c.attempt;
                        self.record_fault(task, cp.attempt, ErrorClass::Sdc, covered);
                    }
                }
            }
            None => {
                // No third copy obtainable: the SDC stands. Keep the
                // original's copy in place.
                self.adopt(exec, a);
                rec.uncovered_sdc = true;
                for cp in &copies {
                    if cp.sdc {
                        self.record_fault(task, cp.attempt, ErrorClass::Sdc, false);
                    }
                }
            }
        }
    }
}

impl ExecutionHooks for ReplicationEngine {
    fn execute(&self, exec: &mut TaskExecution<'_>) -> ExecRecord {
        let task = exec.task();
        let ctx = DecisionCtx {
            id: task.id.index() as u64,
            rates: self
                .rates
                .rates_for_arguments(task.accesses.iter().map(|a| a.bytes())),
            argument_bytes: task.argument_bytes(),
        };
        let replicate = self.policy.decide(&ctx);

        let mut rec = ExecRecord::plain(task.id, 0);
        rec.replicated = replicate;
        rec.total_nanos = 0;

        if replicate {
            self.execute_replicated(exec, &ctx, &mut rec);
        } else {
            let nanos = exec.run_real();
            rec.base_nanos = nanos;
            rec.total_nanos = nanos;
            match self.inject_with_rates(ctx.id, 0, nanos, ctx.rates) {
                InjectionDecision::Inject(ErrorClass::Due) => {
                    self.record_fault(ctx.id, 0, ErrorClass::Due, false);
                    self.scribble_real_outputs(exec, ctx.id, 0);
                    rec.uncovered_due = true;
                    rec.outcome = TaskOutcome::Crashed;
                }
                InjectionDecision::Inject(ErrorClass::Sdc) => {
                    self.record_fault(ctx.id, 0, ErrorClass::Sdc, false);
                    self.corrupt_real_outputs(exec, ctx.id, 0);
                    rec.uncovered_sdc = true;
                }
                _ => {}
            }
        }
        self.policy.on_complete(&ctx, replicate);
        rec
    }
}

/// Flips one uniformly chosen bit across all `Some` entries of a shadow
/// set. Returns `false` if there is nothing to corrupt.
fn flip_in_shadow<R: rand::Rng>(data: &mut ShadowData, rng: &mut R) -> bool {
    let total: usize = data.iter().flatten().map(Vec::len).sum();
    if total == 0 {
        return false;
    }
    let mut target = rng.gen_range(0..total);
    for entry in data.iter_mut().flatten() {
        if target < entry.len() {
            let bit = rng.gen_range(0..64u32);
            entry[target] = f64::from_bits(entry[target].to_bits() ^ (1u64 << bit));
            return true;
        }
        target -= entry.len();
    }
    unreachable!("index computed within total length");
}

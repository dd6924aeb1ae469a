//! Behavioural tests of the replication engine: every arrow of the
//! paper's Figure 2, exercised with scripted faults.

use std::sync::Arc;

use appfit_core::{ReplicateAll, ReplicateNone};
use dataflow_rt::{DataArena, Executor, Region, TaskGraph, TaskOutcome, TaskSpec};
use fault_inject::{ErrorClass, FaultPlan, InjectionConfig, SeededInjector};
use fit_model::RateModel;
use task_replication::{ReplicationEngine, ToleranceComparator};

/// One task squaring an input vector into an output vector, plus an
/// in-place increment of a third buffer (exercising In, Out and InOut).
fn build_square_graph(arena: &mut DataArena) -> (TaskGraph, Region, Region, Region) {
    let input = arena.alloc_from("in", (1..=8).map(|i| i as f64).collect());
    let output = arena.alloc("out", 8);
    let acc = arena.alloc_from("acc", vec![10.0; 4]);
    let r_in = Region::full(input, 8);
    let r_out = Region::full(output, 8);
    let r_acc = Region::full(acc, 4);
    let mut g = TaskGraph::new();
    g.submit(
        TaskSpec::new("square")
            .reads(r_in)
            .writes(r_out)
            .updates(r_acc)
            .kernel(|ctx| {
                let inp = ctx.r(0);
                let mut out = ctx.w(1);
                for i in 0..inp.len() {
                    let x = inp.at(i);
                    out.set(i, x * x);
                }
                let mut acc = ctx.w(2);
                for i in 0..acc.len() {
                    let v = acc.at(i);
                    acc.set(i, v + 1.0);
                }
            }),
    );
    (g, r_in, r_out, r_acc)
}

fn expected_out() -> Vec<f64> {
    (1..=8).map(|i| (i * i) as f64).collect()
}

fn run_with_plan(
    plan: FaultPlan,
) -> (
    DataArena,
    dataflow_rt::RunReport,
    Arc<fault_inject::FaultLog>,
    Region,
    Region,
) {
    let mut arena = DataArena::new();
    let (g, _r_in, r_out, r_acc) = build_square_graph(&mut arena);
    let engine = Arc::new(
        ReplicationEngine::new(Arc::new(ReplicateAll), RateModel::roadrunner()).with_faults(
            Arc::new(plan),
            // Probabilities are ignored by FaultPlan; any enabled config works.
            InjectionConfig::PerTask {
                p_due: 0.0,
                p_sdc: 0.0,
                p_crash: 0.0,
            },
        ),
    );
    let log = engine.log();
    let report = Executor::sequential()
        .with_hooks(engine)
        .run(&g, &mut arena);
    (arena, report, log, r_out, r_acc)
}

#[test]
fn fault_free_replication_preserves_results() {
    let (mut arena, report, log, r_out, r_acc) = run_with_plan(FaultPlan::new());
    assert_eq!(arena.read_region(r_out), expected_out());
    assert_eq!(arena.read_region(r_acc), vec![11.0; 4]);
    let rec = &report.records[0];
    assert!(rec.replicated);
    assert_eq!(rec.attempts, 2);
    assert!(!rec.sdc_detected);
    assert_eq!(rec.outcome, TaskOutcome::Completed);
    assert!(log.is_empty());
}

#[test]
fn sdc_on_original_is_detected_and_corrected() {
    let plan = FaultPlan::new().with(0, 0, ErrorClass::Sdc);
    let (mut arena, report, log, r_out, r_acc) = run_with_plan(plan);
    // The vote between (corrupted original, replica, re-execution)
    // restores the correct results.
    assert_eq!(arena.read_region(r_out), expected_out());
    assert_eq!(arena.read_region(r_acc), vec![11.0; 4]);
    let rec = &report.records[0];
    assert!(rec.sdc_detected, "mismatch must be detected");
    assert!(rec.sdc_corrected, "vote must correct it");
    assert_eq!(rec.attempts, 3);
    assert_eq!(log.counts().sdc, 1);
    assert_eq!(log.counts().uncovered_sdc, 0);
}

#[test]
fn sdc_on_replica_is_detected_and_corrected() {
    let plan = FaultPlan::new().with(0, 1, ErrorClass::Sdc);
    let (mut arena, report, _log, r_out, r_acc) = run_with_plan(plan);
    assert_eq!(arena.read_region(r_out), expected_out());
    assert_eq!(arena.read_region(r_acc), vec![11.0; 4]);
    let rec = &report.records[0];
    assert!(rec.sdc_detected && rec.sdc_corrected);
}

#[test]
fn due_on_original_recovered_by_replica() {
    let plan = FaultPlan::new().with(0, 0, ErrorClass::Due);
    let (mut arena, report, _log, r_out, r_acc) = run_with_plan(plan);
    // The original's partial writes were scribbled over the real
    // buffers; the replica's results must have replaced them all. The
    // engine re-executes once more so the adopted copy is compared.
    assert_eq!(arena.read_region(r_out), expected_out());
    assert_eq!(arena.read_region(r_acc), vec![11.0; 4]);
    let rec = &report.records[0];
    assert!(rec.due_recovered);
    assert_eq!(rec.outcome, TaskOutcome::Completed);
    assert_eq!(rec.attempts, 3);
    assert!(!rec.sdc_detected, "the two surviving copies agree");
}

#[test]
fn due_on_replica_keeps_original_results() {
    let plan = FaultPlan::new().with(0, 1, ErrorClass::Due);
    let (mut arena, report, _log, r_out, r_acc) = run_with_plan(plan);
    assert_eq!(arena.read_region(r_out), expected_out());
    assert_eq!(arena.read_region(r_acc), vec![11.0; 4]);
    assert!(report.records[0].due_recovered);
    assert_eq!(report.records[0].attempts, 3);
}

#[test]
fn double_crash_recovered_by_reexecution() {
    let plan = FaultPlan::new()
        .with(0, 0, ErrorClass::Due)
        .with(0, 1, ErrorClass::Due);
    let (mut arena, report, _log, r_out, r_acc) = run_with_plan(plan);
    assert_eq!(arena.read_region(r_out), expected_out());
    assert_eq!(arena.read_region(r_acc), vec![11.0; 4]);
    let rec = &report.records[0];
    assert!(rec.due_recovered);
    assert_eq!(rec.attempts, 4, "orig + replica + two re-executions");
    assert_eq!(rec.outcome, TaskOutcome::Completed);
}

#[test]
fn triple_crash_with_retries_eventually_recovers() {
    let plan = FaultPlan::new()
        .with(0, 0, ErrorClass::Due)
        .with(0, 1, ErrorClass::Due)
        .with(0, 2, ErrorClass::Due);
    let (mut arena, report, _log, r_out, _) = run_with_plan(plan);
    assert_eq!(arena.read_region(r_out), expected_out());
    assert_eq!(
        report.records[0].attempts, 5,
        "two crashes + retry crash + two clean copies"
    );
    assert_eq!(report.records[0].outcome, TaskOutcome::Completed);
}

#[test]
fn crash_retries_exhausted_reports_crashed() {
    let mut arena = DataArena::new();
    let (g, _r_in, _r_out, _r_acc) = build_square_graph(&mut arena);
    let plan = FaultPlan::new()
        .with(0, 0, ErrorClass::Due)
        .with(0, 1, ErrorClass::Due)
        .with(0, 2, ErrorClass::Due)
        .with(0, 3, ErrorClass::Due);
    let engine = Arc::new(
        ReplicationEngine::new(Arc::new(ReplicateAll), RateModel::roadrunner())
            .with_faults(
                Arc::new(plan),
                InjectionConfig::PerTask {
                    p_due: 0.0,
                    p_sdc: 0.0,
                    p_crash: 0.0,
                },
            )
            .with_max_crash_retries(2),
    );
    let report = Executor::sequential()
        .with_hooks(engine)
        .run(&g, &mut arena);
    assert_eq!(report.records[0].outcome, TaskOutcome::Crashed);
    assert_eq!(report.records[0].attempts, 4); // original + replica + 2 retries
}

#[test]
fn unreplicated_sdc_silently_corrupts_output() {
    let mut arena = DataArena::new();
    let (g, _r_in, r_out, r_acc) = build_square_graph(&mut arena);
    let plan = FaultPlan::new().with(0, 0, ErrorClass::Sdc);
    let engine = Arc::new(
        ReplicationEngine::new(Arc::new(ReplicateNone), RateModel::roadrunner()).with_faults(
            Arc::new(plan),
            InjectionConfig::PerTask {
                p_due: 0.0,
                p_sdc: 0.0,
                p_crash: 0.0,
            },
        ),
    );
    let log = engine.log();
    let report = Executor::sequential()
        .with_hooks(engine)
        .run(&g, &mut arena);
    // Exactly one f64 somewhere in the outputs differs by one bit.
    let out = arena.read_region(r_out);
    let acc = arena.read_region(r_acc);
    let mut flipped_bits = 0u32;
    for (got, want) in out
        .iter()
        .zip(expected_out())
        .chain(acc.iter().zip(vec![11.0; 4]))
    {
        flipped_bits += (got.to_bits() ^ want.to_bits()).count_ones();
    }
    assert_eq!(flipped_bits, 1, "exactly one bit flipped");
    assert!(report.records[0].uncovered_sdc);
    assert_eq!(log.counts().uncovered_sdc, 1);
}

#[test]
fn unreplicated_due_reports_crash() {
    let mut arena = DataArena::new();
    let (g, ..) = build_square_graph(&mut arena);
    let plan = FaultPlan::new().with(0, 0, ErrorClass::Due);
    let engine = Arc::new(
        ReplicationEngine::new(Arc::new(ReplicateNone), RateModel::roadrunner()).with_faults(
            Arc::new(plan),
            InjectionConfig::PerTask {
                p_due: 0.0,
                p_sdc: 0.0,
                p_crash: 0.0,
            },
        ),
    );
    let log = engine.log();
    let report = Executor::sequential()
        .with_hooks(engine)
        .run(&g, &mut arena);
    assert_eq!(report.records[0].outcome, TaskOutcome::Crashed);
    assert!(report.records[0].uncovered_due);
    assert_eq!(log.counts().uncovered_due, 1);
}

#[test]
fn checkpoint_stats_track_bytes() {
    let mut arena = DataArena::new();
    let (g, ..) = build_square_graph(&mut arena);
    let engine = Arc::new(ReplicationEngine::new(
        Arc::new(ReplicateAll),
        RateModel::roadrunner(),
    ));
    let stats_handle = Arc::clone(&engine);
    Executor::sequential()
        .with_hooks(engine)
        .run(&g, &mut arena);
    let stats = stats_handle.stats();
    assert_eq!(stats.checkpoints, 1);
    // Inputs: 8 (in) + 4 (inout) doubles.
    assert_eq!(stats.checkpoint_bytes, 12 * 8);
    assert_eq!(stats.compares, 1);
    // Outputs: 8 (out) + 4 (inout) doubles.
    assert_eq!(stats.compare_bytes, 12 * 8);
}

#[test]
fn probabilistic_injection_under_full_replication_preserves_results() {
    // High SDC rate + complete replication: every corruption must be
    // detected and corrected, leaving results bit-exact over a chain of
    // dependent tasks.
    let mut arena = DataArena::new();
    let v = arena.alloc_from("v", vec![1.0; 32]);
    let r = Region::full(v, 32);
    let mut g = TaskGraph::new();
    for _ in 0..40 {
        g.submit(TaskSpec::new("affine").updates(r).kernel(|ctx| {
            for x in ctx.w(0).as_mut_slice() {
                *x = 1.5 * *x + 0.25;
            }
        }));
    }
    let engine = Arc::new(
        ReplicationEngine::new(Arc::new(ReplicateAll), RateModel::roadrunner()).with_faults(
            Arc::new(SeededInjector::new(2024)),
            InjectionConfig::PerTask {
                p_due: 0.1,
                p_sdc: 0.25,
                p_crash: 0.0,
            },
        ),
    );
    let log = engine.log();
    let report = Executor::sequential()
        .with_hooks(engine)
        .run(&g, &mut arena);

    let mut expected = 1.0f64;
    for _ in 0..40 {
        expected = 1.5 * expected + 0.25;
    }
    assert!(
        arena.read(v).iter().all(|&x| x == expected),
        "bit-exact recovery"
    );
    assert!(!log.is_empty(), "faults were injected");
    assert_eq!(
        log.counts().uncovered_sdc,
        0,
        "replication covered all SDCs"
    );
    assert!(report
        .records
        .iter()
        .any(|r| r.sdc_detected || r.due_recovered));
}

#[test]
fn tolerance_comparator_ignores_tiny_divergence() {
    // A kernel that adds sub-tolerance noise per attempt: bitwise would
    // flag it; tolerance accepts it.
    use std::sync::atomic::{AtomicU64, Ordering};
    let calls = Arc::new(AtomicU64::new(0));
    let mut arena = DataArena::new();
    let v = arena.alloc("v", 4);
    let mut g = TaskGraph::new();
    let calls2 = Arc::clone(&calls);
    g.submit(
        TaskSpec::new("noisy")
            .writes(Region::full(v, 4))
            .kernel(move |ctx| {
                let k = calls2.fetch_add(1, Ordering::Relaxed) as f64;
                let noise = k * 1e-13;
                let mut w = ctx.w(0);
                for i in 0..4 {
                    w.set(i, 1.0 + noise);
                }
            }),
    );
    let engine = Arc::new(
        ReplicationEngine::new(Arc::new(ReplicateAll), RateModel::roadrunner())
            .with_comparator(Box::new(ToleranceComparator::new(1e-9))),
    );
    let report = Executor::sequential()
        .with_hooks(engine)
        .run(&g, &mut arena);
    assert!(!report.records[0].sdc_detected, "noise within tolerance");
    assert_eq!(report.records[0].attempts, 2);
}

/// A three-task chain (square → accumulate → double) over In, Out and
/// InOut regions: the tasks' outputs feed each other, so a wrong or
/// missing scatter anywhere shows in the final buffers.
fn build_chain_graph(arena: &mut DataArena) -> TaskGraph {
    let input = arena.alloc_from("in", (1..=8).map(|i| i as f64 * 0.75).collect());
    let squares = arena.alloc("sq", 8);
    let acc = arena.alloc_from("acc", vec![-0.0; 8]);
    let doubled = arena.alloc("dbl", 8);
    let full = |b| Region::full(b, 8);
    let mut g = TaskGraph::new();
    g.submit(
        TaskSpec::new("square")
            .reads(full(input))
            .writes(full(squares))
            .kernel(|ctx| {
                let x = ctx.r(0);
                let mut out = ctx.w(1);
                for i in 0..x.len() {
                    out.set(i, x.at(i) * x.at(i));
                }
            }),
    );
    g.submit(
        TaskSpec::new("accumulate")
            .reads(full(squares))
            .updates(full(acc))
            .kernel(|ctx| {
                let sq = ctx.r(0);
                let mut acc = ctx.w(1);
                for i in 0..sq.len() {
                    let v = acc.at(i);
                    acc.set(i, v + sq.at(i) / 3.0);
                }
            }),
    );
    g.submit(
        TaskSpec::new("double")
            .reads(full(acc))
            .writes(full(doubled))
            .kernel(|ctx| {
                let acc = ctx.r(0);
                let mut out = ctx.w(1);
                for i in 0..acc.len() {
                    out.set(i, acc.at(i) * 2.0);
                }
            }),
    );
    g
}

/// Every buffer's bits after running the chain with `hooks`.
fn chain_bits(
    hooks: Arc<dyn dataflow_rt::ExecutionHooks>,
) -> (Vec<Vec<u64>>, dataflow_rt::RunReport) {
    let mut arena = DataArena::new();
    let g = build_chain_graph(&mut arena);
    let report = Executor::sequential().with_hooks(hooks).run(&g, &mut arena);
    let bits = (0..arena.buffer_count())
        .map(|i| {
            let id = dataflow_rt::BufferId::from_raw(i as u32);
            arena.read(id).iter().map(|x| x.to_bits()).collect()
        })
        .collect();
    (bits, report)
}

/// Adopting the original's copy skips its scatter (the arena already
/// holds it). Across the fault-free, SDC and DUE paths the arena, the
/// records and the fault log are what full scatters gave; only
/// `restores` shows which paths wrote outputs back.
#[test]
fn adopting_the_original_skips_the_scatter_without_changing_results() {
    let plain = Arc::new(ReplicationEngine::new(
        Arc::new(ReplicateNone),
        RateModel::roadrunner(),
    ));
    let (want_bits, _) = chain_bits(plain);
    /// Faults scripted on task 1 as `(attempt, class)`.
    type Faults = Vec<(u32, ErrorClass)>;
    // (faults, task 1's attempts, sdc_detected, due_recovered, restores).
    let cases: [(Faults, u32, bool, bool, u64); 6] = [
        (vec![], 2, false, false, 0),
        // Corrupted original: the vote winner is scattered.
        (vec![(0, ErrorClass::Sdc)], 3, true, false, 1),
        // Corrupted replica: the vote winner is scattered.
        (vec![(1, ErrorClass::Sdc)], 3, true, false, 1),
        // Crashed original: the agreeing replica is scattered.
        (vec![(0, ErrorClass::Due)], 3, false, true, 1),
        // Crashed replica: the original agrees with the re-execution
        // and is adopted in place.
        (vec![(1, ErrorClass::Due)], 3, false, true, 0),
        // Both crash: two re-executions agree, the first is scattered.
        (
            vec![(0, ErrorClass::Due), (1, ErrorClass::Due)],
            4,
            false,
            true,
            1,
        ),
    ];
    for (faults, attempts, sdc_detected, due_recovered, restores) in cases {
        let plan = faults
            .iter()
            .fold(FaultPlan::new(), |p, &(attempt, class)| {
                p.with(1, attempt, class)
            });
        let engine = Arc::new(
            ReplicationEngine::new(Arc::new(ReplicateAll), RateModel::roadrunner()).with_faults(
                Arc::new(plan),
                InjectionConfig::PerTask {
                    p_due: 0.0,
                    p_sdc: 0.0,
                    p_crash: 0.0,
                },
            ),
        );
        let log = engine.log();
        let (bits, report) = chain_bits(engine.clone());
        let what = format!("faults {faults:?}");
        assert_eq!(bits, want_bits, "{what}: arena");
        for rec in &report.records {
            let hit = rec.task.index() == 1;
            assert!(rec.replicated, "{what}");
            assert_eq!(rec.outcome, TaskOutcome::Completed, "{what}");
            assert_eq!(rec.attempts, if hit { attempts } else { 2 }, "{what}");
            assert_eq!(rec.sdc_detected, hit && sdc_detected, "{what}");
            assert_eq!(rec.sdc_corrected, hit && sdc_detected, "{what}");
            assert_eq!(rec.due_recovered, hit && due_recovered, "{what}");
            assert!(!rec.uncovered_sdc && !rec.uncovered_due, "{what}");
        }
        let events: Vec<_> = log
            .events()
            .iter()
            .map(|e| (e.task, e.attempt, e.class, e.covered))
            .collect();
        let want_events: Vec<_> = faults.iter().map(|&(a, c)| (1, a, c, true)).collect();
        assert_eq!(events, want_events, "{what}: fault log");
        assert_eq!(engine.stats().restores, restores, "{what}: restores");
    }
}

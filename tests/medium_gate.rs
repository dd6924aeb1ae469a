//! The Medium-scale release gate: the nine Table-I apps at
//! [`Scale::Medium`] on two threads under replicate-all with seeded
//! per-task faults. Every app must pass its verifier (the O(n²)
//! residual checks for the linear-algebra apps) with no uncovered
//! fault. Ignored by default — minutes in a debug build; run with
//! `cargo test --release -- --ignored` (as `scripts/verify.sh` does).

use std::sync::Arc;

use appfit::dataflow::Executor;
use appfit::fault::{InjectionConfig, SeededInjector};
use appfit::fit::RateModel;
use appfit::heuristic::ReplicateAll;
use appfit::replication::ReplicationEngine;
use appfit::workloads::{all_workloads, Scale};

#[test]
#[ignore = "Medium scale; run in release with `cargo test --release -- --ignored`"]
fn medium_apps_verify_under_replicate_all_with_faults() {
    let mut injected = 0;
    for (i, w) in all_workloads().iter().enumerate() {
        let mut built = w.build(Scale::Medium, 1, true);
        let engine = ReplicationEngine::new(Arc::new(ReplicateAll), RateModel::roadrunner())
            .with_faults(
                Arc::new(SeededInjector::new(0x4d45_4449 + i as u64)),
                InjectionConfig::PerTask {
                    p_due: 0.005,
                    p_sdc: 0.005,
                    p_crash: 0.0,
                },
            );
        let log = engine.log();
        Executor::new(2)
            .with_hooks(Arc::new(engine))
            .run(&built.graph, &mut built.arena);
        (built.verify)(&mut built.arena)
            .unwrap_or_else(|e| panic!("{} at Medium scale: {e}", w.name()));
        let counts = log.counts();
        assert_eq!(
            counts.uncovered_sdc + counts.uncovered_due,
            0,
            "{}: uncovered faults under replicate-all",
            w.name()
        );
        injected += counts.sdc + counts.due;
    }
    assert!(injected > 0, "the seeded injector fired no fault at all");
}

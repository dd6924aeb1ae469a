//! `sim-lookahead` and `sim-batch`: million-task cells through
//! `scenario::{build_graph, run_on}`.
//!
//! Each graph is built once (set-up) and then run under a fresh fault
//! seed per op, derived from the workload seed. An op is one run of
//! every cell of the mix; ops repeat until the run's time is up. Every
//! run must simulate exactly its graph's tasks, and App_FIT must end
//! within its bound ([`fit_allowed`]). Op 0 runs untimed first and is
//! repeated at the end; it must reproduce its makespan and FIT bit for
//! bit.

use std::time::Instant;

use cluster_sim::{DeliveryStats, SimGraph};
use scenario::{build_graph, preset, run_on, EngineSpec, ScenarioSpec};

use crate::report::Results;
use crate::stats::{blocked_tail, median, mix, Failure, Tally};
use crate::trace::{Span, Tracer};
use crate::Ctx;

/// Which cells a sim workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// `lookahead-1m`: exact-time dispatch and the delivery calendar.
    Lookahead,
    /// `sweep-1m` (epoch sync) plus `stress-huge-cholesky` (sequential
    /// engine, streamed Huge build).
    Batch,
}

impl Mix {
    /// Graph builds per run; `setup_s` is their median. `sim-batch`'s
    /// streamed Huge build takes over a second, so it builds fewer times.
    fn setups(self) -> usize {
        match self {
            Mix::Lookahead => 9,
            Mix::Batch => 3,
        }
    }
}

/// Engine threads: the benchmark host has two cores.
const MAX_THREADS: usize = 2;

/// The highest final App_FIT a cell may report. The sequential engine
/// must end at or under the threshold. Sharded engines decide against
/// global state up to one synchronization window stale, so there the
/// threshold "can transiently overshoot by at most one window's worth
/// of concurrently admitted unprotected work" (ARCHITECTURE.md, sharded
/// engine contract): the bound allows one average window's share of
/// the threshold, `threshold / windows`. `sweep-1m` (16 epochs) ends
/// about 2.4 % over, `lookahead-1m` (~700 windows) about 4e-6 over;
/// the measured ratio is reported as `appfit-core.fit_over_threshold`.
fn fit_allowed(threshold: f64, delivery: Option<&DeliveryStats>) -> f64 {
    match delivery {
        None => threshold,
        Some(d) => threshold * (1.0 + 1.0 / d.windows.max(1) as f64),
    }
}

fn cells(mix: Mix) -> Vec<ScenarioSpec> {
    let names: &[&str] = match mix {
        Mix::Lookahead => &["lookahead-1m"],
        Mix::Batch => &["sweep-1m", "stress-huge-cholesky"],
    };
    names
        .iter()
        .map(|name| {
            let mut spec = preset(name).expect("preset in the catalog");
            if let EngineSpec::Sharded { threads, .. } = &mut spec.engine {
                *threads = (*threads).min(MAX_THREADS);
            }
            spec
        })
        .collect()
}

/// What one cell run produced, kept for the bit-for-bit repeat check
/// and the per-layer counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct CellFacts {
    makespan_bits: u64,
    fit_bits: Option<u64>,
    decisions: u64,
    replicated: u64,
    sdc: u64,
    due: u64,
    uncovered: u64,
    delivery: Option<DeliveryStats>,
}

/// One measured phase of the op loop.
struct Phase {
    /// Seconds inside `run_on`, per op.
    op_secs: Vec<f64>,
    /// Simulated tasks per op (every op runs the same graphs).
    op_tasks: u64,
}

impl Phase {
    /// Simulated tasks per second inside `run_on`, at the median op.
    fn tasks_per_s(&self) -> f64 {
        self.op_tasks as f64 / median(&self.op_secs)
    }
}

struct Bench {
    specs: Vec<ScenarioSpec>,
    graphs: Vec<SimGraph>,
    seed: u64,
    tally: Tally,
    /// Facts of op 0, per cell.
    first: Option<Vec<CellFacts>>,
    /// Highest final App_FIT ÷ threshold seen.
    fit_over_threshold: f64,
}

impl Bench {
    /// Runs every cell once under op `op`'s fault seed.
    fn op(&mut self, op: u64, tracer: &Tracer) -> (f64, Vec<CellFacts>) {
        let fault_seed = mix(self.seed, op);
        let mut secs = 0.0;
        let mut facts = Vec::new();
        tracer.span("perfbench::sim_op", None, op, |parent| {
            for (spec, graph) in self.specs.iter().zip(&self.graphs) {
                let mut spec = spec.clone();
                spec.faults.seed = fault_seed;
                let start = Instant::now();
                let outcome = tracer.span("scenario::run_on", parent, op, |_| {
                    run_on(&spec, graph, None)
                });
                secs += start.elapsed().as_secs_f64();
                let outcome = match outcome {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        self.tally
                            .fail(Failure::Panicked, format!("{}: {e}", spec.name));
                        continue;
                    }
                };
                let report = &outcome.report;
                let mut result = Ok(());
                if report.records().len() != graph.len() {
                    result = Err((
                        Failure::Mismatch,
                        format!(
                            "{}: {} records for {} tasks",
                            spec.name,
                            report.records().len(),
                            graph.len()
                        ),
                    ));
                }
                let appfit = outcome.appfit;
                if let Some(a) = appfit {
                    self.fit_over_threshold =
                        self.fit_over_threshold.max(a.current_fit / a.threshold);
                    if a.current_fit > fit_allowed(a.threshold, outcome.delivery.as_ref()) {
                        result = Err((
                            Failure::Mismatch,
                            format!(
                                "{}: App_FIT {} past its bound (threshold {})",
                                spec.name, a.current_fit, a.threshold
                            ),
                        ));
                    }
                }
                self.tally.record(result);
                facts.push(CellFacts {
                    makespan_bits: report.makespan.to_bits(),
                    fit_bits: appfit.map(|a| a.current_fit.to_bits()),
                    decisions: appfit.map_or(0, |a| a.decided),
                    replicated: appfit.map_or(0, |a| a.replicated),
                    sdc: (report.sdc_detected_count() + report.uncovered_sdc_count()) as u64,
                    due: (report.due_recovered_count() + report.uncovered_due_count()) as u64,
                    uncovered: (report.uncovered_sdc_count() + report.uncovered_due_count()) as u64,
                    delivery: outcome.delivery,
                });
            }
        });
        (secs, facts)
    }

    /// Op 0: warms allocator and caches before timing starts, and is
    /// the reference [`Bench::repeat_first`] checks against.
    fn warm_up(&mut self) {
        let (_, facts) = self.op(0, &Tracer::new(false));
        self.first = Some(facts);
    }

    /// Runs ops `next..` until `seconds` have passed.
    fn phase(&mut self, next: &mut u64, seconds: f64, tracer: &Tracer) -> Phase {
        let mut phase = Phase {
            op_secs: Vec::new(),
            op_tasks: self.graphs.iter().map(|g| g.len() as u64).sum(),
        };
        let start = Instant::now();
        while phase.op_secs.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let (secs, _) = self.op(*next, tracer);
            *next += 1;
            phase.op_secs.push(secs);
        }
        phase
    }

    /// Repeats op 0 and checks its makespan and FIT bits.
    fn repeat_first(&mut self) {
        let (_, again) = self.op(0, &Tracer::new(false));
        let first = self.first.clone().unwrap_or_default();
        let same = first.len() == again.len()
            && first
                .iter()
                .zip(&again)
                .all(|(a, b)| a.makespan_bits == b.makespan_bits && a.fit_bits == b.fit_bits);
        if same {
            self.tally.ok();
        } else {
            self.tally.fail(
                Failure::Mismatch,
                "op 0 did not reproduce its makespan and FIT bits",
            );
        }
    }
}

/// Runs a sim workload.
pub fn run(ctx: Ctx, mix_kind: Mix) -> (Results, Vec<Span>) {
    let tracer = Tracer::new(ctx.traced);
    let specs = cells(mix_kind);

    // Set-up: build every graph several times, keeping the last set.
    let mut setups = Vec::new();
    let mut graphs: Vec<SimGraph> = Vec::new();
    for k in 0..mix_kind.setups() {
        graphs.clear();
        let start = Instant::now();
        for spec in &specs {
            let graph = tracer.span("scenario::build_graph", None, k as u64, |_| {
                build_graph(spec)
            });
            graphs.push(graph.expect("preset graphs build"));
        }
        setups.push(start.elapsed().as_secs_f64());
    }

    let mut bench = Bench {
        specs,
        graphs,
        seed: ctx.seed,
        tally: Tally::default(),
        first: None,
        fit_over_threshold: 0.0,
    };
    let mut results = Results::default();
    bench.warm_up();
    let mut next = 1u64;
    if ctx.traced {
        // Untraced half, then traced half: their throughput difference
        // is the tracing overhead.
        let plain = bench.phase(&mut next, ctx.seconds / 2.0, &Tracer::new(false));
        let traced = bench.phase(&mut next, ctx.seconds / 2.0, &tracer);
        bench.repeat_first();
        let first = bench.first.clone().unwrap_or_default();
        let sum = |f: fn(&CellFacts) -> u64| first.iter().map(f).sum::<u64>() as f64;
        let delivery = |f: fn(&DeliveryStats) -> u64| {
            first
                .iter()
                .filter_map(|c| c.delivery.as_ref())
                .map(f)
                .sum::<u64>() as f64
        };
        let decisions = sum(|c| c.decisions);
        results.set("cluster-sim.run_s", median(&traced.op_secs));
        results.set("cluster-sim.ns_per_task", 1e9 / traced.tasks_per_s());
        results.set(
            "cluster-sim.delivery.events_coalesced",
            delivery(|d| d.events_coalesced),
        );
        results.set(
            "cluster-sim.delivery.delivery_batches",
            delivery(|d| d.delivery_batches),
        );
        results.set(
            "cluster-sim.delivery.heap_pushes_avoided",
            delivery(|d| d.heap_pushes_avoided),
        );
        results.set(
            "cluster-sim.delivery.batches_recycled",
            delivery(|d| d.batches_recycled),
        );
        results.set("cluster-sim.delivery.windows", delivery(|d| d.windows));
        results.set(
            "cluster-sim.makespan_s",
            first
                .first()
                .map_or(0.0, |c| f64::from_bits(c.makespan_bits)),
        );
        results.set("scenario.build_graph_s", median(&setups));
        results.set("appfit-core.decisions", decisions);
        results.set(
            "appfit-core.replicated_frac",
            sum(|c| c.replicated) / decisions.max(1.0),
        );
        results.set("appfit-core.fit_over_threshold", bench.fit_over_threshold);
        results.set("fault-inject.sdc", sum(|c| c.sdc));
        results.set("fault-inject.due", sum(|c| c.due));
        results.set("fault-inject.uncovered", sum(|c| c.uncovered));
        results.set(
            "bench.tracing_overhead",
            plain.tasks_per_s() / traced.tasks_per_s() - 1.0,
        );
        results.set(
            "bench.tail_percentile",
            blocked_tail(&plain.op_secs).percentile,
        );
        results.note("ops_untraced", plain.op_secs.len());
        results.note("ops_traced", traced.op_secs.len());
    } else {
        let phase = bench.phase(&mut next, ctx.seconds, &Tracer::new(false));
        bench.repeat_first();
        let t = blocked_tail(&phase.op_secs);
        results.set("setup_s", median(&setups));
        results.set("peak_rss_mb", crate::provenance::peak_rss_mb(None));
        results.set("tasks_per_s", phase.tasks_per_s());
        results.set("op_p50_ms", median(&phase.op_secs) * 1e3);
        results.set("op_tail_ms", t.value * 1e3);
        results.note("ops", phase.op_secs.len());
        results.note("op_secs", phase.op_secs.clone());
        results.note("tail_percentile", t.percentile);
        results.note("tail_samples", t.samples);
        results.note("tail_blocks", t.blocks);
    }
    results.note("setup_secs", setups);
    results.note(
        "cells",
        crate::report::Json::Arr(bench.specs.iter().map(|s| s.name.as_str().into()).collect()),
    );
    results.set("bench.error_rate", bench.tally.error_rate());
    results.tally = bench.tally;
    (results, tracer.into_spans())
}

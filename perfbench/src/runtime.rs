//! `runtime-appfit`: the nine Table-I apps on the real runtime —
//! `dataflow_rt::Executor::run` on two threads with a
//! `task_replication::ReplicationEngine` as its hooks.
//!
//! The apps run in a worker child process (this binary, started with
//! [`WORKER_COMMAND`]) that materializes them at Medium scale once and
//! then executes one op per request: restore an app's pristine inputs,
//! run it in one mix, verify the result numerically. The parent gives
//! every op a deadline; an op that misses it failed, and the worker is
//! killed and started again. This is not caution: `Executor::run` on
//! more than one thread never returns when a task panics (the panicking
//! worker never decrements the remaining-task count, so its siblings
//! park forever), and an uncovered SDC makes Cholesky's `dpotrf` panic.
//! The traced run measures how often that happens (`dataflow-rt.hung_runs`).
//!
//! Mixes, each over the nine apps:
//! * unprotected — `ReplicateNone`, no faults;
//! * Fig. 4 — App_FIT at 50 % of the 10× FIT, no faults;
//! * Fig. 5 — replicate-all with p_due = p_sdc = 0.005;
//! * probe (traced run only) — App_FIT at 50 % with the Fig.-5 faults,
//!   which leaves faults uncovered.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use appfit_core::{
    AppFit, AppFitConfig, DecisionCtx, ReplicateAll, ReplicateNone, ReplicationPolicy,
};
use dataflow_rt::{BufferId, ExecRecord, ExecutionHooks, Executor, TaskExecution};
use fault_inject::{InjectionConfig, SeededInjector};
use fit_model::{Fit, RateModel};
use task_replication::ReplicationEngine;
use workloads::{all_workloads, BuiltWorkload, Scale};

use crate::report::Results;
use crate::stats::{blocked_tail, median, mix, Failure, Tally};
use crate::trace::{Span, Tracer};
use crate::Ctx;

/// First argument that makes this binary a runtime worker.
pub const WORKER_COMMAND: &str = "runtime-worker";

/// Executor threads.
const THREADS: usize = 2;
/// App materializations in the first worker; `setup_s` is their median.
const SETUPS: usize = 9;
/// Deadline of one measured op (a normal op takes well under a second).
const OP_DEADLINE: Duration = Duration::from_secs(30);
/// Deadline of one probe op; a miss counts as a hung run.
const PROBE_DEADLINE: Duration = Duration::from_secs(10);
/// Deadline for a worker to materialize its apps.
const SETUP_DEADLINE: Duration = Duration::from_secs(150);
/// Passes of the probe mix over the nine apps in a traced run.
const PROBE_PASSES: u64 = 4;
/// Per-execution fault probabilities of the faulty mixes.
const P_FAULT: f64 = 0.005;
/// Error-rate multiplier of the paper's exascale scenario.
const RATE_MULTIPLIER: f64 = 10.0;
/// App_FIT's target as a share of the apps' 10× FIT.
const TARGET_FRACTION: f64 = 0.5;

/// How an op protects its app.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// `ReplicateNone`, no faults.
    Unprotected,
    /// App_FIT at 50 %, no faults (Fig. 4).
    Fig4,
    /// Replicate-all with faults (Fig. 5).
    Fig5,
    /// App_FIT at 50 % with faults; leaves faults uncovered.
    Probe,
}

impl Protection {
    const MEASURED: [Protection; 3] = [Protection::Unprotected, Protection::Fig4, Protection::Fig5];

    fn word(self) -> &'static str {
        match self {
            Protection::Unprotected => "unprotected",
            Protection::Fig4 => "fig4",
            Protection::Fig5 => "fig5",
            Protection::Probe => "probe",
        }
    }

    fn parse(word: &str) -> Option<Self> {
        [
            Protection::Unprotected,
            Protection::Fig4,
            Protection::Fig5,
            Protection::Probe,
        ]
        .into_iter()
        .find(|p| p.word() == word)
    }

    fn faulty(self) -> bool {
        matches!(self, Protection::Fig5 | Protection::Probe)
    }
}

// ---------------------------------------------------------------- worker

/// Times `ReplicationPolicy::decide` calls.
struct TimedPolicy {
    inner: Arc<dyn ReplicationPolicy>,
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl ReplicationPolicy for TimedPolicy {
    fn decide(&self, ctx: &DecisionCtx) -> bool {
        let start = Instant::now();
        let replicate = self.inner.decide(ctx);
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        replicate
    }

    fn on_complete(&self, ctx: &DecisionCtx, replicated: bool) {
        self.inner.on_complete(ctx, replicated);
    }

    fn on_replica_failed(&self, ctx: &DecisionCtx) {
        self.inner.on_replica_failed(ctx);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times `ExecutionHooks::execute` calls.
struct TimedHooks {
    inner: Arc<ReplicationEngine>,
    nanos: AtomicU64,
}

impl ExecutionHooks for TimedHooks {
    fn execute(&self, exec: &mut TaskExecution<'_>) -> ExecRecord {
        let start = Instant::now();
        let record = self.inner.execute(exec);
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        record
    }
}

/// One materialized app and a copy of its inputs.
struct App {
    built: BuiltWorkload,
    pristine: Vec<Option<Vec<f64>>>,
    /// App_FIT's threshold: half the app's FIT at 10× rates.
    threshold: f64,
    tasks: u64,
}

impl App {
    fn materialize(w: &dyn workloads::Workload, rates: &RateModel) -> App {
        let mut built = w.build(Scale::Medium, 1, true);
        let pristine = (0..built.arena.buffer_count())
            .map(|i| {
                let id = BufferId::from_raw(i as u32);
                (!built.arena.is_virtual(id)).then(|| built.arena.read(id).to_vec())
            })
            .collect();
        let threshold = TARGET_FRACTION
            * built
                .graph
                .tasks()
                .map(|t| {
                    rates
                        .rates_for_arguments(t.accesses.iter().map(|a| a.bytes()))
                        .total()
                        .value()
                })
                .sum::<f64>();
        let tasks = built.graph.compute_task_count() as u64;
        App {
            built,
            pristine,
            threshold,
            tasks,
        }
    }

    fn restore(&mut self) {
        for (i, data) in self.pristine.iter().enumerate() {
            if let Some(data) = data {
                self.built
                    .arena
                    .write(BufferId::from_raw(i as u32))
                    .copy_from_slice(data);
            }
        }
    }

    /// Runs the app once; returns the reply fields.
    fn run(
        &mut self,
        protection: Protection,
        traced: bool,
        fault_seed: u64,
        rates: &RateModel,
    ) -> String {
        self.restore();
        let mut appfit = None;
        let base: Arc<dyn ReplicationPolicy> = match protection {
            Protection::Unprotected => Arc::new(ReplicateNone),
            Protection::Fig5 => Arc::new(ReplicateAll),
            Protection::Fig4 | Protection::Probe => {
                let h = Arc::new(AppFit::new(AppFitConfig::new(
                    Fit::new(self.threshold),
                    self.tasks.max(1),
                )));
                appfit = Some(Arc::clone(&h));
                h
            }
        };
        let timed_policy = traced.then(|| {
            Arc::new(TimedPolicy {
                inner: base.clone(),
                nanos: AtomicU64::new(0),
                calls: AtomicU64::new(0),
            })
        });
        let policy: Arc<dyn ReplicationPolicy> = match &timed_policy {
            Some(t) => t.clone(),
            None => base,
        };
        let mut engine = ReplicationEngine::new(policy, *rates);
        if protection.faulty() {
            engine = engine.with_faults(
                Arc::new(SeededInjector::new(fault_seed)),
                InjectionConfig::PerTask {
                    p_due: P_FAULT,
                    p_sdc: P_FAULT,
                    p_crash: 0.0,
                },
            );
        }
        let log = engine.log();
        let engine = Arc::new(engine);
        let timed_hooks = traced.then(|| {
            Arc::new(TimedHooks {
                inner: Arc::clone(&engine),
                nanos: AtomicU64::new(0),
            })
        });
        let hooks: Arc<dyn ExecutionHooks> = match &timed_hooks {
            Some(t) => t.clone(),
            None => engine.clone(),
        };
        let report = Executor::new(THREADS)
            .with_hooks(hooks)
            .run(&self.built.graph, &mut self.built.arena);

        let start = Instant::now();
        let verified = (self.built.verify)(&mut self.built.arena);
        let verify_ns = start.elapsed().as_nanos();

        let counts = log.counts();
        let stats = engine.stats();
        let replicas: u64 = report
            .records
            .iter()
            .filter(|r| r.replicated)
            .map(|r| u64::from(r.attempts.saturating_sub(1)))
            .sum();
        let mut out = format!(
            "wall_ns={} tasks={} verify_ok={} verify_ns={verify_ns} sdc={} due={} uncovered={} \
             replicas={replicas} sdc_detected={} sdc_corrected={} due_recovered={} checkpoint_bytes={} \
             compare_bytes={} base_ns={} hook_ns={} decide_ns={} decide_calls={}",
            report.makespan.as_nanos(),
            report.task_count(),
            verified.is_ok() as u8,
            counts.sdc,
            counts.due,
            counts.uncovered_sdc + counts.uncovered_due,
            report.sdc_detected_count(),
            report.sdc_corrected_count(),
            report.due_recovered_count(),
            stats.checkpoint_bytes,
            stats.compare_bytes,
            report.base_kernel_time().as_nanos(),
            timed_hooks.as_ref().map_or(0, |t| t.nanos.load(Ordering::Relaxed)),
            timed_policy.as_ref().map_or(0, |t| t.nanos.load(Ordering::Relaxed)),
            timed_policy.as_ref().map_or(0, |t| t.calls.load(Ordering::Relaxed)),
        );
        if let Some(h) = appfit {
            out.push_str(&format!(
                " decided={} replicated={} fit={} threshold={}",
                h.decided(),
                h.replicated(),
                h.current_fit().value(),
                h.threshold().value()
            ));
        }
        out
    }
}

/// Entry point of the worker child: `runtime-worker <setups>`. Reads
/// `op <mix> <app> <traced 0|1> <fault seed>` lines from stdin, answers
/// each with one `res key=value…` line on stdout.
pub fn worker_main(args: &[String]) -> ExitCode {
    let setups: usize = args
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);
    let rates = RateModel::roadrunner().with_multiplier(RATE_MULTIPLIER);
    let mut apps = Vec::new();
    let mut times = Vec::new();
    for _ in 0..setups {
        apps.clear();
        let start = Instant::now();
        for w in all_workloads() {
            apps.push(App::materialize(w.as_ref(), &rates));
        }
        times.push(start.elapsed().as_secs_f64().to_string());
    }
    let mut out = std::io::stdout().lock();
    if writeln!(
        out,
        "ready setups={} apps={} peak_rss_mb={}",
        times.join(","),
        apps.len(),
        crate::provenance::peak_rss_mb(None)
    )
    .and_then(|_| out.flush())
    .is_err()
    {
        return ExitCode::from(1);
    }
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let words: Vec<&str> = line.split_whitespace().collect();
        let reply = match words.as_slice() {
            ["op", mix, app, traced, seed] => {
                match (
                    Protection::parse(mix),
                    app.parse::<usize>(),
                    seed.parse::<u64>(),
                ) {
                    (Some(p), Ok(app), Ok(seed)) if app < apps.len() => {
                        let fields = apps[app].run(p, *traced == "1", seed, &rates);
                        format!(
                            "res {fields} peak_rss_mb={}",
                            crate::provenance::peak_rss_mb(None)
                        )
                    }
                    _ => format!("err bad request {line}"),
                }
            }
            ["quit"] => break,
            _ => format!("err bad request {line}"),
        };
        if writeln!(out, "{reply}").and_then(|_| out.flush()).is_err() {
            break;
        }
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------- parent

/// Parses `key=value` fields into numbers.
fn fields(line: &str) -> BTreeMap<String, f64> {
    line.split_whitespace()
        .filter_map(|w| w.split_once('='))
        .filter_map(|(k, v)| v.parse::<f64>().ok().map(|v| (k.to_string(), v)))
        .collect()
}

/// Why an op got no reply.
enum NoReply {
    TimedOut,
    Died,
}

/// A worker child with a reader thread turning its stdout into lines.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    lines: Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
    peak_rss_mb: f64,
}

impl Worker {
    /// Starts a worker and waits for its apps; returns it with the
    /// `ready` line's fields.
    fn spawn(setups: usize) -> Result<(Worker, String), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut child = Command::new(exe)
            .args([WORKER_COMMAND, &setups.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning runtime worker: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut worker = Worker {
            child,
            stdin,
            lines,
            reader: Some(reader),
            peak_rss_mb: 0.0,
        };
        match worker.lines.recv_timeout(SETUP_DEADLINE) {
            Ok(line) if line.starts_with("ready ") => Ok((worker, line)),
            other => {
                worker.stop();
                Err(format!("runtime worker did not get ready: {other:?}"))
            }
        }
    }

    /// Sends one request and waits up to `deadline` for its reply.
    fn request(&mut self, line: &str, deadline: Duration) -> Result<String, NoReply> {
        if writeln!(self.stdin, "{line}")
            .and_then(|_| self.stdin.flush())
            .is_err()
        {
            return Err(NoReply::Died);
        }
        match self.lines.recv_timeout(deadline) {
            Ok(reply) => {
                if let Some(rss) = fields(&reply).get("peak_rss_mb") {
                    self.peak_rss_mb = self.peak_rss_mb.max(*rss);
                }
                Ok(reply)
            }
            Err(RecvTimeoutError::Timeout) => Err(NoReply::TimedOut),
            Err(RecvTimeoutError::Disconnected) => Err(NoReply::Died),
        }
    }

    /// Stops the worker (asks, then kills) and waits for it and its
    /// reader thread.
    fn stop(&mut self) {
        let _ = writeln!(self.stdin, "quit").and_then(|_| self.stdin.flush());
        crate::wait_or_kill(&mut self.child, Duration::from_secs(5));
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One measured op's reply.
type Reply = BTreeMap<String, f64>;

/// The parent's side of the workload.
struct Bench {
    worker: Option<Worker>,
    apps: usize,
    seed: u64,
    tally: Tally,
    respawns: u64,
    peak_rss_mb: f64,
    /// Fig.-5 fault counts per app from the first Fig.-5 round.
    fig5_counts: Vec<Option<(f64, f64, f64)>>,
}

/// One measured phase: whole rounds of every measured mix over every
/// app.
#[derive(Default)]
struct Phase {
    /// Per-op `Executor::run` seconds.
    walls: Vec<f64>,
    /// `Executor::run` seconds and executed tasks of each round, per
    /// (mix, app).
    by_op: BTreeMap<(usize, usize), (Vec<f64>, Vec<f64>)>,
    rounds: Vec<Round>,
    /// Σ `Executor::run` seconds per mix (unprotected, Fig. 4, Fig. 5).
    mix_secs: [f64; 3],
    /// The first round's replies, in op order.
    first: Vec<(Protection, Reply)>,
    /// Σ `decide` time and calls in the Fig.-4 mix (traced ops only).
    decide_ns: f64,
    decide_calls: f64,
}

/// Per-round sums, in seconds (tasks: count).
#[derive(Default, Clone, Copy)]
struct Round {
    /// Inside `Executor::run`.
    run: f64,
    /// Inside `ExecutionHooks::execute` (traced ops only).
    hook: f64,
    /// `RunReport::base_kernel_time`.
    base: f64,
    /// Inside the workloads' verifiers.
    verify: f64,
    tasks: f64,
}

impl Phase {
    /// Executed tasks per second inside `Executor::run`, with every
    /// (mix, app) op at its median over the rounds: a slow moment of the
    /// host slows the few ops it falls on, not a whole round.
    fn tasks_per_s(&self) -> f64 {
        let (tasks, secs) = self
            .by_op
            .values()
            .fold((0.0, 0.0), |(tasks, secs), (walls, counts)| {
                (tasks + median(counts), secs + median(walls))
            });
        tasks / secs
    }

    fn round_median(&self, f: impl Fn(&Round) -> f64) -> f64 {
        median(&self.rounds.iter().map(f).collect::<Vec<_>>())
    }
}

impl Bench {
    fn worker(&mut self) -> Result<&mut Worker, String> {
        if self.worker.is_none() {
            let (worker, _) = Worker::spawn(1)?;
            self.respawns += 1;
            self.worker = Some(worker);
        }
        Ok(self.worker.as_mut().expect("worker just started"))
    }

    fn retire_worker(&mut self) {
        if let Some(mut w) = self.worker.take() {
            self.peak_rss_mb = self.peak_rss_mb.max(w.peak_rss_mb);
            w.stop();
        }
    }

    /// One op with a deadline; a miss kills the worker.
    fn op(
        &mut self,
        p: Protection,
        app: usize,
        traced: bool,
        fault_seed: u64,
        deadline: Duration,
    ) -> Result<Reply, (Failure, String)> {
        let line = format!("op {} {app} {} {fault_seed}", p.word(), traced as u8);
        let worker = self.worker().map_err(|e| (Failure::Panicked, e))?;
        match worker.request(&line, deadline) {
            Ok(reply) if reply.starts_with("res ") => Ok(fields(&reply)),
            Ok(reply) => Err((Failure::Panicked, reply)),
            Err(no) => {
                self.retire_worker();
                Err(match no {
                    NoReply::TimedOut => (
                        Failure::TimedOut,
                        format!("{line}: no reply in {deadline:?}"),
                    ),
                    NoReply::Died => (Failure::Panicked, format!("{line}: worker died")),
                })
            }
        }
    }

    /// Checks a covered op's reply.
    fn check(&mut self, p: Protection, app: usize, r: &Reply) -> Result<(), (Failure, String)> {
        if r.get("verify_ok") != Some(&1.0) {
            return Err((
                Failure::Verify,
                format!("app {app} ({}) failed verification", p.word()),
            ));
        }
        if r.get("uncovered") != Some(&0.0) {
            return Err((
                Failure::Verify,
                format!("app {app} ({}): uncovered faults", p.word()),
            ));
        }
        if p == Protection::Fig5 {
            let counts = (r["sdc"], r["due"], r["uncovered"]);
            match self.fig5_counts[app] {
                None => self.fig5_counts[app] = Some(counts),
                Some(first) if first == counts => {}
                Some(first) => {
                    return Err((
                        Failure::Mismatch,
                        format!("app {app}: Fig.-5 fault counts {counts:?} differ from {first:?}"),
                    ))
                }
            }
        }
        if let (Some(fit), Some(threshold)) = (r.get("fit"), r.get("threshold")) {
            if fit > threshold {
                return Err((
                    Failure::Mismatch,
                    format!("app {app}: App_FIT {fit} over {threshold}"),
                ));
            }
        }
        Ok(())
    }

    /// Whole rounds until `seconds` have passed.
    fn phase(&mut self, seconds: f64, traced: bool, tracer: &Tracer, round_base: u64) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        let fault_seed = mix(self.seed, 5);
        while phase.rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let round = round_base + phase.rounds.len() as u64;
            let mut sums = Round::default();
            for (m, p) in Protection::MEASURED.into_iter().enumerate() {
                for app in 0..self.apps {
                    let op = (round << 16) | ((m as u64) << 8) | app as u64;
                    let begin = tracer.clock();
                    let reply = tracer.span("perfbench::runtime_op", None, op, |parent| {
                        let reply = self.op(p, app, traced, fault_seed, OP_DEADLINE);
                        if let Ok(r) = &reply {
                            // The worker timed the kernel run; place it
                            // at the start of the op.
                            let ns = r["wall_ns"] as u64;
                            tracer.record(
                                "dataflow_rt::Executor::run",
                                parent,
                                op,
                                begin,
                                begin + ns,
                            );
                        }
                        reply
                    });
                    let reply = match reply {
                        Ok(r) => r,
                        Err((kind, message)) => {
                            self.tally.fail(kind, message);
                            continue;
                        }
                    };
                    let checked = self.check(p, app, &reply);
                    self.tally.record(checked);
                    let wall = reply["wall_ns"] * 1e-9;
                    phase.walls.push(wall);
                    let (walls, counts) = phase.by_op.entry((m, app)).or_default();
                    walls.push(wall);
                    counts.push(reply["tasks"]);
                    phase.mix_secs[m] += wall;
                    sums.run += wall;
                    sums.hook += reply["hook_ns"] * 1e-9;
                    sums.base += reply["base_ns"] * 1e-9;
                    sums.verify += reply["verify_ns"] * 1e-9;
                    sums.tasks += reply["tasks"];
                    if p == Protection::Fig4 {
                        phase.decide_ns += reply["decide_ns"];
                        phase.decide_calls += reply["decide_calls"];
                    }
                    if phase.rounds.is_empty() {
                        phase.first.push((p, reply));
                    }
                }
            }
            phase.rounds.push(sums);
        }
        phase
    }

    /// Passes of the probe mix; returns how many hung.
    fn probe(&mut self) -> (u64, u64) {
        let mut hung = 0;
        let mut verify_failed = 0;
        for pass in 0..PROBE_PASSES {
            for app in 0..self.apps {
                match self.op(
                    Protection::Probe,
                    app,
                    false,
                    mix(self.seed, 7000 + pass),
                    PROBE_DEADLINE,
                ) {
                    Ok(r) => verify_failed += u64::from(r.get("verify_ok") != Some(&1.0)),
                    Err((Failure::TimedOut, message)) => {
                        eprintln!("perfbench: probe pass {pass} hung: {message}");
                        hung += 1;
                        break;
                    }
                    Err((_, message)) => {
                        eprintln!("perfbench: probe pass {pass}: {message}");
                        break;
                    }
                }
            }
        }
        (hung, verify_failed)
    }
}

/// Runs `runtime-appfit`.
pub fn run(ctx: Ctx) -> (Results, Vec<Span>) {
    let tracer = Tracer::new(ctx.traced);
    let mut results = Results::default();
    let (worker, ready) = match tracer.span("workloads::Workload::build", None, 0, |_| {
        Worker::spawn(SETUPS)
    }) {
        Ok(w) => w,
        Err(e) => {
            results.tally.fail(Failure::Panicked, e);
            return (results, Vec::new());
        }
    };
    let setups: Vec<f64> = ready
        .split_whitespace()
        .find_map(|w| w.strip_prefix("setups="))
        .map(|v| v.split(',').filter_map(|s| s.parse().ok()).collect())
        .unwrap_or_default();
    let ready_fields = fields(&ready);
    let apps = ready_fields.get("apps").copied().unwrap_or(0.0) as usize;
    let mut bench = Bench {
        peak_rss_mb: ready_fields.get("peak_rss_mb").copied().unwrap_or(0.0),
        worker: Some(worker),
        apps,
        seed: ctx.seed,
        tally: Tally::default(),
        respawns: 0,
        fig5_counts: vec![None; apps],
    };

    if ctx.traced {
        let plain = bench.phase(ctx.seconds / 2.0, false, &Tracer::new(false), 0);
        let traced = bench.phase(ctx.seconds / 2.0, true, &tracer, 1 << 20);
        let (hung, probe_verify_failed) = bench.probe();
        let (hook, run): (f64, f64) = traced
            .rounds
            .iter()
            .map(|r| (r.hook, r.run))
            .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
        let first = |p: Protection, key: &str| -> f64 {
            traced
                .first
                .iter()
                .filter(|(q, _)| *q == p)
                .map(|(_, r)| r.get(key).copied().unwrap_or(0.0))
                .sum()
        };
        let all = |key: &str| -> f64 {
            traced
                .first
                .iter()
                .map(|(_, r)| r.get(key).copied().unwrap_or(0.0))
                .sum()
        };
        let fit_over = traced
            .first
            .iter()
            .filter_map(|(_, r)| Some(r.get("fit")? / r.get("threshold")?))
            .fold(0.0, f64::max);
        let replicas = all("replicas");
        results.set("dataflow-rt.run_s", traced.round_median(|r| r.run));
        results.set("dataflow-rt.idle_frac", 1.0 - hook / (run * THREADS as f64));
        results.set("dataflow-rt.hung_runs", hung as f64);
        results.set("task-replication.hook_s", traced.round_median(|r| r.hook));
        results.set(
            "task-replication.overhead_s",
            traced.round_median(|r| r.hook - r.base),
        );
        results.set("task-replication.checkpoint_bytes", all("checkpoint_bytes"));
        results.set("task-replication.compare_bytes", all("compare_bytes"));
        results.set("task-replication.replicas", replicas);
        results.set("task-replication.sdc_corrected", all("sdc_corrected"));
        results.set("task-replication.due_recovered", all("due_recovered"));
        results.set(
            "task-replication.useful_replica_frac",
            (all("sdc_detected") + all("due_recovered")) / replicas.max(1.0),
        );
        results.set("workloads.build_s", median(&setups));
        results.set("workloads.verify_s", traced.round_median(|r| r.verify));
        results.set("fault-inject.sdc", first(Protection::Fig5, "sdc"));
        results.set("fault-inject.due", first(Protection::Fig5, "due"));
        results.set(
            "fault-inject.uncovered",
            first(Protection::Fig5, "uncovered"),
        );
        let decisions = first(Protection::Fig4, "decided");
        results.set("appfit-core.decisions", decisions);
        results.set(
            "appfit-core.replicated_frac",
            first(Protection::Fig4, "replicated") / decisions.max(1.0),
        );
        results.set("appfit-core.fit_over_threshold", fit_over);
        results.set(
            "appfit-core.decide_ns",
            traced.decide_ns / traced.decide_calls.max(1.0),
        );
        results.set(
            "runtime.appfit_overhead",
            plain.mix_secs[1] / plain.mix_secs[0],
        );
        results.set(
            "bench.tracing_overhead",
            plain.tasks_per_s() / traced.tasks_per_s() - 1.0,
        );
        results.set(
            "bench.tail_percentile",
            blocked_tail(&plain.walls).percentile,
        );
        results.note("rounds_untraced", plain.rounds.len());
        results.note("rounds_traced", traced.rounds.len());
        results.note("probe_passes", PROBE_PASSES);
        results.note("probe_hung_passes", hung);
        results.note("probe_verify_failed_ops", probe_verify_failed);
    } else {
        let phase = bench.phase(ctx.seconds, false, &tracer, 0);
        let t = blocked_tail(&phase.walls);
        results.set("setup_s", median(&setups));
        results.set("tasks_per_s", phase.tasks_per_s());
        results.set("op_p50_ms", median(&phase.walls) * 1e3);
        results.set("op_tail_ms", t.value * 1e3);
        results.note("rounds", phase.rounds.len());
        results.note("ops", phase.walls.len());
        results.note("tail_percentile", t.percentile);
        results.note("tail_samples", t.samples);
        results.note("tail_blocks", t.blocks);
        results.note("appfit_overhead", phase.mix_secs[1] / phase.mix_secs[0]);
        results.note(
            "replicate_all_overhead",
            phase.mix_secs[2] / phase.mix_secs[0],
        );
        results.note("mix_secs", phase.mix_secs.to_vec());
    }
    bench.retire_worker();
    results.set(
        "peak_rss_mb",
        crate::provenance::peak_rss_mb(None).max(bench.peak_rss_mb),
    );
    results.note("setup_secs", setups);
    results.note("worker_respawns", bench.respawns);
    results.set("bench.error_rate", bench.tally.error_rate());
    results.tally = bench.tally;
    (results, tracer.into_spans())
}

//! `serve-grid`: a closed loop of two clients submitting `[sweep]`
//! grids to a `repro serve --workers 2` child over a Unix socket.
//!
//! Each client sends its next grid only after the previous one's last
//! cell arrived. Grids come from a seeded pool of 512-task synthetic
//! cells (the `grid-smoke` shape over a few graph keys, 8–16 cells
//! each); a seeded mix decides which submits ask for timing traces and
//! which carry a fresh grid token (a journal write per cell). Every
//! served summary must equal an in-process `scenario::run_on` of the
//! same expanded cell, computed once before the first server starts.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cluster_sim::SimGraph;
use scenario::{build_graph, preset, run_on, EngineSpec, ScenarioSpec, SweepSection, WorkloadSpec};
use scenario_serve::{
    CellReply, Client, ClientError, ErrorKind, RunOptions, RunSummary, Service, ServiceConfig,
    ServiceStats, SubmitOptions,
};

use crate::report::Results;
use crate::stats::{blocked_tail, median, mix, Failure, Rng, Tally};
use crate::trace::{Span, Tracer};
use crate::Ctx;

/// Distinct grids in the pool: every (grid size, graph key) pair four
/// times.
const GRIDS: usize = 36;
/// Distinct graph keys the grids share.
const GRAPH_KEYS: usize = 3;
/// Client connections (closed loop).
const CLIENTS: u64 = 2;
/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A reply slower than this fails its op as timed out.
const OP_TIMEOUT: Duration = Duration::from_secs(30);
/// Share of submits that request timing traces.
const TRACE_SHARE: f64 = 0.3;
/// Share of submits that carry a grid token.
const TOKEN_SHARE: f64 = 0.3;

/// Fault-rate pairs a grid sweeps, one per variant.
const FAULT_RATES: [[f64; 2]; 4] = [[0.002, 0.005], [0.005, 0.01], [0.01, 0.02], [0.002, 0.02]];
const TARGETS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 0.9];

type SocketClient = Client<BufReader<UnixStream>, UnixStream>;

/// The seeded grid pool. Its make-up is the same for every seed: grid
/// `g` sweeps `2 + g % 3` App_FIT targets (8, 12 or 16 cells) over graph
/// key `g / 3 % 3`, with fault rates and targets fixed by `g / 9`. The
/// seed draws the three synthetic graphs and every cell's fault seeds,
/// so grid latencies compare across seeds.
fn grids(seed: u64) -> Vec<ScenarioSpec> {
    let base = preset("grid-smoke").expect("grid-smoke preset");
    let graph_seeds: Vec<u64> = (0..GRAPH_KEYS as u64)
        .map(|k| mix(seed, 1000 + k) % 1_000_000)
        .collect();
    let mut rng = Rng::new(seed, 1);
    (0..GRIDS)
        .map(|g| {
            let mut spec = base.clone();
            spec.name = format!("pb-grid-{g}");
            if let WorkloadSpec::Synthetic { seed, .. } = &mut spec.workload {
                *seed = graph_seeds[g / 3 % GRAPH_KEYS];
            }
            // The server's two workers are the workload's two threads.
            if let EngineSpec::Sharded { threads, .. } = &mut spec.engine {
                *threads = 1;
            }
            let targets = 2 + g % 3;
            let variant = g / 9;
            let first = variant % (TARGETS.len() - targets + 1);
            spec.sweep = Some(SweepSection {
                fault_rate: FAULT_RATES[variant % FAULT_RATES.len()].to_vec(),
                target_fraction: TARGETS[first..first + targets].to_vec(),
                seed: vec![
                    rng.next_u64() % 1_000_000,
                    rng.next_u64() % 1_000_000 + 1_000_000,
                ],
                ..SweepSection::default()
            });
            spec
        })
        .collect()
}

/// One grid of the pool with everything needed to check it.
struct Grid {
    text: String,
    spec: ScenarioSpec,
    cells: Vec<ScenarioSpec>,
    want: Vec<RunSummary>,
    tasks: u64,
}

/// Counters from the set-up reference runs, for the per-layer metrics.
#[derive(Default)]
struct RefFacts {
    decisions: u64,
    replicated: u64,
    fit_over_threshold: f64,
    sdc: u64,
    due: u64,
    uncovered: u64,
    makespan: Option<f64>,
    windows: u64,
}

/// Expands every grid and runs each cell in-process once: the
/// reference every served summary must equal.
fn references(
    specs: Vec<ScenarioSpec>,
    graphs: &mut BTreeMap<String, SimGraph>,
) -> Result<(Vec<Grid>, RefFacts), String> {
    let mut facts = RefFacts::default();
    let mut out = Vec::new();
    for spec in specs {
        let cells = spec.expand();
        let mut want = Vec::new();
        let mut tasks = 0;
        for cell in &cells {
            let key = cell.graph_key();
            if !graphs.contains_key(&key) {
                let graph = build_graph(cell).map_err(|e| format!("{}: {e}", cell.name))?;
                graphs.insert(key.clone(), graph);
            }
            let graph = &graphs[&key];
            let outcome = run_on(cell, graph, None).map_err(|e| format!("{}: {e}", cell.name))?;
            let report = &outcome.report;
            tasks += report.records().len() as u64;
            if let Some(a) = outcome.appfit {
                facts.decisions += a.decided;
                facts.replicated += a.replicated;
                facts.fit_over_threshold =
                    facts.fit_over_threshold.max(a.current_fit / a.threshold);
            }
            facts.sdc += (report.sdc_detected_count() + report.uncovered_sdc_count()) as u64;
            facts.due += (report.due_recovered_count() + report.uncovered_due_count()) as u64;
            facts.uncovered += (report.uncovered_sdc_count() + report.uncovered_due_count()) as u64;
            facts.makespan.get_or_insert(report.makespan);
            facts.windows += outcome.delivery.map_or(0, |d| d.windows);
            want.push(RunSummary::of(&cell.name, &outcome));
        }
        out.push(Grid {
            text: spec.to_string(),
            spec,
            cells,
            want,
            tasks,
        });
    }
    Ok((out, facts))
}

fn connect(path: &Path) -> Result<SocketClient, ClientError> {
    let stream = UnixStream::connect(path)?;
    stream.set_read_timeout(Some(OP_TIMEOUT))?;
    Client::new(BufReader::new(stream.try_clone()?), stream)
}

/// A running `repro serve` child.
struct Server {
    child: Child,
    socket: PathBuf,
    journal: PathBuf,
}

impl Server {
    /// Spawns a server and waits until it answers a ping; returns it
    /// with the spawn-to-ping time.
    fn spawn(ctx: &Ctx, k: usize) -> Result<(Server, f64), String> {
        let socket = ctx.run_dir.join(format!("s{k}.sock"));
        let journal = ctx.run_dir.join(format!("journal{k}"));
        let start = Instant::now();
        let child = Command::new(&ctx.repro)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", "2", "--journal-dir"])
            .arg(&journal)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ctx.repro.display()))?;
        let mut server = Server {
            child,
            socket,
            journal,
        };
        loop {
            if let Ok(mut client) = connect(&server.socket) {
                if client.ping().is_ok() {
                    return Ok((server, start.elapsed().as_secs_f64()));
                }
            }
            if start.elapsed() > OP_TIMEOUT || matches!(server.child.try_wait(), Ok(Some(_))) {
                server.stop();
                return Err("server did not answer a ping".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Asks the server to shut down and waits for it; kills it if it
    /// does not exit in time.
    fn stop(&mut self) {
        if let Ok(client) = connect(&self.socket) {
            let _ = client.shutdown();
        }
        crate::wait_or_kill(&mut self.child, Duration::from_secs(10));
    }
}

/// Checks a grid's replies against its references.
fn check(replies: &[CellReply], want: &[RunSummary]) -> Result<(), (Failure, String)> {
    if replies.len() != want.len() {
        return Err((
            Failure::Mismatch,
            format!("{} replies for {} cells", replies.len(), want.len()),
        ));
    }
    for (reply, want) in replies.iter().zip(want) {
        match &reply.outcome {
            Ok(got) if got == want => {}
            Ok(got) => {
                return Err((
                    Failure::Mismatch,
                    format!("{} differs from its reference", got.name),
                ))
            }
            Err(e) if e.kind == ErrorKind::DeadlineExceeded => {
                return Err((Failure::Shed, format!("{}: {e}", want.name)))
            }
            Err(e) if e.kind == ErrorKind::Busy => {
                return Err((Failure::Refused, format!("{}: {e}", want.name)))
            }
            Err(e) => return Err((Failure::Panicked, format!("{}: {e}", want.name))),
        }
    }
    Ok(())
}

/// Classifies a whole-submit failure.
fn submit_failure(e: &ClientError) -> Failure {
    match e {
        ClientError::Busy { .. } | ClientError::Rejected { .. } => Failure::Refused,
        ClientError::Io(io)
            if matches!(
                io.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Failure::TimedOut
        }
        _ => Failure::Transport,
    }
}

/// What one client saw in one phase.
#[derive(Default)]
struct Phase {
    latencies: Vec<f64>,
    tally: Tally,
    tasks: u64,
    cells: u64,
    trace_bytes: u64,
    traced: u64,
    tokened: u64,
    secs: f64,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.latencies.extend(other.latencies);
        self.tally.merge(other.tally);
        self.tasks += other.tasks;
        self.cells += other.cells;
        self.trace_bytes += other.trace_bytes;
        self.traced += other.traced;
        self.tokened += other.tokened;
        self.secs = self.secs.max(other.secs);
    }

    fn tasks_per_s(&self) -> f64 {
        self.tasks as f64 / self.secs
    }
}

/// One client's closed loop for `seconds`.
fn client_loop(
    socket: &Path,
    grids: &[Grid],
    seed: u64,
    client: u64,
    phase_id: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Phase {
    let mut rng = Rng::new(seed, 100 + 10 * phase_id + client);
    // The client walks the whole pool in its own seeded order, again and
    // again, so every run submits the pool's make-up.
    let mut order: Vec<usize> = (0..grids.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut phase = Phase::default();
    let mut conn: Option<SocketClient> = None;
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let grid = &grids[order[n as usize % order.len()]];
        let mut options = SubmitOptions::default();
        if rng.chance(TRACE_SHARE) {
            options.trace = true;
            options.timing = true;
        }
        if rng.chance(TOKEN_SHARE) {
            options.token = Some(format!("pb{seed}-{phase_id}-{client}-{n}"));
        }
        let (traced, tokened) = (options.trace, options.token.is_some());
        let op = (phase_id << 40) | (client << 32) | n;
        n += 1;
        let sent = Instant::now();
        let result = match conn.take().map_or_else(|| connect(socket), Ok) {
            Ok(mut c) => {
                let r = tracer.span("scenario_serve::Client::submit", None, op, |_| {
                    c.submit(&grid.text, options)
                });
                if r.is_ok() {
                    conn = Some(c);
                }
                r
            }
            Err(e) => Err(e),
        };
        let latency = sent.elapsed().as_secs_f64();
        match result {
            Ok(replies) => {
                let checked = check(&replies, &grid.want);
                if checked.is_ok() {
                    phase.latencies.push(latency);
                    phase.tasks += grid.tasks;
                    phase.cells += grid.cells.len() as u64;
                    if traced {
                        phase.traced += 1;
                        phase.trace_bytes += replies
                            .iter()
                            .filter_map(|r| r.trace.as_ref())
                            .map(|t| t.len() as u64)
                            .sum::<u64>();
                    }
                    phase.tokened += tokened as u64;
                }
                phase.tally.record(checked);
            }
            Err(e) => phase
                .tally
                .fail(submit_failure(&e), format!("{}: {e}", grid.spec.name)),
        }
    }
    phase.secs = start.elapsed().as_secs_f64();
    phase
}

/// Submits every pool grid once, so the server's graph catalog is warm
/// before the loop starts: the last step of a server's set-up. Each
/// grid is checked like any other op.
fn warm_up(socket: &Path, grids: &[Grid], tally: &mut Tally) {
    let mut conn = match connect(socket) {
        Ok(c) => c,
        Err(e) => return tally.fail(submit_failure(&e), format!("warm-up: {e}")),
    };
    for grid in grids {
        match conn.submit(&grid.text, SubmitOptions::default()) {
            Ok(replies) => tally.record(check(&replies, &grid.want)),
            Err(e) => {
                return tally.fail(
                    submit_failure(&e),
                    format!("warm-up {}: {e}", grid.spec.name),
                )
            }
        }
    }
}

/// Both clients' closed loops, concurrently.
fn closed_loop(
    socket: &Path,
    grids: &[Grid],
    seed: u64,
    phase_id: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Phase {
    let mut total = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || client_loop(socket, grids, seed, c, phase_id, seconds, tracer))
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(phase) => total.merge(phase),
                Err(_) => total
                    .tally
                    .fail(Failure::Panicked, "client thread panicked"),
            }
        }
    });
    total
}

/// Per-grid decomposition of a submit, one grid at a time on an idle
/// server: direct `run_on` time, in-process `Service::run_all` time and
/// socket `Client::submit` time.
struct Decomposition {
    direct_ms: Vec<f64>,
    dispatch_ms: Vec<f64>,
    transport_ms: Vec<f64>,
}

fn decompose(
    socket: &Path,
    grids: &[Grid],
    graphs: &BTreeMap<String, SimGraph>,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Decomposition {
    let service = Service::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    // Warm the in-process catalog the way the server's is warm.
    for grid in grids {
        let _ = service.run_all(&grid.spec, RunOptions::default());
    }
    let mut out = Decomposition {
        direct_ms: Vec::new(),
        dispatch_ms: Vec::new(),
        transport_ms: Vec::new(),
    };
    let mut conn = match connect(socket) {
        Ok(c) => c,
        Err(e) => {
            tally.fail(submit_failure(&e), format!("decomposition connect: {e}"));
            return out;
        }
    };
    for (g, grid) in grids.iter().enumerate() {
        let op = (9u64 << 40) | g as u64;
        let start = Instant::now();
        let served = tracer.span("scenario_serve::Client::submit", None, op, |_| {
            conn.submit(&grid.text, SubmitOptions::default())
        });
        let socket_ms = start.elapsed().as_secs_f64() * 1e3;
        match served {
            Ok(replies) => tally.record(check(&replies, &grid.want)),
            Err(e) => {
                tally.fail(submit_failure(&e), format!("{}: {e}", grid.spec.name));
                return out;
            }
        }

        let start = Instant::now();
        let local = tracer.span("scenario_serve::Service::run_all", None, op, |_| {
            service.run_all(&grid.spec, RunOptions::default())
        });
        let local_ms = start.elapsed().as_secs_f64() * 1e3;
        let summaries: Result<Vec<RunSummary>, String> = match local {
            Ok(cells) => cells
                .iter()
                .map(|c| match c {
                    Ok(r) => Ok(RunSummary::of(&r.spec.name, &r.outcome)),
                    Err(e) => Err(e.to_string()),
                })
                .collect(),
            Err(e) => Err(e.to_string()),
        };
        tally.record(match summaries {
            Ok(s) if s == grid.want => Ok(()),
            Ok(_) => Err((
                Failure::Mismatch,
                format!("{} in-process differs", grid.spec.name),
            )),
            Err(e) => Err((
                Failure::Panicked,
                format!("{} in-process: {e}", grid.spec.name),
            )),
        });

        let start = Instant::now();
        tracer.span("perfbench::direct_cells", None, op, |parent| {
            for cell in &grid.cells {
                let graph = &graphs[&cell.graph_key()];
                let outcome = tracer.span("scenario::run_on", parent, op, |_| {
                    run_on(cell, graph, None)
                });
                std::hint::black_box(outcome.map(|o| o.report.makespan).ok());
            }
        });
        let direct_ms = start.elapsed().as_secs_f64() * 1e3;

        out.direct_ms.push(direct_ms);
        out.dispatch_ms.push(local_ms - direct_ms);
        out.transport_ms.push(socket_ms - local_ms);
    }
    out
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs `serve-grid`.
pub fn run(ctx: Ctx) -> (Results, Vec<Span>) {
    let tracer = Tracer::new(ctx.traced);
    let mut results = Results::default();
    let mut tally = Tally::default();

    // The in-process reference of every pool cell, computed once.
    let mut graphs = BTreeMap::new();
    let started = Instant::now();
    let (grids, facts) = match references(grids(ctx.seed), &mut graphs) {
        Ok(r) => r,
        Err(e) => {
            tally.fail(Failure::Panicked, format!("reference runs: {e}"));
            results.tally = tally;
            return (results, Vec::new());
        }
    };
    results.note("references_secs", started.elapsed().as_secs_f64());

    // Set-up, SETUPS times: spawn a server, wait for its first ping, and
    // warm it up; the last server is kept.
    let mut setups = Vec::new();
    let mut spawns = Vec::new();
    let mut server: Option<Server> = None;
    for k in 0..SETUPS {
        if let Some(mut old) = server.take() {
            old.stop();
        }
        let start = Instant::now();
        match Server::spawn(&ctx, k) {
            Ok((s, secs)) => {
                warm_up(&s.socket, &grids, &mut tally);
                setups.push(start.elapsed().as_secs_f64());
                spawns.push(secs);
                server = Some(s);
            }
            Err(e) => tally.fail(Failure::Transport, e),
        }
    }
    let Some(mut server) = server else {
        results.tally = tally;
        return (results, Vec::new());
    };

    if ctx.traced {
        let plain = closed_loop(
            &server.socket,
            &grids,
            ctx.seed,
            0,
            ctx.seconds / 2.0,
            &Tracer::new(false),
        );
        let traced = closed_loop(
            &server.socket,
            &grids,
            ctx.seed,
            1,
            ctx.seconds / 2.0,
            &tracer,
        );
        let parts = decompose(&server.socket, &grids, &graphs, &tracer, &mut tally);
        let stats: Option<ServiceStats> = connect(&server.socket)
            .ok()
            .and_then(|mut c| c.stats().ok());
        let tokened = plain.tokened + traced.tokened;
        let cells: u64 = grids.iter().map(|g| g.cells.len() as u64).sum();
        let tasks: u64 = grids.iter().map(|g| g.tasks).sum();
        results.set("cluster-sim.run_s", median(&parts.direct_ms) * 1e-3);
        results.set(
            "cluster-sim.ns_per_task",
            parts.direct_ms.iter().sum::<f64>() * 1e6 / tasks.max(1) as f64,
        );
        results.set(
            "cluster-sim.delivery.windows",
            facts.windows as f64 / cells.max(1) as f64,
        );
        results.set("cluster-sim.makespan_s", facts.makespan.unwrap_or(0.0));
        results.set(
            "scenario.trace_bytes",
            traced.trace_bytes as f64 / traced.traced.max(1) as f64,
        );
        results.set("appfit-core.decisions", facts.decisions as f64);
        results.set(
            "appfit-core.replicated_frac",
            facts.replicated as f64 / facts.decisions.max(1) as f64,
        );
        results.set("appfit-core.fit_over_threshold", facts.fit_over_threshold);
        results.set("scenario-serve.direct_ms", median(&parts.direct_ms));
        results.set("scenario-serve.dispatch_ms", median(&parts.dispatch_ms));
        results.set("scenario-serve.transport_ms", median(&parts.transport_ms));
        if let Some(s) = stats {
            results.set("scenario-serve.catalog.hits", s.catalog.hits as f64);
            results.set("scenario-serve.catalog.misses", s.catalog.misses as f64);
            results.set("scenario-serve.catalog.builds", s.catalog.builds as f64);
            results.set(
                "scenario-serve.admission.rejected",
                s.admission.rejected as f64,
            );
            results.set("scenario-serve.admission.shed", s.admission.shed as f64);
        } else {
            tally.fail(Failure::Transport, "stats request failed");
        }
        results.set(
            "scenario-serve.journal_bytes",
            dir_bytes(&server.journal) as f64 / tokened.max(1) as f64,
        );
        results.set("fault-inject.sdc", facts.sdc as f64);
        results.set("fault-inject.due", facts.due as f64);
        results.set("fault-inject.uncovered", facts.uncovered as f64);
        results.set(
            "bench.tracing_overhead",
            plain.tasks_per_s() / traced.tasks_per_s() - 1.0,
        );
        results.set(
            "bench.tail_percentile",
            blocked_tail(&plain.latencies).percentile,
        );
        results.note("grids_untraced", plain.latencies.len());
        results.note("grids_traced", traced.latencies.len());
        tally.merge(plain.tally);
        tally.merge(traced.tally);
    } else {
        let phase = closed_loop(
            &server.socket,
            &grids,
            ctx.seed,
            0,
            ctx.seconds,
            &Tracer::new(false),
        );
        let t = blocked_tail(&phase.latencies);
        let server_rss = crate::provenance::peak_rss_mb(Some(server.child.id()));
        results.set("setup_s", median(&setups));
        results.set(
            "peak_rss_mb",
            crate::provenance::peak_rss_mb(None).max(server_rss),
        );
        results.set("tasks_per_s", phase.tasks_per_s());
        results.set("op_p50_ms", median(&phase.latencies) * 1e3);
        results.set("op_tail_ms", t.value * 1e3);
        results.note("grids", phase.latencies.len());
        results.note("cells_per_s", phase.cells as f64 / phase.secs);
        results.note("tail_percentile", t.percentile);
        results.note("tail_samples", t.samples);
        results.note("tail_blocks", t.blocks);
        results.note("server_peak_rss_mb", server_rss);
        tally.merge(phase.tally);
    }
    server.stop();
    results.note("setup_secs", setups);
    results.note("spawn_to_ping_secs", spawns);
    results.set("bench.error_rate", tally.error_rate());
    results.tally = tally;
    (results, tracer.into_spans())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario_serve::CellError;

    fn summary(name: &str) -> RunSummary {
        RunSummary {
            name: name.into(),
            tasks: 512,
            makespan_bits: 7,
            recovery_events: 0,
            appfit: None,
        }
    }

    fn reply(outcome: Result<RunSummary, CellError>) -> CellReply {
        CellReply {
            outcome,
            trace: None,
        }
    }

    fn kind_of(replies: &[CellReply], want: &[RunSummary]) -> Option<Failure> {
        check(replies, want).err().map(|(kind, _)| kind)
    }

    #[test]
    fn served_cells_must_equal_their_references() {
        let want = vec![summary("a"), summary("b")];
        let ok = [reply(Ok(summary("a"))), reply(Ok(summary("b")))];
        assert_eq!(kind_of(&ok, &want), None);
        let mut other = summary("b");
        other.makespan_bits = 8;
        let wrong = [reply(Ok(summary("a"))), reply(Ok(other))];
        assert_eq!(kind_of(&wrong, &want), Some(Failure::Mismatch));
        assert_eq!(
            kind_of(&ok[..1], &want),
            Some(Failure::Mismatch),
            "a missing cell"
        );
    }

    #[test]
    fn shed_refused_and_timed_out_submits_are_failures() {
        let want = vec![summary("a")];
        let shed = [reply(Err(CellError::shed()))];
        assert_eq!(kind_of(&shed, &want), Some(Failure::Shed));
        let busy = [reply(Err(CellError {
            kind: ErrorKind::Busy,
            message: "queue full".into(),
        }))];
        assert_eq!(kind_of(&busy, &want), Some(Failure::Refused));
        let panicked = [reply(Err(CellError::panicked()))];
        assert_eq!(kind_of(&panicked, &want), Some(Failure::Panicked));

        let refused = ClientError::Busy {
            retry_after_ms: 50,
            message: "busy".into(),
        };
        assert_eq!(submit_failure(&refused), Failure::Refused);
        let timeout = ClientError::Io(std::io::Error::from(std::io::ErrorKind::WouldBlock));
        assert_eq!(submit_failure(&timeout), Failure::TimedOut);
        let closed = ClientError::ServerClosed {
            during: "submit stream",
        };
        assert_eq!(submit_failure(&closed), Failure::Transport);
    }

    #[test]
    fn grids_are_seeded_with_one_make_up() {
        let a = grids(5);
        assert_eq!(a, grids(5));
        let b = grids(6);
        assert_ne!(a, b);
        let keys: std::collections::BTreeSet<String> = a.iter().map(|g| g.graph_key()).collect();
        assert_eq!(keys.len(), GRAPH_KEYS);
        let shape = |g: &ScenarioSpec| {
            let sweep = g.sweep.as_ref().expect("a grid");
            (
                g.sweep_cells(),
                sweep.fault_rate.clone(),
                sweep.target_fraction.clone(),
            )
        };
        let mut sizes = BTreeMap::new();
        for (g, h) in a.iter().zip(&b) {
            g.validate().expect("grid spec validates");
            assert_eq!(shape(g), shape(h), "{}", g.name);
            *sizes.entry(g.sweep_cells()).or_insert(0) += 1;
        }
        assert_eq!(sizes, BTreeMap::from([(8, 12), (12, 12), (16, 12)]));
    }
}

//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!           [--root <repo>] [--repro <path to the repro binary>]
//! ```
//!
//! Runs one workload for `--seconds`, checks every output, writes a
//! results file under `.perfbench/results/` and prints one JSON line:
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 when any output check failed. `perfbench/run.py`
//! builds this binary and the `repro` CLI from source and runs it; see
//! `perfbench/README.md` for the workloads and metrics.

mod provenance;
mod report;
mod runtime;
mod serve;
mod sim;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Json, Results};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["sim-lookahead", "sim-batch", "serve-grid", "runtime-appfit"];

/// Everything a workload needs to run. The process runs with the
/// repository root as its working directory.
pub struct Ctx {
    /// Scratch directory of this run, relative to the root; removed at
    /// exit.
    pub run_dir: PathBuf,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// How long the measured loop runs, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// The `repro` binary (serve-grid's server).
    pub repro: PathBuf,
}

/// Waits up to `grace` for a child asked to exit, then kills it; either
/// way the child has been reaped when this returns.
pub fn wait_or_kill(child: &mut std::process::Child, grace: std::time::Duration) {
    let start = std::time::Instant::now();
    while start.elapsed() < grace {
        if let Ok(Some(_)) = child.try_wait() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    root: PathBuf,
    repro: Option<PathBuf>,
}

const USAGE: &str =
    "usage: perfbench --workload <sim-lookahead|sim-batch|serve-grid|runtime-appfit> \
     --seed <n> --seconds <s> --trace <0|1> [--root DIR] [--repro PATH]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut root = None;
    let mut repro = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--root" => root = Some(PathBuf::from(value)),
            "--repro" => repro = Some(PathBuf::from(value)),
            other => return Err(format!("unexpected argument {other}\n{USAGE}")),
        }
    }
    let workload: String = workload.ok_or(USAGE)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}\n{USAGE}"));
    }
    let seconds: u64 = seconds.ok_or(USAGE)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or(USAGE)?,
        seconds,
        traced: traced.ok_or(USAGE)?,
        root: match root {
            Some(root) => root,
            None => std::env::current_dir().map_err(|e| format!("current directory: {e}"))?,
        },
        repro,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(runtime::WORKER_COMMAND) {
        return runtime::worker_main(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match args.root.canonicalize() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("perfbench: root {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::env::set_current_dir(&root) {
        eprintln!("perfbench: cannot enter {}: {e}", root.display());
        return ExitCode::from(2);
    }
    // Relative paths keep Unix socket names short however deep the
    // checkout sits.
    let run_dir = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        repro: args
            .repro
            .clone()
            .unwrap_or_else(|| root.join(".bench_build/release/repro")),
        run_dir: run_dir.clone(),
        seed: args.seed,
        seconds: args.seconds as f64,
        traced: args.traced,
    };
    eprintln!(
        "perfbench: {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.traced as u8
    );
    let cpu_before = provenance::cpu_ticks();
    let (mut results, spans) = match args.workload.as_str() {
        "sim-lookahead" => sim::run(ctx, sim::Mix::Lookahead),
        "sim-batch" => sim::run(ctx, sim::Mix::Batch),
        "serve-grid" => serve::run(ctx),
        "runtime-appfit" => runtime::run(ctx),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    // Time the hypervisor ran other guests on this host's CPUs: every
    // wall-clock metric stretches with it.
    results.note(
        "host_steal_frac",
        provenance::steal_frac(cpu_before, provenance::cpu_ticks()),
    );
    let _ = std::fs::remove_dir_all(&run_dir);

    let line = results.line(args.traced);
    if let Err(e) = write_results_file(&args, &root, &results, &spans, &line) {
        eprintln!("perfbench: results file not written: {e}");
    }
    println!("{line}");
    if results.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} ops failed: {:?}",
            results.tally.failed, results.tally.attempted, results.tally.messages
        );
        ExitCode::from(1)
    }
}

fn write_results_file(
    args: &Args,
    root: &std::path::Path,
    results: &Results,
    spans: &[trace::Span],
    line: &str,
) -> std::io::Result<()> {
    let dir = root.join(".perfbench/results");
    std::fs::create_dir_all(&dir)?;
    let values = results
        .values
        .iter()
        .map(|(name, value)| (name.to_string(), Json::from(*value)))
        .collect();
    let failures = results
        .tally
        .by_kind
        .iter()
        .map(|(kind, n)| (kind.name().to_string(), Json::from(*n)))
        .collect();
    let doc = Json::obj([
        ("schema", Json::from("perfbench/v1")),
        (
            "provenance",
            provenance::collect(root, &args.workload, args.seed, args.seconds, args.traced),
        ),
        ("result_line", Json::from(line)),
        ("metrics", Json::Obj(values)),
        ("attempted", Json::from(results.tally.attempted)),
        ("failed", Json::from(results.tally.failed)),
        ("failures", Json::Obj(failures)),
        (
            "failure_messages",
            Json::Arr(
                results
                    .tally
                    .messages
                    .iter()
                    .map(|m| Json::from(m.as_str()))
                    .collect(),
            ),
        ),
        ("notes", Json::Obj(results.notes.clone())),
        ("trace", trace::to_json(spans)),
    ]);
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.traced as u8
    ));
    std::fs::write(&path, doc.render() + "\n")?;
    eprintln!("perfbench: results in {}", path.display());
    Ok(())
}

//! Where a result came from: host, toolchain, source and seed.

use std::path::Path;
use std::process::Command;

use crate::report::Json;

/// Peak resident set size of a process (`VmHWM`), in MB; `0` when the
/// platform does not expose it.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// System-wide `(steal, total)` CPU ticks from `/proc/stat`; zeros when
/// unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // Fields: user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

fn command_output(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the paths and contents of the files a build reads, so a
/// result can be tied to its source when the checkout is not a git
/// repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["crates", "shims", "src", "perfbench"] {
        walk(&root.join(top), &mut files);
    }
    for top in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(top));
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        for byte in rel.bytes().chain(std::fs::read(&path).unwrap_or_default()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The provenance block of the results file.
pub fn collect(root: &Path, workload: &str, seed: u64, seconds: u64, traced: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = if root.join(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"], root)
    } else {
        None
    };
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj([
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("trace", Json::from(traced)),
        ("nproc", Json::from(nproc)),
        ("cpu", Json::from(cpu_model())),
        (
            "rustc",
            Json::from(
                command_output("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "git_commit",
            Json::from(commit.unwrap_or_else(|| "unknown (not a git checkout)".into())),
        ),
        ("source_digest", Json::from(source_digest(root))),
        ("measured_unix", Json::from(unix)),
    ])
}

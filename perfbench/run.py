#!/usr/bin/env python3
"""Builds the benchmark and the `repro` CLI from source, then runs one workload.

usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Both binaries build in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root); cargo's
output goes to standard error. The benchmark's own standard output ends with
the one-line JSON result, and its exit code is passed through: 0 when every
output check passed, 1 when one failed, 2 when nothing could run.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print(f"perfbench: {ROOT} holds no repository to build", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cargo = ["cargo", "build", "--release", "--offline", "-q"]
    builds = [
        cargo + ["--manifest-path", str(HERE / "Cargo.toml")],
        cargo + ["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "repro-bench", "--bin", "repro"],
    ]
    for command in builds:
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(command), file=sys.stderr)
            return 2
    release = target / "release"
    command = [str(release / "perfbench"), *sys.argv[1:], "--root", str(ROOT), "--repro", str(release / "repro")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())

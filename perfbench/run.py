#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `fingers-mine` (the daemon that
`serve-mixed` spawns) from the repository workspace and the benchmark
crate from its own manifest, into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark with the given arguments. Build
output goes to stderr; the benchmark's last stdout line is its JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    os.chdir(ROOT)
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "fingers-cli", "--bin", "fingers-mine"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        rc = subprocess.run(cmd, stdout=sys.stderr).returncode
        if rc != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return rc or 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--fingers-mine", os.path.join(release, "fingers-mine"),
        "--out", os.path.join("perfbench", "out"),
    ] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package in this directory. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build at the repository root),
then run with the same arguments plus the environment record. Its standard
output passes through unchanged: the last line is the result object. Build
output goes to standard error. The exit code is the build's or the
benchmark's. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sat_spaa_8x8", "lowload_pim1_8x8", "sharded_islip2_16x16", "kernel_replay"]


def command_output(cmd, cwd=None):
    """First line of a command's output, or None if it fails."""
    try:
        out = subprocess.run(
            cmd, cwd=cwd, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return out.splitlines()[0] if out else None


def environment():
    """nproc, CPU model, rustc version and git commit of the checkout."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    top = command_output(["git", "rev-parse", "--show-toplevel"], cwd=ROOT)
    commit = None
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        commit = command_output(["git", "rev-parse", "HEAD"], cwd=ROOT)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or "unknown",
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "git_commit": commit or "unknown (not a git checkout)",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"run.py: building the benchmark failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1

    bench = subprocess.run(
        [os.path.join(target, "release", "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--env", json.dumps(environment()),
         "--out", os.path.join(HERE, "out")],
        env=env,
    )
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())

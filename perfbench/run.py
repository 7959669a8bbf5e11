#!/usr/bin/env python3
"""Build and run the dirca benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ring_grid, large_field, mobile_field (see BENCHMARK.json).

The benchmark is the Rust package in this directory. The variant a run
uses is built from source (into $CARGO_TARGET_DIR, default .bench_build):
the end-to-end one without the `trace` feature, the per-layer one with it.
`--trace 0` runs the end-to-end variant for about `--seconds` and reports
wall_s, setup_s and node_sim_s_per_s, then runs one more repetition in a
fresh process for peak_rss_mb; `--trace 1` runs the per-layer variant once. Each run checks its outputs;
the last line of standard output is the JSON result, and the exit status
is non-zero if the build failed or a check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ring_grid", "large_field", "mobile_field")
# A run must end within 180 s; stop a stuck one a little before that.
RUN_LIMIT_S = 170


def build(target_root, trace):
    """Builds one variant and returns the path of its executable."""
    target = os.path.join(target_root, "traced" if trace else "plain")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target,
    ]
    if trace:
        cmd += ["--features", "trace"]
    # Build output goes to stderr: standard output carries only results.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: building the benchmark failed")
    return os.path.join(target, "release", "dirca-perfbench")


def commit():
    """The checked-out commit, if the working directory is a git checkout."""
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(cmd):
    """Runs the benchmark; returns (exit code, stdout, peak RSS in bytes)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    out = []
    reader = threading.Thread(target=lambda: out.append(proc.stdout.read()))
    reader.start()
    timer = threading.Timer(RUN_LIMIT_S, proc.kill)
    timer.start()
    # wait4 reports this child's own resource use, so the peak RSS is the
    # workload's alone, not the build's.
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    return proc.returncode, out[0] if out else "", usage.ru_maxrss * 1024


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_root, bool(args.trace))
    scratch = os.path.abspath(".perfbench_scratch")
    os.makedirs(scratch, exist_ok=True)

    def bench(seconds):
        code, out, peak_rss = run([
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(seconds),
            "--scratch", scratch,
        ])
        lines = out.rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            sys.stdout.write(out)
            sys.exit(f"run.py: the benchmark exited with {code} and printed no result")
        result["correct"] = result["correct"] and code == 0
        return result, lines[:-1], peak_rss

    try:
        result, lines, _ = bench(args.seconds)
        if not args.trace:
            # Peak memory comes from one repetition in a fresh process, so
            # it does not depend on how many repetitions fit the budget.
            memory, memory_lines, peak_rss = bench(0)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"host: nproc={len(os.sched_getaffinity(0))} commit={commit()}")
    for line in lines:
        print(line)
    if not args.trace:
        digest = [l for l in lines if l.startswith("digest ")]
        if digest != [l for l in memory_lines if l.startswith("digest ")]:
            print(f"check failed: counters differ between runs: {memory_lines}")
            result["correct"] = False
        if not memory["correct"]:
            print(f"check failed: the memory run failed: {memory_lines}")
            result["correct"] = False
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss / 1e6, "unit": "MB"}
        print(f"{args.workload}: peak_rss_mb = {peak_rss / 1e6} MB")
    print(json.dumps(result))
    if not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()

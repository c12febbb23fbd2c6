#!/usr/bin/env python3
"""Build and run one vitdyn benchmark workload.

    python3 perfbench/run.py --workload serve_steady --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds
perfbench/ (the vitdyn library from src/ plus the benchmark binary, in
Release) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild incrementally. With
--trace 0 the set-up is timed in SETUP_REPEATS fresh processes, half
before the measured run and half after it, plus the measured one, and
setup_s is the median. With --trace 1 the program's spans and the benchmark's own are
written to .bench_out/<workload>-seed<seed>.trace.json (Chrome trace).

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. The exit status is 0
only when every output was correct and no response was lost.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_steady", "frontier_closed")
SETUP_REPEATS = 20
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170
# Pinned so a caller's environment cannot change what is measured; the
# benchmark binary also pins its kernel-pool size (see src/main.cc).
PINNED_ENV = {"VITDYN_ISA": "native", "VITDYN_THREADS": "2"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(target):
    """Configure (once) and build @target; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no vitdyn sources next to perfbench/ (src/CMakeLists.txt)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step = subprocess.run(configure, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if step.returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    step = subprocess.run(["cmake", "--build", out, "--target", target,
                           "-j", jobs], stdout=sys.stderr,
                          stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if step.returncode != 0:
        fail(f"build of {target} failed")
    return os.path.join(out, target)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(cmd, deadline):
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(), **PINNED_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before " + " ".join(cmd[1:3]), 1)
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd), 1)


def time_setups(binary, common, count, deadline):
    """setup_s of @count fresh --setup-only processes."""
    samples = []
    for _ in range(count):
        child = run([binary, "--setup-only"] + common, deadline)
        sample = last_json(child.stdout)
        if child.returncode != 0 or sample is None:
            sys.stderr.write(child.stderr)
            fail("set-up run failed", 1)
        samples.append(sample["setup_s"])
    return samples


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], cwd=ROOT).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("vitdyn_perfbench")
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    # The host's speed drifts over tens of seconds; timing set-ups on
    # both sides of the measured run keeps one slow moment from setting
    # setup_s.
    setup_samples = []
    if args.trace == 0:
        setup_samples = time_setups(binary, common, SETUP_REPEATS // 2,
                                    deadline)

    cmd = [binary] + common + ["--seconds", str(args.seconds),
                               "--trace", str(args.trace)]
    if args.trace == 1:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}.trace.json")]
    main_run = run(cmd, deadline)
    sys.stderr.write(main_run.stderr)
    result = last_json(main_run.stdout)
    if result is None:
        sys.stdout.write(main_run.stdout)
        fail(f"no result from the benchmark (exit {main_run.returncode})",
             1)
    for line in main_run.stdout.strip().splitlines()[:-1]:
        print(line)

    metrics = result["metrics"]
    if args.trace == 0:
        setup_samples.append(metrics["setup_s"]["value"])
        setup_samples += time_setups(binary, common,
                                     SETUP_REPEATS - SETUP_REPEATS // 2,
                                     deadline)
        print("setup_s samples: " +
              ", ".join(f"{s:.6f}" for s in setup_samples))
        metrics["setup_s"]["value"] = statistics.median(setup_samples)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    ok = main_run.returncode == 0 and result["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

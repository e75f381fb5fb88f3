#!/usr/bin/env python3
"""Builds and runs one workload of the BREW end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark package (perfbench/CMakeLists.txt)
is configured and built under $CARGO_TARGET_DIR (default .bench_build), then the
brewbench binary runs the workload in a private directory there, removed
afterwards. The last line of standard output is the binary's JSON result.

    python3 perfbench/run.py --check-repeat [--workload <name>] [--seed <n>]

runs each workload (or the one named) traced twice with the same seed and
checks that the tracer.* / ir.* / passes.* counts repeat exactly.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kernel_loop", "respecialize", "width_shift", "warm_restart")
REPEATED_COUNTS = (
    "tracer.traced_instrs",
    "tracer.captured_instrs",
    "tracer.blocks",
    "passes.instrs_removed",
    "ir.code_bytes",
    "ir.pool_bytes",
)
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def output_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def flush_written(directory, since):
    """Writes out the files under `directory` modified since `since`.

    A build leaves tens to hundreds of MB of dirty pages, which the kernel
    writes back some 30 s later: in the middle of the next runs, where it
    slows file-system work such as warm_restart's restarts by about 30%.
    """
    for root, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            try:
                if os.lstat(path).st_mtime < since:
                    continue
                fd = os.open(path, os.O_RDONLY)
            except OSError:
                continue
            try:
                os.fsync(fd)
            except OSError:
                pass
            finally:
                os.close(fd)


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cmake_dir = os.path.join(out, "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    started = time.time() - 1
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed:", " ".join(step))
            return None
    flush_written(cmake_dir, started)
    binary = os.path.join(cmake_dir, "brewbench")
    return binary if os.path.exists(binary) else None


def run_once(binary, out, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    work = os.path.join(out, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", work]
    if trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.jsonl" % (workload, seed))]
    # BREW_* variables are the library's env fallbacks (shard count, profiler,
    # perf map files outside the checkout); runs must not depend on them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("BREW_")}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
        return done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        log("workload timed out:", workload)
        return 1, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_result(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def check_repeat(binary, out, workloads, seed, seconds):
    ok = True
    for workload in workloads:
        counts = []
        for _ in range(2):
            code, text = run_once(binary, out, workload, seed, seconds, 1)
            result = parse_result(text)
            if code != 0 or result is None:
                log(workload, "did not produce a result")
                return False
            metrics = result["metrics"]
            counts.append({k: metrics[k]["value"] for k in REPEATED_COUNTS})
        same = counts[0] == counts[1]
        ok = ok and same
        print("%-13s counts %s: %s" % (workload, "repeat" if same else "DIFFER",
                                       json.dumps(counts[0] if same else counts)))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args()
    if not args.check_repeat and args.workload is None:
        parser.error("--workload is required")

    out = output_dir()
    binary = build(out)
    if binary is None:
        return 1
    if args.check_repeat:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return 0 if check_repeat(binary, out, workloads, args.seed,
                                 min(args.seconds, 2)) else 1

    code, text = run_once(binary, out, args.workload, args.seed, args.seconds,
                          args.trace)
    if code != 0 or parse_result(text) is None:
        sys.stderr.write(text)
        log("no result from", args.workload)
        return code or 1
    sys.stdout.write(text)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

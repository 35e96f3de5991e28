#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload report|explore|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test      # the benchmark's own tests

Builds the program and the harness from source into .bench_build/ (CMake,
Release), runs the harness, and prints as its last stdout line one JSON
object with "correct", "attempted", "failed" and "metrics". With --trace 0
set-up is measured nine times, each in a fresh process (four before the
measured run, its own, four after it), and setup_s is their median. Exits non-zero, printing no result, when anything fails to
build or run.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "run"
HARNESS = BUILD / "perfbench_harness"
SETUP_RUNS = 9
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then build `targets`; all output goes to stderr."""
    if not (BUILD / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4", "--target", *targets],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def stop_group(pgid):
    """Kills what is left of a process group and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(500):
            os.killpg(pgid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        pass


def run_child(argv, timeout):
    """Runs argv in its own process group; whatever it leaves behind is killed."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        proc.kill()
        proc.wait()
        stop_group(proc.pid)
    if out is None or proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} failed (exit {proc.returncode})")
    return out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["report", "explore", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    try:
        if args.self_test:
            build(["perfbench_test", "twilld"])
            return subprocess.run([str(BUILD / "perfbench_test")]).returncode
        build(["perfbench_harness"])
        WORK.mkdir(parents=True, exist_ok=True)
        base = [str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--work-dir", str(WORK)]
        setups = []

        def setup_only(n):
            for _ in range(n):
                line = run_child(base + ["--trace", "0", "--setup-only"], RUN_TIMEOUT_S)[-1]
                setups.append(json.loads(line)["setup_s"])

        # Half of the set-ups before the measured run and half after it, so
        # their median spans the same stretch of the host's speed drift as
        # the run's own metrics.
        if not args.trace:
            setup_only(SETUP_RUNS // 2)
        lines = run_child(base + ["--trace", str(args.trace)], RUN_TIMEOUT_S)
        result = json.loads(lines[-1])
        if not args.trace:
            setup_only(SETUP_RUNS - 1 - SETUP_RUNS // 2)
    except (subprocess.CalledProcessError, RuntimeError, ValueError, KeyError,
            IndexError, OSError) as e:
        log(str(e))
        return 1

    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        log("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

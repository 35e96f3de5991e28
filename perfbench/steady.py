#!/usr/bin/env python3
"""Steadiness check: run each workload N times and compare spreads to bounds.

    python3 perfbench/steady.py [--runs 10] [--workload report ...]
                                [--seconds S] [--first-seed 1] [--json FILE]

Each run uses another seed (first-seed, first-seed+1, ...), as the
benchmark's acceptance check does. For every end-to-end metric it prints
the median, the first and third quartiles (statistics.quantiles, n=4), and
the spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.
A spread above a third of its bound is flagged "noisy", above the bound
"OVER BOUND".

It also prints each class's latency (the median over the runs of the
class's p10, p50 and p90) and, for serve, each outcome's poll modes (share
of operations per poll count and their median latency): the measurements
behind the class cost tables in src/stream.cpp.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLASS_LINE = re.compile(r"^\s+(\S+)\s+n=(\d+)\s+p10\s+(\S+)\s+p50\s+(\S+)\s+p90\s+(\S+) ms$")
POLL_LINE = re.compile(r"^\s+polls (\S+)\s+(.*)$")
POLL_MODE = re.compile(r"(\d\+?):\s*([\d.]+)% p50 ([\d.]+) ms")


def parse_classes(stderr, classes, polls):
    """Adds one run's per-class and poll-mode lines to the accumulators."""
    for line in stderr.splitlines():
        m = CLASS_LINE.match(line)
        if m:
            classes.setdefault(m[1], []).append([float(m[i]) for i in (3, 4, 5)])
            continue
        m = POLL_LINE.match(line)
        if m:
            for mode, share, p50 in POLL_MODE.findall(m[2]):
                polls.setdefault(m[1], {}).setdefault(mode, []).append(
                    [float(share), float(p50)])


def print_classes(classes, polls, runs):
    print(f"  {'class':28} {'p10':>9} {'p50':>9} {'p90':>9}  ms, median of runs")
    for name, rows in sorted(classes.items(), key=lambda kv: statistics.median(
            r[1] for r in kv[1])):
        p10, p50, p90 = (statistics.median(r[i] for r in rows) for i in range(3))
        print(f"  {name:28} {p10:9.3f} {p50:9.3f} {p90:9.3f}")
    for outcome, modes in polls.items():
        cells = []
        for mode, rows in sorted(modes.items()):
            # A run in which no operation needed this many polls has no row.
            shares = [r[0] for r in rows] + [0.0] * (runs - len(rows))
            cells.append(f"{mode} polls: {statistics.median(shares):5.1f}% "
                         f"(max {max(shares):5.1f}%) at {statistics.median(r[1] for r in rows):.3f} ms")
        print(f"  polls {outcome:13} " + "; ".join(cells))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=["report", "explore", "serve"],
                    help="default: the workloads BENCHMARK.json lists")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    ok = True
    for wl in args.workload or names:
        values = {m: [] for m in bounds}
        classes, polls = {}, {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
            if out.returncode != 0:
                tail = "\n    ".join(out.stderr.splitlines()[-5:])
                print(f"{wl} seed {seed}: exit {out.returncode}\n    {tail}", flush=True)
                ok = False
                continue
            parse_classes(out.stderr, classes, polls)
            res = json.loads(out.stdout.splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}")
                ok = False
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"{wl} seed {seed}: " + "  ".join(
                f"{m}={res['metrics'][m]['value']:.4g}" for m in bounds), flush=True)
        raw[wl] = {"metrics": values, "classes": classes, "polls": polls}
        print(f"\n{wl}: {args.runs} runs of {args.seconds:g} s")
        print(f"  {'metric':22} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} {'bound':>6}")
        for m, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bounds[m] / 3:
                flag = "  noisy" if spread <= bounds[m] else "  OVER BOUND"
            print(f"  {m:22} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:8.3f} {bounds[m]:6.2f}{flag}")
        print_classes(classes, polls, args.runs)
        print(flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

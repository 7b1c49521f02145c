#!/usr/bin/env python3
"""Run the benchmark once per seed and report how steady each metric is.

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median. A metric whose spread
exceeds a third of its BENCHMARK.json bound is flagged with '!'. Run from the
repository root:

    python3 _perfbench/steady.py --workloads ingest,fleet --seeds 1-10
    python3 _perfbench/steady.py --workloads dense --seeds 10-1 --trace 1
    python3 _perfbench/steady.py --workloads ingest,dense --seeds 1-5 --interleave

Seeds run in the order given (10-1 runs backwards). By default every seed of
one workload runs before the next workload; --interleave runs every workload
on one seed before the next seed, which separates a drift with run order
from a difference between workloads. Raw per-run values, with the run's
wall time and the host's CPU steal, are appended as JSON lines to
.bench_build/steady.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    lo, hi = int(lo), int(hi or lo)
    return list(range(lo, hi + 1)) if lo <= hi else list(range(lo, hi - 1, -1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10 or 10-1")
    ap.add_argument("--seconds", type=int, help="timed window (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--interleave", action="store_true", help="run every workload on a seed before the next seed")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    order = [(w, s) for w in workloads for s in seeds(args.seeds)]
    if args.interleave:
        order = [(w, s) for s in seeds(args.seeds) for w in workloads]
    os.makedirs(".bench_build", exist_ok=True)
    failed = False
    values = {w: {} for w in workloads}
    steals = {w: [] for w in workloads}
    for w, seed in order:
        cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.monotonic()
        run = subprocess.run(cmd, capture_output=True, text=True)
        elapsed = time.monotonic() - t0
        if run.returncode != 0:
            print(f"{w} seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
            failed = True
            continue
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        # The hypervisor's CPU steal during the window, from the table.
        steal = next((float(ln.split()[1]) for ln in lines if ln.split()[:1] == ["machine.steal_frac"]), None)
        with open(".bench_build/steady.jsonl", "a") as f:
            f.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace, "elapsed_s": round(elapsed, 1),
                                "steal": steal, **result}) + "\n")
        steals[w].append(steal or 0.0)
        if not result["correct"] or result["failed"]:
            print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
            failed = True
        for name, m in result["metrics"].items():
            values[w].setdefault(name, []).append(m["value"])
    for w in workloads:
        steal = statistics.median(steals[w]) if steals[w] else 0.0
        print(f"\n{w}: {len(steals[w])} runs of {seconds}s, trace={args.trace}, median CPU steal {steal:.3f}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = "!" if bound is not None and spread > bound / 3 else " "
            print(f"{flag} {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound if bound is not None else '-':>6}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

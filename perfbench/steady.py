#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs every workload (or the ones named) once per seed and reports, for each
end-to-end metric, the run-to-run spread: the distance between the first and
third quartile of the runs' values (statistics.quantiles, n=4) as a share of
their median, next to the metric's bound. A spread within a third of its bound
is steady; one beyond the bound fails. Use it to size run lengths and arrival
rates. Run from the root of the checkout:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workload serve-mixed --first-seed 100
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload, each with its own seed")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default all)")
    ap.add_argument("--trace", type=int, default=0, help="1 checks that traced runs succeed instead")
    ap.add_argument("--same-seed", action="store_true", help="repeat the first seed: machine noise alone")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    ok = True
    for name in names:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            out, wall = run_once(bench, name, seed, args.trace)
            walls.append(wall)
            if not out["correct"] or out["failed"] != 0:
                print(f"{name} seed {seed}: {out['failed']} of {out['attempted']} operations failed")
                ok = False
            for m in metrics:
                if m["name"] not in out["metrics"]:
                    print(f"{name} seed {seed}: metric {m['name']} missing")
                    ok = False
                    continue
                values[m["name"]].append(out["metrics"][m["name"]]["value"])
        print(f"{name}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f}s")
        if args.trace:
            continue
        for m in metrics:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            verdict = "steady" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            if spread > bound:
                ok = False
            print(f"  {m['name']:<18} median {med:12.4f} {m['unit']:<6} spread {spread:7.4f}  bound {bound:.2f}  {verdict}")
            print("      " + " ".join(f"{v:.4g}" for v in vals))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

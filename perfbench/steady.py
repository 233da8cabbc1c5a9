#!/usr/bin/env python3
"""Steadiness report: run each workload over several seeds and show spreads.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--batches 2]

For every workload x end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median over
the seeds, and flags a spread over the metric's bound in BENCHMARK.json.
The `measured` column is the spread of the same metric before it was
scaled to the reference host's speed.
Seeds run from 1. A warm-up run per workload and batch is made first and
discarded. With two or more batches it also flags a
median that got worse than the first batch's by more than the bound, and
checks that every deterministic counter repeats exactly for the same seed.
Runs from different machines (nproc) or sources (commit) are never mixed.
Raw rows are appended to --out as JSON lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The first run of a batch reads slow; its seed is outside the measured ones.
WARMUP_SEED = 10_000


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {r.returncode}")
    row = {"workload": workload, "seed": seed}
    for line in r.stdout.splitlines():
        if line.startswith("context "):
            row["context"] = json.loads(line[len("context "):])
        elif line.startswith("counters "):
            row["counters"] = json.loads(line[len("counters "):])
        elif line.startswith("metric ") and "workload-specific" in line:
            name, value = line.split()[1:3]
            row.setdefault("specific", {})[name] = float(value)
    row["result"] = json.loads(r.stdout.splitlines()[-1])
    return row


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--batches", type=int, default=1)
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_work", "steady.jsonl"))
    args = ap.parse_args()
    metrics = spec["end_to_end"]
    os.makedirs(os.path.dirname(args.out), exist_ok=True)

    bad = 0
    for workload in args.workloads.split(","):
        batches = []
        for b in range(args.batches):
            run_once(workload, WARMUP_SEED, args.seconds, 0)
            rows = []
            for s in range(1, 1 + args.seeds):
                row = run_once(workload, s, args.seconds, 0)
                row["batch"] = b
                with open(args.out, "a") as f:
                    f.write(json.dumps(row) + "\n")
                rows.append(row)
                print(f"  {workload} batch {b} seed {s}: "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in row["result"]["metrics"].items()),
                      flush=True)
            batches.append(rows)

        stamps = {(r["context"]["nproc"], r["context"]["commit"]) for rows in batches for r in rows}
        if len(stamps) != 1:
            print(f"{workload}: runs come from different machines or sources {stamps}; not compared")
            bad += 1
            continue
        failed = sum(r["result"]["failed"] for rows in batches for r in rows)
        attempted = sum(r["result"]["attempted"] for rows in batches for r in rows)
        print(f"\n{workload}: nproc={stamps.pop()[0]} seeds={args.seeds} batches={args.batches} "
              f"error_rate={failed / attempted:.4g} ({failed}/{attempted})")
        bad += failed > 0
        print(f"  {'metric':<16} {'batch':>5} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'measured':>8}  flag")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for b, rows in enumerate(batches):
                vals = [r["result"]["metrics"][name]["value"] for r in rows]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                flag = ""
                if spread > bound:
                    flag, bad = "SPREAD OVER BOUND", bad + 1
                elif spread > bound / 3:
                    flag = "spread over bound/3"
                if medians:
                    base = medians[0]
                    worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                    if worse > bound:
                        flag, bad = f"{flag} MEDIAN WORSE {worse:+.3f}".strip(), bad + 1
                medians.append(med)
                raw = [r["specific"][f"measured.{name}"] for r in rows]
                rq1, rmed, rq3 = statistics.quantiles(raw, n=4)
                print(f"  {name:<16} {b:>5} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {bound:>6} {(rq3 - rq1) / rmed:>8.4f}  {flag}")
        for rows in batches[1:]:
            for first, again in zip(batches[0], rows):
                if first["counters"] != again["counters"]:
                    print(f"  COUNTER DRIFT seed {first['seed']}: "
                          f"{first['counters']} vs {again['counters']}")
                    bad += 1
        print(flush=True)
    print("steady" if bad == 0 else f"{bad} problem(s) flagged")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the release `paragraph` binary and the harness, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds with cargo (offline) into
$CARGO_TARGET_DIR, default `.bench_build`, runs `perfbench` in a scratch
directory under `.bench_work/`, and passes its output through. The last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; it is printed only when its metric names match BENCHMARK.json
and every value is a finite number other than 0. `--seconds` defaults to
BENCHMARK.json's `run_seconds`.
Exits non-zero, printing no result, when anything fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["analyze-stream", "analyze-observed", "sweep-grid", "serve-mixed"]
# The harness must finish well inside the 180 s a run may take.
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """A digest of the sources the benchmark builds and runs (documentation
    excluded): the run's commit stamp, since checkouts need not be git
    repositories."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if not f.endswith(".md")]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "paragraph-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bad_result(result, spec, traced):
    """Why `result` breaks the contract, or None when it keeps it."""
    want = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != want:
        return f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(want)}"
    for name, m in metrics.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v) or v == 0:
            return f"{name} reads {v!r}; a metric must be a finite number other than 0"
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        return f"attempted is {result.get('attempted')!r}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ("Cargo.toml", "Cargo.lock", "crates", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"{need} is missing: run from a full checkout of the repository")
            return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    if not build(target):
        return 1

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--paragraph", os.path.join(target, "release", "paragraph"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", work,
        "--commit", source_digest(),
    ]
    # Own process group, so a timeout can stop the harness and everything
    # it started (the daemon included) at once.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"harness timed out after {HARNESS_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        log(f"harness exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"last harness line is not a result: {lines[-1]!r}")
        return 1
    why = bad_result(result, spec, args.trace == 1)
    if why:
        log(why)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

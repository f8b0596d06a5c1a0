#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <train_dba|serve_paging|fabric_reduce>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Each run configures and builds perfbench/
(the simulator sources from src/ plus the benchmark program) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; only the first run compiles everything. Build output goes to stderr.

The benchmark program prints one JSON object. This script checks its
cross-check counters against bench/baselines/BENCH_serve_slo.json and
BENCH_fabric_allreduce.json, prints the run's context (reference loops,
build, sample counts) on one line, and prints the result as the last line:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_dba", "serve_paging", "fabric_reduce")
BASELINES = ("serve_slo", "fabric_allreduce")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    binary = build_dir / "perfbench"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", "4"],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def crosscheck(observed):
    """Every counter of each committed baseline must match exactly."""
    problems = []
    for name in BASELINES:
        path = ROOT / "bench" / "baselines" / f"BENCH_{name}.json"
        try:
            base = json.loads(path.read_text())["metrics"]
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"{name}: cannot read baseline ({e})")
            continue
        mine = observed.get(name, {})
        for key, want in sorted(base.items()):
            got = mine.get(key)
            if got is None or got != want:
                problems.append(f"{name}: {key} = {got}, baseline {want}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail(f"benchmark exited with code {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    out = json.loads(lines[-1])

    failures = list(out.get("check_failures", []))
    if "crosscheck" in out:
        failures += crosscheck(out["crosscheck"])
    for f in failures:
        print(f"perfbench: check failed: {f}", file=sys.stderr)
    info = {k: out[k] for k in ("context", "samples") if k in out}
    info["check_failures"] = failures
    print(json.dumps({"report": info}))
    print(json.dumps({
        "correct": bool(out["correct"]) and not failures,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": out["metrics"],
    }))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark, building it first.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --smoke

Run from the repository root. The benchmark (watchbench) is compiled
from this checkout's sources with CMake into $CARGO_TARGET_DIR/e2ebench
(default .bench_build/e2ebench). The binary prints one "metric" line per
metric; this script echoes them and ends with one JSON line holding the
metrics BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
--trace 1), plus correct/attempted/failed. --smoke runs every workload
for two seconds in both modes and checks that every listed metric is
printed with its unit and that no wrong payload was served.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170

# Metrics printed but not listed in BENCHMARK.json, because only some
# workloads produce them (or they are 0 by design); --smoke checks them
# too. Keyed by (workload or "*", trace).
PRINTED_ONLY = {
    ("*", 0): {"failed_frac": "ratio", "hit_p99_us": "us"},
    ("setquery_embedded", 0): {"miss_p50_us": "us", "miss_p99_us": "us"},
    ("tpcd_refresh_daemon", 0): {"miss_p50_us": "us", "miss_p99_us": "us",
                                 "invalidate_p90_us": "us",
                                 "sched_lag_p99_us": "us"},
    ("*", 1): {"watchman.stale_answers": "count"},
    ("setquery_embedded", 1): {"watchman.hit_us": "us",
                               "watchman.miss_self_us": "us"},
    ("tpcd_refresh_daemon", 1): {"watchman.invalidate_relation_us": "us",
                                 "watchman.sets_dropped_per_refresh": "ratio"},
}


def fail(msg, code=1):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds watchbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "watchman", "watchman.h")):
        fail("watchman sources (src/) not found next to e2ebench/", 2)
    out = os.path.join(build_root(), "e2ebench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=850).returncode
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}", 3)
    return os.path.join(out, "watchbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs watchbench; returns (metrics by name, result fields)."""
    outdir = os.path.join(build_root(), "e2ebench-out")
    os.makedirs(outdir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", outdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S}s")
    metrics, result = {}, None
    for line in proc.stdout.splitlines():
        print(line)
        parts = line.split()
        if parts and parts[0] == "metric" and len(parts) >= 4:
            metrics[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
        elif parts and parts[0] == "result":
            result = dict(p.split("=", 1) for p in parts[1:])
    if proc.returncode != 0 or result is None:
        fail(f"{workload} exited with {proc.returncode} and no result line")
    return metrics, result


def select(bench, metrics, trace, extra=None):
    """The listed metrics (plus `extra`, name -> unit), and the problems:
    names missing, with the wrong unit, or not finite."""
    listed = bench["per_layer" if trace else "end_to_end"]
    listed = listed + [{"name": n, "unit": u} for n, u in (extra or {}).items()]
    chosen, problems = {}, []
    for m in listed:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{m['name']} not printed")
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {got['unit']} != {m['unit']}")
        elif not math.isfinite(got["value"]):
            problems.append(f"{m['name']} is not a finite number")
        else:
            chosen[m["name"]] = got
    return chosen, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)
    binary = build()

    if args.smoke:
        bad = []
        for w in bench["workloads"]:
            for trace in (0, 1):
                metrics, result = run_once(binary, w["name"], args.seed, 2, trace)
                extra = {**PRINTED_ONLY.get(("*", trace), {}),
                         **PRINTED_ONLY.get((w["name"], trace), {})}
                _, problems = select(bench, metrics, trace, extra)
                if result.get("correct") != "1":
                    problems.append("wrong payload served")
                if result.get("failed") != "0":
                    problems.append(f"{result.get('failed')} operations failed")
                bad += [f"{w['name']} trace={trace}: {p}" for p in problems]
        for p in bad:
            print(f"smoke: {p}", file=sys.stderr)
        print("smoke: " + ("FAILED" if bad else "ok"))
        sys.exit(1 if bad else 0)

    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    metrics, result = run_once(binary, args.workload, args.seed, args.seconds,
                               args.trace)
    chosen, problems = select(bench, metrics, args.trace)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": result.get("correct") == "1" and not problems,
        "attempted": max(1, int(result.get("attempted", "0"))),
        "failed": int(result.get("failed", "0")),
        "metrics": chosen,
    }))


if __name__ == "__main__":
    main()

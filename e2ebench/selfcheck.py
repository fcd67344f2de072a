#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark.

Runs every workload named in BENCHMARK.json briefly, once untraced and
once traced, and checks that:

  * the last stdout line is a result object with exactly the keys
    correct, attempted, failed and metrics, and a run-metadata line
    precedes it;
  * every answer was correct (correct is true, failed is 0);
  * the untraced run emits exactly the end_to_end metrics and the traced
    run exactly the per_layer metrics of BENCHMARK.json, each with its
    declared unit and a numeric value;
  * the traced run reports error_rate 0 and no traced-replica output
    that differs from Session::Execute.

Run from the repository root:  python3 e2ebench/selfcheck.py [--seconds 1]
Exits non-zero when any check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

META_KEYS = {"workload", "seed", "doc_seed", "scale", "doc_bytes", "nproc",
             "hardware_concurrency", "build_type", "compiler", "git_sha",
             "certify", "samples"}


def check_run(workload, trace, expected, seconds, failures):
    label = f"{workload} trace={trace}"
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2]).get("run", {})
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    missing_meta = META_KEYS - set(meta)
    if missing_meta:
        problems.append(f"metadata lacks {sorted(missing_meta)}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, declared {unit!r}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value {m.get('value')!r}")
    if trace:
        for name in ("error_rate", "trace.replica_mismatches"):
            if metrics.get(name, {}).get("value") != 0:
                problems.append(f"{name} = {metrics.get(name, {}).get('value')}")
    status = "ok" if not problems else "FAIL"
    print(f"[selfcheck] {label}: {status} "
          f"({result.get('attempted')} requests, {len(metrics)} metrics)")
    failures.extend(f"{label}: {p}" for p in problems)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    for w in spec["workloads"]:
        check_run(w["name"], 0, end_to_end, args.seconds, failures)
        check_run(w["name"], 1, per_layer, args.seconds, failures)
    for f in failures:
        print(f"[selfcheck] {f}")
    print(f"[selfcheck] {'PASS' if not failures else 'FAIL'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

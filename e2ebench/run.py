#!/usr/bin/env python3
"""Builds and runs the eXrQuy end-to-end benchmark (e2ebench).

Run from the repository root:

  python3 e2ebench/run.py --workload oneshot-small --seed 1 --seconds 25 --trace 0
  python3 e2ebench/run.py --regen-oracle

The first call configures and builds an optimized (Release) copy of the
library sources in src/ together with the benchmark program under
.bench_build/e2ebench; later calls rebuild incrementally. The program's
stdout is passed through: its last line is the result object. Build
output goes to stderr. With --trace 1 the recorded spans are written to
.bench_out/spans-<workload>-seed<seed>.jsonl.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no library sources at src/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "e2ebench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-oracle", action="store_true",
                    help="recompute e2ebench/oracle.tsv (several minutes)")
    args = ap.parse_args()
    if not args.regen_oracle and not args.workload:
        ap.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"e2ebench: build failed: {e}")

    oracle = os.path.join(HERE, "oracle.tsv")
    if args.regen_oracle:
        cmd = [binary, "--regen-oracle", oracle]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--oracle", oracle, "--git-sha", git_sha()]
        if args.trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            cmd += ["--spans", os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the campaign benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the detector libraries from src/)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset, then runs the benchmark binary. Its standard output
is passed through; the last line is the result JSON object. Spans of a
traced run are written next to the binary. Exits non-zero, without a
result line, when the build fails, the benchmark fails or it runs past
its time limit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# campaign_bench's per-campaign watchdog budget (watchdogSeconds): the
# last pass may start just before --seconds runs out.
CAMPAIGN_BUDGET_S = 60
# Set-up, the span dump and process start-up, beyond the above.
MARGIN_S = 30
WORKLOADS = ("paper_mix", "signature_heavy", "crash_states")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure (once) and build the benchmark; returns the binary."""
    if not (ROOT / "src" / "xfd.hh").is_file():
        raise RuntimeError(f"detector sources missing under {ROOT / 'src'}")
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "campaign_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "campaign_bench"


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()[:12]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for sub in ("src", BENCH_DIR.name):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def check_result(line):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if result["attempted"] < 1:
        raise ValueError("no campaign attempted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", source_id(),
           "--spans-out",
           str(out / f"spans-{args.workload}-seed{args.seed}.json")]
    timeout = args.seconds + CAMPAIGN_BUDGET_S + MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"benchmark still running after {timeout} s; killed")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"benchmark exited with code {proc.returncode}")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        check_result(lines[-1])
    except (ValueError, KeyError) as e:
        sys.stderr.write(proc.stdout)
        log(f"malformed result line: {e}")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""One run of the CDStore benchmark (the command BENCHMARK.json names).

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]

Run from the repository root. Builds benchmark/ (the cdstore library plus
cdstore_bench) into build-bench/ when it is missing or stale, runs the
workload for S seconds in a scratch directory under .bench_work/, and prints
the run's full record on a line starting with "BENCH_RUN " (workload, seed,
host stamp, end-to-end metrics, per-layer metrics when traced). The last line
of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics, or with --trace 1 the per-layer metrics.
--out FILE also appends the record to FILE as one JSON line (what
collect.py reads). Exits non-zero, without a result line, when
the sources are missing or the build fails; exits 1 after the result line
when an operation or correctness check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-bench"
BINARY = BUILD_DIR / "cdstore_bench"
WORKLOADS = ("ingest-unique", "fsl-weekly", "vm-concurrent", "small-files")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds cdstore_bench; the build is incremental."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("run.py: the cdstore sources (CMakeLists.txt, src/) are not at " + str(ROOT))
        return False
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
    if not cache.exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "cdstore_bench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"  # an exported checkout
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the run record to this JSON-lines file")
    args = ap.parse_args()

    if not build():
        log("run.py: build failed")
        return 3

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--work-dir={work}"]
    if args.trace:
        cmd.append("--traced")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: cdstore_bench did not finish within {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # another run's directory is still there
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"run.py: cdstore_bench printed nothing (exit {proc.returncode})")
        return proc.returncode or 5
    record = json.loads(lines[-1])
    record["host"]["git_sha"] = git_sha()
    record["seconds"] = args.seconds
    record["wall_s"] = time.monotonic() - start

    print("BENCH_RUN " + json.dumps(record))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["layers"] if args.trace else record["metrics"],
    }
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs the benchmark on a parent and a change, pair by pair, into one file.

    python3 benchmark/collect.py --base PARENT_TREE --new CHANGE_TREE --out FILE [--pairs 10]

Each tree is a checkout of the repository holding benchmark/ and
BENCHMARK.json (to measure a commit older than the benchmark, copy both into
its checkout). Pair i runs each workload on both trees back to back with
seed i + 1, the base tree first in even pairs and the new tree first in odd
ones, so drift of the host over minutes falls on both sides alike. Then one
traced run per workload per tree (seed 1). Every run goes through the
tree's own run.py, which builds that tree into its build-bench/ first, and
lasts the run_seconds both trees' BENCHMARK.json name. compare.py reads the
file. Giving one tree for both sides measures how well the benchmark agrees
with itself, which is how results/BENCH_baseline.json was made.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def spec(tree):
    return json.loads((tree / "BENCHMARK.json").read_text())


def one_run(tree, workload, seed, seconds, trace):
    with tempfile.NamedTemporaryFile("r", suffix=".jsonl") as out:
        cmd = [sys.executable, str(tree.resolve() / "benchmark" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", out.name]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        lines = out.read().splitlines()
    if not lines:
        sys.exit(f"collect.py: {tree} {workload} seed {seed} produced no record "
                 f"(exit {proc.returncode})")
    record = json.loads(lines[-1])
    print(f"{str(tree):24.24s} {workload:14s} seed {seed:3d} trace {trace}: "
          f"failed {record['failed']}, {record['rounds']} rounds, {record['wall_s']:.1f} s",
          file=sys.stderr, flush=True)
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, type=Path, help="checkout of the parent")
    ap.add_argument("--new", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    trees = {"base": args.base, "new": args.new}
    seconds = spec(trees["new"])["run_seconds"]
    if spec(trees["base"])["run_seconds"] != seconds:
        sys.exit("collect.py: the trees' BENCHMARK.json name different run_seconds")
    workloads = [w["name"] for w in spec(trees["new"])["workloads"]]

    sides = {name: {"tree": str(tree), "runs": [], "traced": []} for name, tree in trees.items()}
    for i in range(args.pairs):
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        for w in workloads:
            for name in order:
                sides[name]["runs"].append(one_run(trees[name], w, i + 1, seconds, 0))
    for w in workloads:
        for name in ("base", "new"):
            sides[name]["traced"].append(one_run(trees[name], w, 1, seconds, 1))
    doc = {"seconds": seconds, "pairs": args.pairs, **sides}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    failed = sum(r["failed"] for s in sides.values() for r in s["runs"] + s["traced"])
    print(f"wrote {args.out}; failed operations: {failed}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

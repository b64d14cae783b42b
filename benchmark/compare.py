#!/usr/bin/env python3
"""Compares the parent and the change in one collect.py results file.

    python3 benchmark/compare.py RESULTS

For every (workload, end-to-end metric) of BENCHMARK.json it prints each
side's median and quartiles and a verdict. A metric's allowance is its
bound times the base median, or its absolute floor below when that is
larger:

  worse       the new median is worse than the base median by more than the
              allowance
  unresolved  either side's quartile spread is wider than its allowance,
              unless every new run is better than every base run
  better      there are at least 10 pairs (a pair is the two runs of one
              seed), the new run wins at least 9 of 10 of them (ties count
              for neither), and the medians differ by more than the base's
              interquartile range
  same        otherwise

A failed operation in any new run adds an error row marked worse. Exits 1
when any row is worse or unresolved, and 2 when the file's runs are not
paired runs of one length.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Absolute allowances. BENCHMARK.json holds only each metric's share bound;
# set-up takes tens of milliseconds, where a share of it is a few
# milliseconds of scheduling noise.
FLOORS = {"setup_s": 0.05}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(pairs, better, bound, floor):
    base = [b for b, _ in pairs]
    new = [n for _, n in pairs]
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1 if better == "higher" else -1

    def gain(a, b):  # > 0 when a is better than b
        return sign * (a - b)

    if gain(bm, nm) > max(bound * abs(bm), floor):
        return "worse"
    too_wide = b3 - b1 > max(bound * abs(bm), floor) or n3 - n1 > max(bound * abs(nm), floor)
    all_better = all(gain(n, b) > 0 for n in new for b in base)
    if too_wide and not all_better:
        return "unresolved"
    wins = sum(1 for b, n in pairs if gain(n, b) > 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain(nm, bm) > b3 - b1:
        return "better"
    return "same"


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = json.loads(Path(sys.argv[1]).read_text())
    seconds = {r["seconds"] for side in ("base", "new") for r in doc[side]["runs"]}
    if seconds != {doc["seconds"]}:
        print(f"compare.py: runs of different lengths {sorted(seconds)}", file=sys.stderr)
        return 2
    bad = 0
    print(f"{'workload':14s} {'metric':26s} {'base q1/median/q3':>32s} "
          f"{'new q1/median/q3':>32s}  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        base = {r["seed"]: r for r in doc["base"]["runs"] if r["workload"] == w}
        new = {r["seed"]: r for r in doc["new"]["runs"] if r["workload"] == w}
        if base.keys() != new.keys():
            print(f"compare.py: {w} has unpaired seeds", file=sys.stderr)
            return 2
        seeds = sorted(base)
        for m in spec["end_to_end"]:
            name = m["name"]
            pairs = [(base[s]["metrics"][name]["value"], new[s]["metrics"][name]["value"])
                     for s in seeds if name in base[s]["metrics"]]
            if not pairs:
                continue
            v = verdict(pairs, m["better"], m["bound"], FLOORS.get(name, 0.0))
            bad += v in ("worse", "unresolved")
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            b = fmt.format(*quartiles([b for b, _ in pairs]))
            n = fmt.format(*quartiles([n for _, n in pairs]))
            print(f"{w:14s} {name:26s} {b:>32s} {n:>32s}  {v}  ({m['unit']}, {len(pairs)} pairs)")
        failed = sum(r["failed"] for r in new.values())
        if failed:
            bad += 1
            print(f"{w:14s} {'failed operations':26s} {'':>32s} {failed:>32d}  worse")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two perfbench results files, metric by metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each results file holds one JSON record per run, as the benchmark appends
them (default `.bench_out/results.jsonl`). Untraced runs are compared per
workload on every end-to-end metric of the repository's BENCHMARK.json,
and each pairing gets one verdict:

- better: at least ten pairs of runs (same seed on both sides, else run
  order), the change wins at least nine tenths of them (ties count for
  neither), and the medians differ by more than the base's own spread
  (the distance between its quartiles);
- unresolved: the run-to-run spread of either side, as a share of its
  median, is wider than the metric's bound, and not every run of the
  change reads better than every run of the base;
- worse: the change's median is worse than the base's by more than the
  bound;
- same: otherwise.

Every ratio is printed with its base. Exits 1 if any verdict is "worse".
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = {}
    stamps = set()
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            if r.get("trace"):
                continue
            runs.setdefault(r["workload"], []).append(r)
            stamps.add((r.get("git_rev"), r.get("nproc"), r.get("profile"), r.get("rustc"), r.get("seconds")))
    return runs, stamps


def spread(values):
    """Quartile distance (Python's default method) and median."""
    med = statistics.median(values)
    if len(values) < 2:
        return 0.0, med
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0], med


def pairs(base, change, name):
    by_seed = {r["seed"]: r for r in base}
    common = [r for r in change if r["seed"] in by_seed]
    if common:
        return [(by_seed[r["seed"]]["metrics"][name]["value"], r["metrics"][name]["value"]) for r in common]
    return [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in zip(base, change)]


def verdict(metric, base, change):
    name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
    b = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
    if not a or not b:
        return None
    iqr_a, med_a = spread(a)
    iqr_b, med_b = spread(b)

    def better(x, y):  # x reads better than y
        return x < y if lower else x > y

    ps = pairs(base, change, name)
    wins = sum(1 for pa, pb in ps if better(pb, pa))
    worse_by = ((med_b - med_a) if lower else (med_a - med_b)) / abs(med_a) if med_a else 0.0
    rel_spread = max(iqr_a / abs(med_a) if med_a else 0.0, iqr_b / abs(med_b) if med_b else 0.0)
    all_better = all(better(y, x) for x in a for y in b)
    if len(ps) >= 10 and wins >= 0.9 * len(ps) and better(med_b, med_a) and abs(med_b - med_a) > iqr_a:
        v = "better"
    elif rel_spread > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "same"
    ratio = med_b / med_a if med_a else float("nan")
    unit = metric["unit"]
    return (
        f"{v:<10} {name:<16} change/base = {ratio:.4f} (base {med_a:.6g} {unit}, change {med_b:.6g} {unit}); "
        f"spread {iqr_a / abs(med_a) if med_a else 0:.3f}/{iqr_b / abs(med_b) if med_b else 0:.3f} "
        f"vs bound {bound}; change wins {wins}/{len(ps)} pairs; runs {len(a)}/{len(b)}",
        v,
    )


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args()
    bench = json.loads(BENCHMARK.read_text())
    base, base_stamps = load(args.base)
    change, change_stamps = load(args.change)
    for label, stamps in (("base", base_stamps), ("change", change_stamps)):
        for rev, nproc, profile, rustc, seconds in sorted(stamps, key=str):
            print(f"{label}: rev {rev}, nproc {nproc}, {profile}, {rustc}, {seconds} s per run")
    if {s[1:] for s in base_stamps} != {s[1:] for s in change_stamps}:
        print("warning: the files differ in machine, build or run length; verdicts may not hold")
    worse = False
    for workload in sorted(set(base) & set(change)):
        print(f"\n{workload}")
        for metric in bench["end_to_end"]:
            out = verdict(metric, base[workload], change[workload])
            if out:
                print("  " + out[0])
                worse |= out[1] == "worse"
    for workload in sorted(set(base) ^ set(change)):
        print(f"\n{workload}: only in {'base' if workload in base else 'change'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two sets of eivreg benchmark results, workload by workload.

    python3 bench/compare.py BASE CHANGE

BASE and CHANGE are result files written by ``run.py`` (``.bench_out/*.json``)
or directories holding them, such as ``bench/baseline``.  Several runs of a
workload on one side (different seeds) are pooled: the comparison uses their
median and, as the run-to-run spread, the distance between their first and
third quartiles over the median.  A side with a single run falls back on the
spread of that run's own rounds.

Each end-to-end metric gets a verdict against its bound in BENCHMARK.json:

* ``worse``      the change's median is worse by more than the bound;
* ``better``     it is better by more than the base's own spread, and the
  change reads better in nine of ten pairs of runs (paired by seed when
  both sides ran the same seeds);
* ``unchanged``  neither, and the spread is within the bound;
* ``unresolved`` the spread is wider than the bound, so the runs cannot
  tell, unless every run of one side beats every run of the other.

Run the two sides alternately (base, change, base, ...) with the same seeds:
on a shared host the speed drifts by several per cent over minutes, and two
sets run one after the other show that drift as a change.

Per-layer metrics have no bound and are listed with their relative change.
The exit code is 1 when any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(target: str) -> dict:
    """Result records grouped by (workload, trace)."""
    path = Path(target)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups = defaultdict(list)
    for f in files:
        record = json.loads(f.read_text(encoding="utf-8"))
        if "workload" in record and "metrics" in record:
            groups[(record["workload"], record["trace"])].append(record)
    return groups


def spread(values: list) -> float:
    """Interquartile distance over the median; infinite when it cannot be told."""
    if len(values) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf


def side_spread(records: list, name: str) -> float:
    if len(records) >= 2:
        return spread([r["metrics"][name]["value"] for r in records])
    return spread(records[0].get("samples", {}).get(name, []))


def commits(records: list) -> list:
    return sorted({r["provenance"]["git_commit"][:12] for r in records})


def win_share(base: list, change: list, name: str, sign: float) -> float:
    """Share of pairs in which the change reads better.  Runs are paired by
    seed where both sides ran the same seeds, else every base run meets
    every change run."""
    def by_seed(records):
        return {r["provenance"]["workload_seed"]: r["metrics"][name]["value"] for r in records}

    b, c = by_seed(base), by_seed(change)
    common = sorted(set(b) & set(c))
    pairs = ([(b[s], c[s]) for s in common] if common
             else [(bv, cv) for bv in b.values() for cv in c.values()])
    return sum(sign * cv < sign * bv for bv, cv in pairs) / len(pairs)


def verdict(base: list, change: list, name: str, bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    bv = [r["metrics"][name]["value"] for r in base]
    cv = [r["metrics"][name]["value"] for r in change]
    mb, mc = statistics.median(bv), statistics.median(cv)
    worse = sign * (mc - mb) / abs(mb) if mb else math.inf
    base_spread = side_spread(base, name)
    if max(base_spread, side_spread(change, name)) > bound:
        if all(sign * c < sign * b for c in cv for b in bv):
            return "better"
        if all(sign * c > sign * b for c in cv for b in bv) and worse > bound:
            return "worse"
        return "unresolved"
    if worse > bound:
        return "worse"
    if -worse > base_spread and win_share(base, change, name, sign) >= 0.9:
        return "better"
    return "unchanged"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    base, change = load(args.base), load(args.change)
    counts = defaultdict(int)
    for key in sorted(set(base) | set(change)):
        workload, trace = key
        if key not in base or key not in change:
            side = "base" if key not in base else "change"
            print(f"{workload} (trace {trace}): no {side} runs")
            continue
        b, c = base[key], change[key]
        print(f"{workload} (trace {trace}): {len(b)} base runs {commits(b)}, "
              f"{len(c)} change runs {commits(c)}")
        print(f"  {'metric':30s} {'base':>12s} {'change':>12s} {'delta':>8s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for m in metrics:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c if name in r["metrics"]]
            if not bv or not cv:
                print(f"  {name:30s} missing on one side")
                continue
            mb, mc = statistics.median(bv), statistics.median(cv)
            delta = f"{(mc - mb) / abs(mb):+8.1%}" if mb else f"{'n/a':>8s}"
            if "bound" in m:
                word = verdict(b, c, name, m["bound"], m["better"] == "lower")
                counts[word] += 1
                run_spread = max(side_spread(b, name), side_spread(c, name))
                print(f"  {name:30s} {mb:12.5g} {mc:12.5g} {delta} "
                      f"{run_spread:7.1%} {m['bound']:6.0%}  {word}")
            else:
                print(f"  {name:30s} {mb:12.5g} {mc:12.5g} {delta}")
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two benchmark ledgers: a parent (A) and a change (B).

    python3 perfbench/compare.py A.jsonl B.jsonl

Each file holds the records ``run.py`` appends to
``.perfbench/results.jsonl``.  For every workload in both files it prints
one row per end-to-end metric, with the median and quartiles of each side
and a verdict, then the per-layer deltas of the traced runs.

Verdicts use the bounds and directions of ``BENCHMARK.json``:

``unresolved``     a side's spread (quartile distance over median) is
                   wider than the bound, and not every run of B beats
                   every run of A;
``worse``          B's median is worse than A's by more than the bound;
``better``         B's median is better than A's by more than A's own
                   spread (or, with a wide spread, every run of B beats
                   every run of A);
``within bound``   anything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import common


def load(path: Path) -> Tuple[Dict, List[Dict]]:
    """``(runs, fingerprints)`` where runs maps (workload, trace) -> metric
    name -> values over every correct run."""
    runs: Dict = defaultdict(lambda: defaultdict(list))
    fingerprints: List[Dict] = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("fingerprint") not in fingerprints:
                fingerprints.append(record.get("fingerprint"))
            if not record.get("correct"):
                continue
            for name, metric in record["metrics"].items():
                runs[(record["workload"], record["trace"])][name].append(metric["value"])
    return runs, fingerprints


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def spread(values: List[float]) -> float:
    low, median, high = quartiles(values)
    return (high - low) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0

    def worse_by(x: float, y: float) -> float:
        """How much worse y is than x, as a share of x."""
        return sign * (y - x) / abs(x) if x else 0.0

    a_median, b_median = statistics.median(a), statistics.median(b)
    b_dominates = all(worse_by(x, y) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound:
        return "better" if b_dominates else "unresolved"
    change = worse_by(a_median, b_median)
    if change > bound:
        return "worse"
    if -change > spread(a) or b_dominates:
        return "better"
    return "within bound"


def fmt(value: float) -> str:
    return f"{value:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two perfbench result files.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a_runs, a_prints = load(args.parent)
    b_runs, b_prints = load(args.change)
    if a_prints != b_prints:
        print("note: the files come from different machines or code:")
        for label, prints in (("A", a_prints), ("B", b_prints)):
            for fingerprint in prints:
                print(f"  {label}: {json.dumps(fingerprint, sort_keys=True)}")

    for workload in [entry["name"] for entry in spec["workloads"]]:
        a, b = a_runs.get((workload, 0)), b_runs.get((workload, 0))
        if not a or not b:
            continue
        print(f"\n{workload}  (A: {len(next(iter(a.values())))} runs, "
              f"B: {len(next(iter(b.values())))} runs)")
        print(f"  {'metric':16s} {'A q1/median/q3':>32s} {'B q1/median/q3':>32s}  verdict")
        for entry in spec["end_to_end"]:
            name = entry["name"]
            if name not in a or name not in b:
                continue
            a_q = "/".join(fmt(value) for value in quartiles(a[name]))
            b_q = "/".join(fmt(value) for value in quartiles(b[name]))
            result = verdict(a[name], b[name], entry["better"], entry["bound"])
            print(f"  {name:16s} {a_q:>32s} {b_q:>32s}  {result}")

    for workload in [entry["name"] for entry in spec["workloads"]]:
        a, b = a_runs.get((workload, 1)), b_runs.get((workload, 1))
        if not a or not b:
            continue
        print(f"\n{workload} per layer (traced medians)")
        for entry in spec["per_layer"]:
            name = entry["name"]
            if name not in a or name not in b:
                continue
            a_median, b_median = statistics.median(a[name]), statistics.median(b[name])
            if not a_median and not b_median:
                continue
            delta = f"{(b_median - a_median) / abs(a_median):+.1%}" if a_median else "new"
            print(f"  {name:32s} {fmt(a_median):>12s} {fmt(b_median):>12s} {delta:>8s}"
                  f"  {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

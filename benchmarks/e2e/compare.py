#!/usr/bin/env python3
"""Apply the benchmark's own bounds to two sets of results.

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are ``run.py --out`` files (side A is the
baseline). Prints one row per (end-to-end metric, workload):

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``regression`` — it is;
* ``unresolved`` — side A's own run-to-run spread (inter-quartile
  distance over its median) exceeds the bound, so the pair cannot tell,
  unless every B run reads better than every A run.

and, per workload and seed, whether the paced counts that must repeat
*exactly* (``offered``, ``admitted``, ``departed``) did. Exits 1 on a
regression or a count that differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, EXACT_COUNTS  # noqa: E402
from stats import compare_verdict  # noqa: E402

Side = Dict[str, dict]


def load(paths: Iterable) -> Side:
    """workload -> {"values": {metric: [per run]}, "counts": {seed: {...}}}."""
    side: Side = {}
    for path in paths:
        for result in json.loads(Path(path).read_text())["results"]:
            if result["trace"]:
                continue  # bounds apply to the untraced, end-to-end runs
            entry = side.setdefault(result["workload"],
                                    {"values": {}, "counts": {}})
            for name, value in result["values"].items():
                entry["values"].setdefault(name, []).append(value)
            entry["counts"][result["seed"]] = result["counts"]
    return side


def compare(a: Side, b: Side) -> int:
    bad = 0
    print(f"{'workload':<14} {'metric':<24} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'A spread':>9} {'bound':>6}  verdict")
    for workload in a:
        if workload not in b:
            continue
        for name, __, better, bound in END_TO_END:
            va = a[workload]["values"].get(name)
            vb = b[workload]["values"].get(name)
            if not va or not vb:
                continue
            verdict, change, noise = compare_verdict(va, vb, better, bound)
            bad += verdict == "regression"
            print(f"{workload:<14} {name:<24} {statistics.median(va):>12.5g} "
                  f"{statistics.median(vb):>12.5g} {change:>+8.1%} {noise:>9.1%} "
                  f"{bound:>6.0%}  {verdict}")
        for seed, counts in sorted(a[workload]["counts"].items()):
            other = b[workload]["counts"].get(seed)
            if other is None:
                continue
            same = all(counts[c] == other[c] for c in EXACT_COUNTS)
            bad += not same
            shown = ", ".join(f"{c} {counts[c]}" for c in EXACT_COUNTS)
            print(f"{workload:<14} exact counts, seed {seed}: "
                  + (f"identical ({shown})" if same
                     else f"DIFFER ({counts} vs {other})"))
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    return compare(load(argv[:1]), load(argv[1:]))


if __name__ == "__main__":
    raise SystemExit(main())

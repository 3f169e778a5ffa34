#!/usr/bin/env python3
"""Compare two sets of untraced benchmark results.

Usage: ``python3 perfbench/compare.py BASE_DIR NEW_DIR``, each a directory of
``<workload>-seed<n>-trace0.json`` records as run.py writes them to
``.perfbench/results/``.  For each workload and end-to-end metric it prints
both medians, their ratio, and each side's quartile spread, and it flags a
comparison made across a mismatch: a different Python, mpmath, mpmath
backend or ``nproc``, or seeds present on one side only.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MATCHED = ("python", "mpmath", "mpmath_backend", "nproc")


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    mismatches = 0
    for workload in sorted(set(base) | set(new)):
        b, n = base.get(workload, {}), new.get(workload, {})
        print(f"{workload}: {len(b)} base runs, {len(n)} new runs")
        if set(b) != set(n):
            mismatches += 1
            print(f"  MISMATCH seeds on one side only: {sorted(set(b) ^ set(n))}")
        for key in MATCHED:
            values = {str(r["summary"]["environment"].get(key)) for r in [*b.values(), *n.values()]}
            if len(values) > 1:
                mismatches += 1
                print(f"  MISMATCH {key}: {sorted(values)}")
        names = next(iter([*b.values(), *n.values()]))["metrics"]
        for name, metric in names.items():
            bv = [r["metrics"][name]["value"] for r in b.values()]
            nv = [r["metrics"][name]["value"] for r in n.values()]
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            print(f"  {name:16s} {bm:12.5g} -> {nm:12.5g} {metric['unit']:4s} "
                  f"ratio {nm / bm:7.4f}  spread {spread(bv):.3f} / {spread(nv):.3f}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

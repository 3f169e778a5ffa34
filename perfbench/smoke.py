#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload briefly untraced, and twice traced with the same seed,
and checks that

* every metric BENCHMARK.json names is printed, with its unit;
* no op failed (failed_frac == 0) and the run says it is correct;
* every traced count (``*.calls``, sizes, ``cache_hit_ratio``,
  ``precision_digits_*``) repeats exactly across the two traced runs.

Usage, from the root of a checkout: ``python3 perfbench/smoke.py``; exits 1
on the first problem.  It takes a few minutes: a traced run is one whole
round of its workload, three times over.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 11
TIMED_UNITS = ("s", "frac")


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def check_result(result, expected, what):
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{what}: {result['failed']}/{result['attempted']} ops failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise AssertionError(f"{what}: metrics/units differ from BENCHMARK.json: "
                             f"{sorted(set(got.items()) ^ set(expected.items()))}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        check_result(run(name, 0), end_to_end, f"{name} untraced")
        first, second = run(name, 1), run(name, 1)
        for result in (first, second):
            check_result(result, per_layer, f"{name} traced")
        counts = [n for n, unit in per_layer.items() if unit not in TIMED_UNITS]
        differ = [n for n in counts
                  if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        if differ:
            raise AssertionError(f"{name}: traced counts differ between runs: {differ}")
        print(f"ok {name}: {len(end_to_end)} end-to-end metrics, {len(per_layer)} per-layer "
              f"metrics, {len(counts)} traced counts repeat exactly", flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)

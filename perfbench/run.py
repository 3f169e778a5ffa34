#!/usr/bin/env python3
"""Benchmark of the killingtensors package: three seeded closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-batch --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen and the layer map):

* ``certify-batch``: one op is ``decompose`` + ``verify_certificate`` of one
  Killing basis tensor (degrees 0-4) of a seeded suite of almost abelian
  algebras, with one generator cache per algebra; adversarial certificates
  must be rejected.
* ``solve-exact``: one op is one Killing-space solve by one method,
  ``killing_space_structured`` or ``killing_space_bruteforce``.
* ``cli-session``: one op is one ``killingtensors.cli.main(argv)`` call on
  JSON files written during set-up.

Each run starts the workload in fresh worker processes (perfbench/worker.py).
With ``--trace 0`` it prints the end-to-end metrics: ``ops_per_s`` (ops over
the summed op time, the benchmark's own checks excluded), ``latency_p50_ms``
and ``latency_p90_ms`` (with the sample count), ``setup_s`` (median over
fresh processes of process start to the first op) and ``peak_rss_mb``
(``ru_maxrss`` of the measured process).  The times are calibrated to a
reference machine speed by probes timed throughout (see worker.py); the raw
wall-clock figures are printed beside them.  With ``--trace 1`` it runs a fixed, seeded list of ops
untraced, traced and untraced again, and prints the per-layer metrics and
``trace_overhead_frac``.  Every op's output is checked; a wrong
answer or an accepted bad certificate is a failed op, and any failed op makes
the run exit with status 1.  The last line of stdout is one JSON object; the
full record, with the environment, goes to ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("certify-batch", "solve-exact", "cli-session")
# set-up is timed in this many fresh processes, the measured one included
SETUP_RUNS = 5
DEADLINE_S = 170
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def source_digest():
    """sha256 over the package sources, which identifies the code measured
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "killingtensors").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class WorkerError(RuntimeError):
    pass


def start_worker(args, deadline, setup_only=False, spans_out=None):
    """Run one worker process to the end; returns (setup seconds, calibrated
    setup seconds, summary)."""
    workdir = OUT / f"work-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--t0", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError("worker exceeded the time limit")
    lines = stdout.splitlines()
    ready = [line for line in lines if line.startswith("ready ")]
    if proc.returncode != 0 or not ready:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    setup, setup_cal = (float(x) for x in ready[0].split()[1:3])
    return setup, setup_cal, None if setup_only else json.loads(lines[-1])


def report(args, summary, metrics, setups, setup_wall):
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    env = summary["environment"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    attempted, failed = summary["attempted"], summary["failed"]
    if args.trace:
        print(f"ran one round of {summary['trace_ops']} ops untraced, traced, untraced; "
              f"{summary['spans']} spans; absent: {', '.join(summary['absent']) or 'none'}")
    else:
        n = summary["completed"]
        print(f"ops: {n} completed in {summary['busy_s']:.3f} s of op time, "
              f"{summary['phase_s']:.3f} s of loop time, in whole rounds of "
              f"{summary['round_ops']} ops ({summary['rounds']} distinct rounds)")
        print(f"latency samples: n={n}, {summary['beyond_p90']} beyond p90")
        print(f"setup_s samples ({len(setups)} fresh processes), calibrated: "
              + ", ".join(f"{s:.4f}" for s in setups))
        wall = dict(summary["wall"], setup_s=setup_wall)
        print("wall clock, uncalibrated: "
              + " ".join(f"{k}={v:.6g}" for k, v in wall.items()))
    for name, m in metrics.items():
        print(f"  {name:58s} {m['value']!r} {m['unit']}")
    print(f"  {'failed_frac':58s} {failed / attempted if attempted else 0.0!r} "
          f"({failed}/{attempted})")
    for reason in summary["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "killingtensors" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        starts = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                starts.append(start_worker(args, deadline, setup_only=True))
        last = start_worker(args, deadline,
                            spans_out=OUT / f"spans-{stem}.json.gz" if args.trace else None)
        starts.append(last)
        summary = last[2]
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    setups = [setup_cal for _, setup_cal, _ in starts]
    setup_wall = statistics.median(setup for setup, _, _ in starts)
    if args.trace:
        units = per_layer_units()
        values = summary["per_layer"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        values = dict(summary["calibrated"], setup_s=statistics.median(setups),
                      peak_rss_mb=summary["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    summary["environment"].update(seed=args.seed, commit=git_commit(),
                                  source_sha256=source_digest())
    correct = summary["failed"] == 0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples": [s[:2] for s in starts],
              "summary": summary,
              "metrics": metrics, "correct": correct}
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    report(args, summary, metrics, setups, setup_wall)
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

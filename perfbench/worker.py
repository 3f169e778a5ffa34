"""One workload in one fresh, single-threaded process; started by run.py.

Prints ``ready <setup seconds> <calibrated setup seconds>`` when set-up is
done.  Set-up counts from the wall-clock instant ``--t0`` at which run.py
started this process (process start, imports, input generation) to the
first op.  Then, unless ``--setup-only``, the worker runs the timed or the
traced phase and prints one JSON summary line.

Calibration.  The machines this runs on share their cores with other work,
and their speed changes by up to 2x within a second, for every program
alike.  So from its start the worker times a fixed probe of pure-Python
rational arithmetic, which does not touch the package, every ``TICK_S`` of
wall time, from a timer signal that interrupts whatever runs.  Every
interval measured (an op, or set-up) is reported as its wall time less the
probes inside it, and also in calibrated form: that time x
``REFERENCE_PROBE_S`` / (mean probe time during the interval, widened to
the nearest ``MIN_PROBES`` probes), i.e. the time on a machine where the
probe takes exactly 0.1 ms.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TICK_S = 0.01
REFERENCE_PROBE_S = 1e-4
MIN_PROBES = 8


def import_package():
    """Import killingtensors from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import killingtensors

    if Path(killingtensors.__file__).resolve().parent != (SRC / "killingtensors").resolve():
        raise ImportError(f"killingtensors imported from {killingtensors.__file__}, not {SRC}")


class SpeedSampler:
    """Times the probe every ``TICK_S`` seconds from a ``SIGALRM`` handler.
    The collector is off during a probe, so a probe never pays for an op's
    garbage."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 17):
            acc += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        took = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.at.append(t0)
        self.took.append(took)

    def measure(self, t0, t1, wall=None):
        """``(own, calibrated)`` for the interval ``[t0, t1]`` of
        ``perf_counter`` time, whose wall time is ``t1 - t0`` unless given:
        own is the wall time less the probes inside the interval."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)
        own = (t1 - t0 if wall is None else wall) - sum(self.took[lo:hi])
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.at)):
            lo = max(0, lo - 1)
            hi = min(len(self.at), hi + 1)
        return own, own * REFERENCE_PROBE_S * (hi - lo) / sum(self.took[lo:hi])


class Tally:
    """The interval of each completed op and the reasons ops failed.  While a
    span ``recorder`` is set, spans are recorded during each op's own call
    and not during its ``prepare`` or ``check``."""

    MAX_REPORTED = 5

    def __init__(self):
        self.recorder = None
        self.intervals = []
        self.attempted = 0
        self.failures = []

    def run(self, op):
        self.attempted += 1
        try:
            if op.prepare is not None:
                op.prepare()
            out = self._timed(op)
            reason = op.check(out)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append(f"{op.label}: {reason}")

    def _timed(self, op):
        rec = self.recorder
        t0 = time.perf_counter()
        if rec is None:
            out = op.run()
        else:
            rec.active = True
            try:
                out = op.run()
            finally:
                rec.active = False
        self.intervals.append((t0, time.perf_counter()))
        return out

    def times(self, sampler):
        """Each completed op's own wall time and its calibrated time."""
        pairs = [sampler.measure(t0, t1) for t0, t1 in self.intervals]
        return [own for own, _ in pairs], [cal for _, cal in pairs]


def closed_loop(rounds, tally, seconds=None):
    """Run whole rounds of ops back to back, cycling through them, until
    ``seconds`` have passed (one round when None); returns the wall time."""
    start = time.perf_counter()
    r = 0
    while True:
        for op in rounds[r % len(rounds)]:
            tally.run(op)
        r += 1
        if seconds is None or time.perf_counter() - start >= seconds:
            return time.perf_counter() - start


def summarize(latencies):
    """Throughput over the summed op time, median, and nearest-rank p90."""
    ordered = sorted(latencies)
    rank = math.ceil(0.9 * len(ordered))
    return {
        "ops_per_s": len(ordered) / sum(ordered),
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_p90_ms": ordered[rank - 1] * 1e3,
    }


def environment():
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    sampler = SpeedSampler()
    sampler.start()
    started = time.perf_counter()
    try:
        import_package()
        from workloads import WORKLOADS

        workdir.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup, setup_cal = sampler.measure(started, time.perf_counter(),
                                           wall=time.time() - args.t0)
        print(f"ready {setup!r} {setup_cal!r}", flush=True)
        if args.setup_only:
            return 0
        tally = Tally()
        summary = {"environment": environment()}
        if args.trace:
            from tracer import Tracer

            ops = workload.rounds[:1]
            closed_loop(ops, tally)
            with Tracer() as tracer:
                tally.recorder = tracer.recorder
                closed_loop(ops, tally)
                tally.recorder = None
            closed_loop(ops, tally)
            n = len(ops[0])
            _, calibrated = tally.times(sampler)
            first, traced, last = (sum(calibrated[i * n:(i + 1) * n]) for i in range(3))
            summary["per_layer"] = tracer.metrics()
            # untraced passes before and after, so a drift in machine speed cancels
            summary["per_layer"]["trace_overhead_frac"] = 2 * traced / (first + last) - 1
            summary["absent"] = tracer.absent
            summary["spans"] = len(tracer.recorder.start)
            summary["trace_ops"] = len(ops[0])
            if args.spans_out:
                tracer.recorder.write(args.spans_out)
        else:
            summary["phase_s"] = closed_loop(workload.rounds, tally, seconds=args.seconds)
            wall, calibrated = tally.times(sampler)
            summary["calibrated"] = summarize(calibrated)
            summary["wall"] = summarize(wall)
            summary["busy_s"] = sum(wall)
            summary["beyond_p90"] = len(wall) - math.ceil(0.9 * len(wall))
            summary["rounds"] = len(workload.rounds)
            summary["round_ops"] = len(workload.rounds[0])
            summary["latencies_s"] = wall
            summary["calibrated_s"] = calibrated
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        summary["attempted"] = tally.attempted
        summary["completed"] = len(tally.intervals)
        summary["failed"] = len(tally.failures)
        summary["failures"] = tally.failures[:Tally.MAX_REPORTED]
        # no timer signal may interrupt the write of a summary larger than the pipe
        sampler.stop()
        print(json.dumps(summary), flush=True)
        return 0
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

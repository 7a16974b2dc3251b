#!/usr/bin/env python
"""Measure the profiler's disabled-path (``observe=None``) overhead.

The acceptance bar for the observability layer is that the *disabled*
path stays free: every hook resolves to a null stage/counter, so an
unobserved evaluation must cost what it cost before the profiler
existed.  This script measures a maintenance workload (a single engine
and a live session driving a chdir stream) three ways:

- ``disabled`` — current tree, ``observe=None`` (median of repeats);
- ``baseline`` — the same workload run in a *different source tree*
  (``--baseline-src``, e.g. a git worktree of the pre-profiler
  commit), via a subprocess with ``PYTHONPATH`` pointed there;
- ``profiled`` — current tree under a full :class:`QueryProfile`.

Results land in ``benchmarks/results/profiler_overhead.metrics.json``.
The workload deliberately uses only APIs that predate the profiler so
the subprocess runs unmodified in older trees (``--measure`` is the
subprocess entry point).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

N = 1000
UPDATES = 60
MEAN_GAP = 0.003
HORIZON = 500.0
REPEATS = 5

RESULTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "results",
    "profiler_overhead.metrics.json",
)


def run_workload(observe=None) -> float:
    """One pass: single-engine + live-session maintenance, wall seconds."""
    from repro.core.api import ContinuousQuerySession
    from repro.geometry.intervals import Interval
    from repro.gdist.euclidean import SquaredEuclideanDistance
    from repro.sweep.engine import SweepEngine
    from repro.workloads.generator import UpdateStream, random_linear_mod

    origin = SquaredEuclideanDistance([0.0, 0.0])

    def stream(db):
        return UpdateStream(
            db,
            seed=97,
            mean_gap=MEAN_GAP,
            periodic=True,
            extent=300.0,
            speed=2.0,
            weights=(0.0, 0.0, 1.0),
        )

    started = time.perf_counter()
    db = random_linear_mod(N, seed=N, extent=300.0, speed=2.0)
    engine = SweepEngine(
        db, origin, Interval(0.0, HORIZON), observe=observe
    )
    db.subscribe(engine.on_update)
    stream(db).run(UPDATES)
    engine.advance_to(db.last_update_time + MEAN_GAP)

    db = random_linear_mod(N, seed=N, extent=300.0, speed=2.0)
    session = ContinuousQuerySession.knn(
        db, origin, k=1, until=HORIZON, observe=observe
    )
    stream(db).run(UPDATES)
    session.close(at=db.last_update_time + MEAN_GAP)
    return time.perf_counter() - started


def median_disabled(repeats: int = REPEATS) -> float:
    return statistics.median(run_workload(None) for _ in range(repeats))


def median_profiled(repeats: int = REPEATS) -> float:
    from repro.obs.profile import QueryProfiler

    profiler = QueryProfiler()

    def once() -> float:
        with profiler.profile("esh-overhead") as prof:
            return run_workload(prof.observe)

    return statistics.median(once() for _ in range(repeats))


def subprocess_disabled(src: str, repeats: int = REPEATS) -> float:
    """The disabled-path median measured against another source tree."""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure",
         "--repeats", str(repeats)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)["seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure observe=None overhead on the E-SH workload."
    )
    parser.add_argument(
        "--measure",
        action="store_true",
        help="(subprocess mode) print the disabled-path median and exit",
    )
    parser.add_argument(
        "--baseline-src",
        help="src directory of a pre-profiler tree (e.g. a git worktree) "
        "to measure the true before/after overhead",
    )
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument(
        "--budget",
        type=float,
        default=0.02,
        help="max tolerated disabled-path overhead vs baseline "
        "(default 0.02 = 2%%)",
    )
    parser.add_argument("--out", default=RESULTS)
    args = parser.parse_args(argv)

    if args.measure:
        print(json.dumps({"seconds": median_disabled(args.repeats)}))
        return 0

    disabled = subprocess_disabled(
        os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        ),
        args.repeats,
    )
    profiled = median_profiled(args.repeats)
    payload = {
        "benchmark": "profiler_overhead",
        "workload": {
            "n": N,
            "updates": UPDATES,
            "repeats": args.repeats,
        },
        "disabled_seconds": disabled,
        "profiled_seconds": profiled,
        "profiled_overhead": profiled / disabled - 1.0,
    }

    failed = False
    if args.baseline_src:
        baseline = subprocess_disabled(args.baseline_src, args.repeats)
        overhead = disabled / baseline - 1.0
        payload["baseline_seconds"] = baseline
        payload["disabled_overhead_vs_baseline"] = overhead
        payload["budget"] = args.budget
        failed = overhead > args.budget

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(
        "profiler overhead:",
        "FAILED (disabled path regressed)" if failed else "recorded",
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

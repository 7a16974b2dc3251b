#!/usr/bin/env python
"""CI smoke for the query profiler and EXPLAIN pipeline.

Runs :func:`repro.obs.explain` across the configuration matrix — all
three query kinds and a warm answer cache —
printing each EXPLAIN report and asserting the profiler's core
invariants:

- the answer equals the plain (unprofiled) evaluation,
- top-level stage wall times account for >= 95% of the total,
- every captured span carries the query id.

Exit status is non-zero on any violation, so CI can run this as a
cheap end-to-end gate on the observability layer.
"""

from __future__ import annotations

import sys

from repro.cache import QueryCache
from repro.core.api import evaluate_knn, evaluate_multiknn, evaluate_within
from repro.geometry.intervals import Interval
from repro.obs import QueryProfiler, SlowQueryLog, explain
from repro.workloads.generator import random_linear_mod

WINDOW = Interval(1.0, 30.0)


def check(report, plain, min_coverage=0.95, slack_seconds=0.0005):
    failures = []
    if report.answer != plain:
        failures.append("answer differs from plain evaluation")
    # Relative coverage for real evaluations; sub-millisecond cache
    # hits are dominated by fixed profiler bookkeeping, so a small
    # absolute slack covers them instead.
    unattributed = report.total_seconds * (1.0 - report.coverage)
    if report.coverage < min_coverage and unattributed > slack_seconds:
        failures.append(
            f"stage coverage {report.coverage:.3f} < {min_coverage} "
            f"with {unattributed * 1e6:.0f}us unattributed"
        )
    data = report.to_dict()
    for record in data["spans"]:
        if record["attrs"].get("query_id") != report.query_id:
            failures.append(f"uncorrelated span {record['name']}")
    return failures


def main() -> int:
    db = random_linear_mod(32, seed=13, extent=50.0, speed=3.0)
    cache = QueryCache()
    profiler = QueryProfiler(slow_log=SlowQueryLog(threshold_seconds=0.25))
    profiler.attribution.watch_cache(cache)

    cases = [
        (
            "knn, single engine",
            lambda: explain(
                db, [0.0, 0.0], WINDOW, "knn", k=3, profiler=profiler
            ),
            lambda: evaluate_knn(db, [0.0, 0.0], WINDOW, k=3),
        ),
        (
            "within, one range host",
            lambda: explain(
                db, [5.0, -5.0], WINDOW, "within", distance=25.0,
                profiler=profiler,
            ),
            lambda: evaluate_within(db, [5.0, -5.0], WINDOW, distance=25.0),
        ),
        (
            "multiknn, cold cache",
            lambda: explain(
                db, [0.0, 0.0], WINDOW, "multiknn", ks=[1, 3],
                cache=cache, profiler=profiler,
            ),
            lambda: evaluate_multiknn(db, [0.0, 0.0], WINDOW, ks=[1, 3]),
        ),
        (
            "multiknn, warm cache",
            lambda: explain(
                db, [0.0, 0.0], WINDOW, "multiknn", ks=[1, 3],
                cache=cache, profiler=profiler,
            ),
            lambda: evaluate_multiknn(db, [0.0, 0.0], WINDOW, ks=[1, 3]),
        ),
    ]

    failed = False
    for title, run, plain in cases:
        report = run()
        print(f"=== {title} ===")
        print(report.text())
        failures = check(report, plain())
        for failure in failures:
            print(f"  !! {failure}")
            failed = True
        print()

    print("=== workload attribution ===")
    print(profiler.to_json(indent=2))
    if profiler.attribution.queries != len(cases):
        print("  !! attribution missed queries")
        failed = True
    print()
    print("explain smoke:", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

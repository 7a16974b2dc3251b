"""E-AC: the incremental answer cache on repeated/overlapping queries.

A monitoring dashboard asks the same continuous queries again and
again, nudging the window: refresh the last answer, zoom into a
sub-interval, extend the horizon a bit.  Cold evaluation bounds every
curve and sweeps the window's candidates every time; the answer cache
sweeps a window once, serves repeats and zooms by interval
restriction, and extends a horizon by sweeping only the gap beyond the
cached span and unioning it on (Section 4's finite representation).

The workload issues, per query point, one repeated full-window query,
one random sub-interval query, and one horizon extension, over several
query points against one N-object MOD.  What is asserted is the
deterministic part — the workload is hit-dominated and the curve store
fully populated; the two wall-clock rows and the cold/cached ratio
are reported, not gated: both passes run the one pruned one-shot body
(``repro.sweep.prune``), and the deterministic guard on the cache's
work is E-AC in ``scripts/perf_gate.py`` (op counts and hit rate).
"""

import random
import time

from repro.bench.harness import format_table
from repro.cache import QueryCache
from repro.core.api import evaluate_knn
from repro.geometry.intervals import Interval
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.obs import Instrumentation
from repro.workloads.generator import random_linear_mod

from _support import publish_metrics, publish_table

N = 200
K = 4
POINTS = 3  # distinct query fingerprints
ROUNDS = 4  # repeated lookups per fingerprint
BASE_WINDOW = Interval(0.0, 15.0)


def _workload(seed=5):
    """The query schedule: (gdistance, interval) pairs with heavy
    repetition and containment/extension structure."""
    rng = random.Random(seed)
    points = [
        SquaredEuclideanDistance([rng.uniform(-50, 50), rng.uniform(-50, 50)])
        for _ in range(POINTS)
    ]
    schedule = []
    for gd in points:
        hi = BASE_WINDOW.hi
        for _ in range(ROUNDS):
            schedule.append((gd, BASE_WINDOW))  # exact repeat
            lo = rng.uniform(0.0, 8.0)
            schedule.append((gd, Interval(lo, lo + rng.uniform(3.0, 7.0))))
            hi += rng.uniform(0.5, 2.0)
            schedule.append((gd, Interval(0.0, hi)))  # horizon extension
    return schedule


def _run(db, schedule, cache):
    t0 = time.perf_counter()
    for gd, interval in schedule:
        evaluate_knn(db, gd, interval, k=K, cache=cache)
    return time.perf_counter() - t0


def test_cache_speedup_on_repeated_queries(benchmark):
    db = random_linear_mod(N, seed=N, extent=200.0, speed=3.0)
    schedule = _workload()
    instr = Instrumentation()

    def passes():
        cold = _run(db, schedule, cache=None)
        cache = QueryCache(observe=instr)
        warm = _run(db, schedule, cache=cache)
        return cold, warm, cache

    cold, warm, cache = benchmark.pedantic(
        passes, rounds=1, iterations=1
    )
    stats = cache.stats()
    speedup = cold / warm

    rows = [
        ("cold (no cache)", f"{cold:8.3f}", "", ""),
        (
            "cached",
            f"{warm:8.3f}",
            f"{stats['answer_hit_rate']:5.2f}",
            f"{speedup:5.1f}x",
        ),
    ]
    publish_table(
        "answer_cache",
        format_table(
            ["pass", "seconds", "answer hit rate", "speedup"],
            rows,
            title=(
                f"E-AC  {len(schedule)} repeated/overlapping kNN queries, "
                f"N={N}, {POINTS} query points"
            ),
        ),
    )
    publish_metrics(
        "answer_cache",
        instr,
        extra={
            "n": N,
            "queries": len(schedule),
            "cold_seconds": cold,
            "cached_seconds": warm,
            "speedup": speedup,
            "answer_hit_rate": stats["answer_hit_rate"],
            "curve_hit_rate": stats["curve_hit_rate"],
        },
    )

    # Answer hits dominate; the curve store is fully populated (its
    # own hits only recur on re-initializations — rebuilds, new groups —
    # which this repeated-query workload deliberately avoids).
    assert stats["answer_hits"] > 0
    assert stats["curve_entries"] == POINTS * N
    assert stats["answer_hit_rate"] > 0.5, (
        f"workload is hit-dominated by construction: {stats}"
    )

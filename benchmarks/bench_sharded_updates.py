"""E-SH: sharded batched maintenance vs a single engine at large N.

Theorem 5 maintains one global precedence order per update.  Hash
partitioning splits that order into ``S`` independent shard orders:
only co-sharded pairs generate intersection events, so a uniform
partition removes roughly a ``1 - 1/S`` fraction of the order-change
work from the maintenance path, and batching confines each flush to
the shards its updates actually touch.

The experiment uses the *unbounded-m* regime (crossing-rich uniform
workload, cf. E-C6) where event processing dominates maintenance: an
identical chdir-only stream is driven through a single
:class:`SweepEngine` and a :class:`ShardedSweepEvaluator` (S=8,
batch 32), both then advanced to the same final
instant so each path has processed every event in the window.  Costs
compared:

- wall-clock maintenance cost per update, and
- primitive sweep operations per update (deterministic),

at N up to 10^4.  The headline assertion is the acceptance criterion:
at N >= 10_000 the batched sharded evaluator beats the single engine
on both measures.
"""

import time

import pytest

from repro.bench.harness import format_table
from repro.geometry.intervals import Interval
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.obs import Instrumentation
from repro.parallel.evaluator import ShardedSweepEvaluator
from repro.sweep.engine import SweepEngine
from repro.workloads.generator import UpdateStream, banded_mod, random_linear_mod

from _support import publish_metrics, publish_table

ORIGIN = SquaredEuclideanDistance([0.0, 0.0])
SIZES = [2000, 5000, 10000]
UPDATES = 200
SHARDS = 8
HORIZON = 500.0
# 200 updates at this gap sweep ~0.3 time units — enough crossings at
# N=10^4 that event processing dominates, small enough to stay fast.
MEAN_GAP = 0.0015


def _mod(n):
    return random_linear_mod(n, seed=n, extent=300.0, speed=2.0)


def _stream(db):
    return UpdateStream(
        db,
        seed=97,
        mean_gap=MEAN_GAP,
        periodic=True,
        extent=300.0,
        speed=2.0,
        weights=(0.0, 0.0, 1.0),  # chdir-only: pure maintenance cost
    )


def _single_cost(n):
    db = _mod(n)
    engine = SweepEngine(db, ORIGIN, Interval(0.0, HORIZON))
    db.subscribe(engine.on_update)
    stream = _stream(db)
    ops_before = engine.primitive_ops()
    t0 = time.perf_counter()
    stream.run(UPDATES)
    end = db.last_update_time + MEAN_GAP
    engine.advance_to(end)
    elapsed = time.perf_counter() - t0
    ops = engine.primitive_ops() - ops_before
    return elapsed / UPDATES, ops / UPDATES


def _sharded_cost(n, batch_size, observe=None):
    db = _mod(n)
    evaluator = ShardedSweepEvaluator.knn(
        db,
        ORIGIN,
        k=1,
        until=HORIZON,
        shards=SHARDS,
        batch_size=batch_size,
        observe=observe,
    )
    db.subscribe(evaluator.on_update)
    stream = _stream(db)
    ops_before = evaluator.primitive_ops()
    t0 = time.perf_counter()
    stream.run(UPDATES)
    evaluator.advance_to(db.last_update_time + MEAN_GAP)
    elapsed = time.perf_counter() - t0
    ops = evaluator.primitive_ops() - ops_before
    evaluator.shutdown()
    return elapsed / UPDATES, ops / UPDATES


def test_sharded_beats_single_engine(benchmark):
    instr = Instrumentation()

    def sweep():
        rows = []
        for n in SIZES:
            single_t, single_ops = _single_cost(n)
            batched_t, batched_ops = _sharded_cost(
                n, batch_size=32, observe=instr
            )
            rows.append(
                (
                    n,
                    f"{single_t * 1e6:10.1f}",
                    f"{batched_t * 1e6:10.1f}",
                    f"{single_ops:10.1f}",
                    f"{batched_ops:10.1f}",
                    f"{batched_ops / single_ops:5.2f}",
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    publish_table(
        "sharded_updates",
        format_table(
            [
                "N",
                "single us/upd",
                "sharded us/upd",
                "single ops/upd",
                "sharded ops/upd",
                "ops ratio",
            ],
            rows,
            title=(
                f"E-SH  crossing-rich maintenance, S={SHARDS} shards, "
                f"batch=32, {UPDATES} chdir updates"
            ),
        ),
    )
    publish_metrics(
        "sharded_updates",
        instr,
        extra={
            "sizes": SIZES,
            "shards": SHARDS,
            "updates": UPDATES,
            "mean_gap": MEAN_GAP,
        },
    )

    # The acceptance criterion: at N >= 10k batched sharded maintenance
    # beats the single engine on wall clock and on primitive ops.
    by_n = {int(r[0]): r for r in rows}
    big = by_n[10000]
    single_t, batched_t = float(big[1]), float(big[2])
    single_ops, batched_ops = float(big[3]), float(big[4])
    assert batched_t < single_t, (
        f"sharded {batched_t:.1f}us/update must beat single "
        f"{single_t:.1f}us/update at N=10k"
    )
    assert batched_ops < single_ops * 0.5, (
        "sharding must cut per-update primitive sweep operations: only "
        "co-sharded pairs generate intersection events"
    )


@pytest.mark.parametrize("n", [10000])
def test_sharded_init_is_not_slower(benchmark, n):
    """Shard initialization (S independent Theorem 5 builds over N/S
    objects) must not lose to one global build."""
    db = banded_mod(n, seed=n, band_gap=5.0, jitter_speed=0.2)

    t0 = time.perf_counter()
    SweepEngine(db, ORIGIN, Interval(0.0, HORIZON))
    single = time.perf_counter() - t0

    def build():
        evaluator = ShardedSweepEvaluator.knn(
            db, ORIGIN, k=1, until=HORIZON, shards=SHARDS
        )
        evaluator.shutdown()

    sharded = benchmark.pedantic(
        lambda: (time.perf_counter(), build(), time.perf_counter()),
        rounds=1,
        iterations=1,
    )
    elapsed = sharded[2] - sharded[0]
    benchmark.extra_info["single_init_seconds"] = single
    benchmark.extra_info["sharded_init_seconds"] = elapsed
    assert elapsed < single * 1.2

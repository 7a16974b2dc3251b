"""Exact twins: sharded ≡ single ≡ naive, ``answer`` and ``members``.

Two objects with identical trajectories tie in the precedence order for
ever; a single engine ranks them in *database insertion order* (the
order ``SweepEngine._all_oids`` meets them in).  The shard merge used to
install its candidates sorted by ``str`` and the naive baseline to rank
ties by ``str`` too, so twins inserted in non-``str`` order (``t1``
then ``t0``) came out differently per path — 131 of the 396
(pair, shard-count) combinations below.  One rule now: insertion order,
in the candidate MOD (window merge and pruned one-shot path), in the
instant merge, and in the baseline.
"""

import pytest

from repro.baselines.naive import naive_knn_answer
from repro.core.api import evaluate_knn
from repro.core.spec import QuerySpec
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.mod.database import MovingObjectDatabase
from repro.parallel.evaluator import ShardedSweepEvaluator
from repro.parallel.merge import select_top_k
from repro.server.group import EngineGroup
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.trajectory.builder import linear_from

ORIGIN = SquaredEuclideanDistance([0.0, 0.0])
WINDOW = Interval(0.0, 2.0)
OIDS = [f"t{i}" for i in range(12)]
PAIRS = [(a, b) for a in OIDS for b in OIDS if a != b]
SHARD_COUNTS = (2, 3, 4)


def _twins(first, second):
    db = MovingObjectDatabase(initial_time=0.0)
    for oid in (first, second):
        db.install(oid, linear_from(0.0, [3.0, 1.0], [0.5, -0.25]))
    db.install("far", linear_from(0.0, [80.0, 0.0], [1.0, 0.0]))
    return db


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_window_answers_agree_on_twins(shards):
    for first, second in PAIRS:
        db = _twins(first, second)
        engine = SweepEngine(db, ORIGIN, WINDOW)
        view = ContinuousKNN(engine, 1)
        engine.run_to_end()
        single = view.answer()
        assert single.objects == {first}, "a single engine: insertion order"
        label = f"{first} then {second}, S={shards}"
        assert evaluate_knn(db, ORIGIN, WINDOW, k=1) == single, label
        assert evaluate_knn(db, ORIGIN, WINDOW, k=1, shards=shards) == single, label
        assert naive_knn_answer(db, ORIGIN, WINDOW, 1).approx_equals(single), label


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_instant_members_agree_on_twins(shards):
    spec = QuerySpec.knn(ORIGIN, 1)
    for first, second in PAIRS:
        db = _twins(first, second)
        label = f"{first} then {second}, S={shards}"
        evaluator = ShardedSweepEvaluator.knn(
            db, ORIGIN, k=1, until=WINDOW.hi, shards=shards
        )
        try:
            assert evaluator.advance_to(1.0) == {first}, label
            assert evaluator.members_for(1) == {first}, label
        finally:
            evaluator.shutdown()
        group = EngineGroup(1, db, ORIGIN, shards)
        group.acquire(spec)
        group.advance_to(1.0)
        assert group.members(spec) == {first}, label
        assert group.partial(spec, 0.0, 1.0).objects == {first}, label
        group.shutdown()


def test_select_top_k_tie_rule():
    db = _twins("t1", "t0")
    tied = [("t0", 4.0), ("far", 9.0), ("t1", 4.0)]
    assert select_top_k(tied, 1, db) == ["t1"]
    assert select_top_k(tied, 2, db) == ["t0", "t1"]  # no tie at the boundary
    assert select_top_k(tied, 0, db) == []
    assert select_top_k(tied, 5, db) == ["t0", "t1", "far"]

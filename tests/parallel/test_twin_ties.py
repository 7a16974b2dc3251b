"""Exact twins: pool ≡ single ≡ naive, ``answer`` and ``members``.

Two objects with identical trajectories tie in the precedence order for
ever; a single engine ranks them in *database insertion order* (the
order ``SweepEngine._all_oids`` meets them in).  The shard merge used to
install its candidates sorted by ``str`` and the naive baseline to rank
ties by ``str`` too, so twins inserted in non-``str`` order (``t1``
then ``t0``) came out differently per path.  One rule now: insertion
order, in the candidate MOD (pruned one-shot path, whole or cut into
time slices), in the live hosts and in the baseline — however many
twins tie.
"""

import pytest

from repro.baselines.naive import naive_knn_answer
from repro.core.api import ContinuousQuerySession, evaluate_knn
from repro.core.spec import QuerySpec
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.mod.database import MovingObjectDatabase
from repro.server.group import EngineGroup
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.trajectory.builder import linear_from

from tests._oracle import sliced_sweeps

ORIGIN = SquaredEuclideanDistance([0.0, 0.0])
WINDOW = Interval(0.0, 2.0)
OIDS = [f"t{i}" for i in range(12)]
PAIRS = [(a, b) for a in OIDS for b in OIDS if a != b]


def _twins(first, second, *more):
    db = MovingObjectDatabase(initial_time=0.0)
    for oid in (first, second, *more):
        db.install(oid, linear_from(0.0, [3.0, 1.0], [0.5, -0.25]))
    db.install("far", linear_from(0.0, [80.0, 0.0], [1.0, 0.0]))
    return db


@pytest.mark.parametrize("slices", (2, 3, 4))
def test_window_answers_agree_on_twins(slices):
    for first, second in PAIRS:
        db = _twins(first, second)
        engine = SweepEngine(db, ORIGIN, WINDOW)
        view = ContinuousKNN(engine, 1)
        engine.run_to_end()
        single = view.answer()
        assert single.objects == {first}, "a single engine: insertion order"
        label = f"{first} then {second}, {slices} slices"
        assert evaluate_knn(db, ORIGIN, WINDOW, k=1) == single, label
        with sliced_sweeps(slices):
            assert evaluate_knn(db, ORIGIN, WINDOW, k=1) == single, label
        assert naive_knn_answer(db, ORIGIN, WINDOW, 1).approx_equals(single), label


@pytest.mark.parametrize("copies", (2, 3, 4))
def test_instant_members_agree_on_twins(copies):
    """``copies`` identical trajectories: the pair, then more twins
    inserted after it — the first inserted is the nearest one."""
    spec = QuerySpec.knn(ORIGIN, 1)
    for first, second in PAIRS:
        more = [oid for oid in OIDS if oid not in (first, second)]
        db = _twins(first, second, *more[: copies - 2])
        label = f"{first} then {second}, {copies} copies"
        session = ContinuousQuerySession.knn(db, ORIGIN, k=1, until=WINDOW.hi)
        assert session.advance_to(1.0) == {first}, label
        session.close()
        group = EngineGroup(1, db, ORIGIN)
        group.acquire(spec)
        group.advance_to(1.0)
        assert group.members(spec) == {first}, label
        assert group.partial(spec, 0.0, 1.0).objects == {first}, label
        group.shutdown()

"""Eager vs lazy equivalence — the system's central semantic property.

Section 3 poses the alternative for future queries: *lazy* evaluation
waits until all updates are in and evaluates the (now past) query;
*eager* evaluation (Section 5's sweep) maintains the answer as updates
arrive.  Both must produce identical answers over any update sequence —
these integration tests drive both paths over recorded random update
streams and compare.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import ContinuousQuerySession, evaluate_knn, evaluate_within
from repro.geometry.intervals import Interval
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.mod.log import RecordingDatabase
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.sweep.within import ContinuousWithin
from repro.workloads.generator import UpdateStream


def build_workload(seed, objects=8, updates=20, mean_gap=2.0):
    """A recording database with initial objects plus an update stream."""
    db = RecordingDatabase()
    import random

    rng = random.Random(seed)
    for i in range(objects):
        db.create(
            f"o{i}",
            0.01 * (i + 1),
            position=[rng.uniform(-40, 40), rng.uniform(-40, 40)],
            velocity=[rng.uniform(-5, 5), rng.uniform(-5, 5)],
        )
    return db, UpdateStream(db, seed=seed + 1, mean_gap=mean_gap, extent=40.0, speed=5.0, weights=(0.25, 0.15, 0.6)), updates


def eager_knn(db, stream, updates, k, horizon):
    engine = SweepEngine(
        db, SquaredEuclideanDistance([0.0, 0.0]), Interval(0.0, horizon)
    )
    view = ContinuousKNN(engine, k)
    db.subscribe(engine.on_update)
    stream.run(updates)
    engine.advance_to(horizon)
    engine.finalize()
    return view.answer()


def lazy_knn(db, k, horizon):
    """Replay the recorded history and evaluate as a past query."""
    replayed = db.log.replay()
    return evaluate_knn(
        replayed, [0.0, 0.0], Interval(0.0, horizon), k
    )


class TestEagerEqualsLazy:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_knn(self, seed):
        db, stream, updates = build_workload(seed)
        horizon = 60.0
        eager = eager_knn(db, stream, updates, k=2, horizon=horizon)
        lazy = lazy_knn(db, k=2, horizon=horizon)
        assert eager.approx_equals(lazy, atol=1e-6)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_within(self, seed):
        db, stream, updates = build_workload(seed)
        horizon = 60.0
        threshold = 400.0
        engine = SweepEngine(
            db,
            SquaredEuclideanDistance([0.0, 0.0]),
            Interval(0.0, horizon),
            constants=[threshold],
        )
        view = ContinuousWithin(engine, threshold)
        db.subscribe(engine.on_update)
        stream.run(updates)
        engine.advance_to(horizon)
        engine.finalize()
        replayed = db.log.replay()
        lazy = evaluate_within(
            replayed, [0.0, 0.0], Interval(0.0, horizon), 20.0
        )
        assert view.answer().approx_equals(lazy, atol=1e-6)

    @pytest.mark.parametrize("mean_gap", [0.2, 1.0, 5.0])
    def test_update_cadence_irrelevant_to_answers(self, mean_gap):
        """Frequent vs sparse updates change costs (Corollary 6), never
        answers."""
        db, stream, updates = build_workload(77, mean_gap=mean_gap)
        horizon = 40.0
        eager = eager_knn(db, stream, updates, k=1, horizon=horizon)
        lazy = lazy_knn(db, k=1, horizon=horizon)
        assert eager.approx_equals(lazy, atol=1e-6)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=10)
    def test_property_over_random_streams(self, seed):
        db, stream, updates = build_workload(seed, objects=5, updates=12)
        horizon = 30.0
        eager = eager_knn(db, stream, updates, k=2, horizon=horizon)
        lazy = lazy_knn(db, k=2, horizon=horizon)
        assert eager.approx_equals(lazy, atol=1e-6)

    def test_session_interface_equivalence(self):
        db, stream, updates = build_workload(99)
        session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=2, until=60.0)
        stream.run(updates)
        eager = session.close(at=60.0)
        lazy = lazy_knn(db, k=2, horizon=60.0)
        # The session starts at the last initial-creation time, not 0;
        # compare on the overlap.
        start = eager.interval.lo
        for t in [start + 0.5, 10.0, 25.0, 45.0, 59.0]:
            if t >= start:
                assert eager.at(t) == lazy.at(t)

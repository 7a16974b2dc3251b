"""Randomized stress tests: the sweep vs ground truth under adversarial
conditions — dense crossings, bursts of updates, boundary-time updates,
mass terminations, mixed g-distances.

Every scenario here ends with the same oracle: the engine's snapshot
answer must equal the naive O(N^2) recomputation over the recorded
final history.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_knn_answer, naive_within_answer
from repro.geometry.intervals import Interval
from repro.gdist.derived import ApproachRate
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.mod.log import RecordingDatabase
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.sweep.within import ContinuousWithin
from repro.trajectory.builder import from_waypoints
from repro.workloads.generator import crossing_rich_mod


def seeded_db(seed, objects=6, spread=30.0):
    rng = random.Random(seed)
    db = RecordingDatabase()
    for i in range(objects):
        db.create(
            f"o{i}",
            0.001 * (i + 1),
            position=[rng.uniform(-spread, spread), rng.uniform(-spread, spread)],
            velocity=[rng.uniform(-6, 6), rng.uniform(-6, 6)],
        )
    return db, rng


def apply_random_updates(db, rng, count, horizon):
    for _ in range(count):
        time = db.last_update_time + rng.uniform(1e-4, horizon / max(count, 1))
        live = db.object_ids
        choice = rng.random()
        if choice < 0.25 or not live:
            db.create(
                f"n{time:.6f}",
                time,
                position=[rng.uniform(-30, 30), rng.uniform(-30, 30)],
                velocity=[rng.uniform(-6, 6), rng.uniform(-6, 6)],
            )
        elif choice < 0.4 and len(live) > 1:
            db.terminate(rng.choice(live), time)
        else:
            db.change_direction(
                rng.choice(live),
                time,
                [rng.uniform(-6, 6), rng.uniform(-6, 6)],
            )


class TestFuzzKNN:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25)
    def test_knn_with_update_bursts(self, seed):
        db, rng = seeded_db(seed)
        horizon = 25.0
        gd = SquaredEuclideanDistance([0.0, 0.0])
        start = db.last_update_time
        engine = SweepEngine(db, gd, Interval(start, horizon))
        view = ContinuousKNN(engine, 2)
        db.subscribe(engine.on_update)
        apply_random_updates(db, rng, count=10, horizon=horizon)
        engine.advance_to(horizon)
        engine.finalize()
        truth = naive_knn_answer(db.log.replay(), gd, Interval(start, horizon), 2)
        assert view.answer().approx_equals(truth, atol=1e-5)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15)
    def test_jumpy_gdistance_with_updates(self, seed):
        db, rng = seeded_db(seed, objects=5)
        horizon = 20.0
        gd = ApproachRate([0.0, 0.0])
        start = db.last_update_time
        engine = SweepEngine(db, gd, Interval(start, horizon))
        view = ContinuousKNN(engine, 1)
        db.subscribe(engine.on_update)
        apply_random_updates(db, rng, count=8, horizon=horizon)
        engine.advance_to(horizon)
        engine.finalize()
        truth = naive_knn_answer(db.log.replay(), gd, Interval(start, horizon), 1)
        assert view.answer().approx_equals(truth, atol=1e-5)


class TestFuzzWithin:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=25.0, max_value=2500.0),
    )
    @settings(max_examples=15)
    def test_within_random_thresholds(self, seed, threshold):
        db, rng = seeded_db(seed)
        horizon = 20.0
        gd = SquaredEuclideanDistance([0.0, 0.0])
        start = db.last_update_time
        engine = SweepEngine(
            db, gd, Interval(start, horizon), constants=[threshold]
        )
        view = ContinuousWithin(engine, threshold)
        db.subscribe(engine.on_update)
        apply_random_updates(db, rng, count=8, horizon=horizon)
        engine.advance_to(horizon)
        engine.finalize()
        truth = naive_within_answer(
            db.log.replay(), gd, Interval(start, horizon), threshold
        )
        assert view.answer().approx_equals(truth, atol=1e-5)


class TestAdversarialShapes:
    def test_mass_termination(self):
        db = RecordingDatabase()
        for i in range(10):
            db.create(f"o{i}", 0.01 * (i + 1), position=[float(i + 1), 0.0], velocity=[0.1 * i, 0.0])
        gd = SquaredEuclideanDistance([0.0, 0.0])
        engine = SweepEngine(db, gd, Interval(0.2, 20.0))
        view = ContinuousKNN(engine, 3)
        db.subscribe(engine.on_update)
        # Terminate 8 of 10 objects in a rapid burst.
        for i, t in enumerate([1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7]):
            db.terminate(f"o{i}", t)
        engine.advance_to(20.0)
        engine.finalize()
        truth = naive_knn_answer(db.log.replay(), gd, Interval(0.2, 20.0), 3)
        assert view.answer().approx_equals(truth, atol=1e-6)

    def test_every_pair_crosses(self):
        db = crossing_rich_mod(12, seed=3)
        gd = SquaredEuclideanDistance([0.0, 0.0])
        engine = SweepEngine(db, gd, Interval(0.0, 300.0))
        view = ContinuousKNN(engine, 4)
        engine.run_to_end()
        truth = naive_knn_answer(db, gd, Interval(0.0, 300.0), 4)
        assert view.answer().approx_equals(truth, atol=1e-5)

    def test_simultaneous_style_crossings(self):
        """Many curves engineered to cross at nearly the same instant."""
        db = RecordingDatabase()
        # Objects converging on the origin, all arriving around t=10.
        for i in range(8):
            start = 10.0 + i * 0.001
            db.create(
                f"o{i}",
                0.01 * (i + 1),
                position=[start, 0.0],
                velocity=[-(start - 0.0001 * i) / 10.0, 0.0],
            )
        gd = SquaredEuclideanDistance([0.0, 0.0])
        engine = SweepEngine(db, gd, Interval(0.1, 25.0))
        view = ContinuousKNN(engine, 2)
        engine.run_to_end()
        truth = naive_knn_answer(db, gd, Interval(0.1, 25.0), 2)
        assert view.answer().approx_equals(truth, atol=1e-4)

    def test_stacked_identical_distances(self):
        """Exact ties: several objects at identical distances."""
        db = RecordingDatabase()
        for i in range(4):
            angle = i * 3.14159 / 2
            import math

            db.create(
                f"ring{i}",
                0.01 * (i + 1),
                position=[5.0 * math.cos(angle), 5.0 * math.sin(angle)],
                velocity=[0.0, 0.0],
            )
        db.create("inner", 0.05, position=[1.0, 0.0], velocity=[0.0, 0.0])
        gd = SquaredEuclideanDistance([0.0, 0.0])
        engine = SweepEngine(db, gd, Interval(0.1, 10.0))
        view = ContinuousKNN(engine, 2)
        engine.run_to_end()
        answer = view.answer()
        # inner always a member; exactly one of the tied ring objects
        # fills the second slot throughout.
        assert answer.intervals_for("inner").covers(Interval(0.1, 10.0))
        ring_members = [o for o in answer.objects if str(o).startswith("ring")]
        assert len(ring_members) >= 1

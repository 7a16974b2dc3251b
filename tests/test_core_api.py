"""Tests for the high-level public API (repro.core)."""

import pytest

from repro import (
    ContinuousQuerySession,
    Interval,
    MovingObjectDatabase,
    SquaredEuclideanDistance,
    evaluate_knn,
    evaluate_query,
    evaluate_within,
    from_waypoints,
    knn_query,
    linear_from,
    stationary,
)
from repro.baselines.naive import naive_knn_answer, naive_within_answer
from repro.gdist.coordinate import CoordinateValue
from repro.workloads.generator import UpdateStream, random_linear_mod


class TestEvaluateKnn:
    def test_point_query(self):
        db = MovingObjectDatabase()
        db.create("cab-7", 1.0, position=[2.0, 1.0], velocity=[0.5, 0.0])
        db.create("cab-9", 2.0, position=[9.0, 3.0], velocity=[-1.0, 0.0])
        answer = evaluate_knn(db, [0.0, 0.0], Interval(2.0, 20.0), k=1)
        assert answer.objects  # someone is always nearest
        naive = naive_knn_answer(
            db, SquaredEuclideanDistance([0.0, 0.0]), Interval(2.0, 20.0), 1
        )
        assert answer.approx_equals(naive, atol=1e-6)

    def test_trajectory_query(self):
        db = random_linear_mod(6, seed=1)
        q = from_waypoints([(0, [0.0, 0.0]), (10, [10.0, 0.0])])
        answer = evaluate_knn(db, q, Interval(0.0, 10.0), k=2)
        naive = naive_knn_answer(
            db, SquaredEuclideanDistance(q), Interval(0.0, 10.0), 2
        )
        assert answer.approx_equals(naive, atol=1e-6)

    def test_custom_gdistance_ranking(self):
        """Ranking by altitude: k-NN over CoordinateValue(2)."""
        db = MovingObjectDatabase()
        db.install("low", stationary([0.0, 0.0, 100.0]))
        db.install("high", stationary([0.0, 0.0, 10000.0]))
        answer = evaluate_knn(db, CoordinateValue(2), Interval(0.0, 10.0), k=1)
        assert answer.objects == {"low"}


class TestEvaluateWithin:
    def test_distance_squared_internally(self):
        db = MovingObjectDatabase()
        db.install("at_4", stationary([4.0, 0.0]))
        db.install("at_6", stationary([6.0, 0.0]))
        answer = evaluate_within(db, [0.0, 0.0], Interval(0.0, 10.0), 5.0)
        assert answer.objects == {"at_4"}

    def test_matches_naive(self):
        db = random_linear_mod(8, seed=3, extent=40.0, speed=6.0)
        answer = evaluate_within(db, [0.0, 0.0], Interval(0.0, 15.0), 25.0)
        naive = naive_within_answer(
            db,
            SquaredEuclideanDistance([0.0, 0.0]),
            Interval(0.0, 15.0),
            625.0,
        )
        assert answer.approx_equals(naive, atol=1e-6)

    def test_gdistance_threshold_taken_verbatim(self):
        db = MovingObjectDatabase()
        db.install("low", stationary([0.0, 0.0, 100.0]))
        db.install("high", stationary([0.0, 0.0, 10000.0]))
        answer = evaluate_within(
            db, CoordinateValue(2), Interval(0.0, 10.0), 500.0
        )
        assert answer.objects == {"low"}


class TestEvaluateQuery:
    def test_knn_query_roundtrip(self):
        db = random_linear_mod(6, seed=5, extent=25.0, speed=5.0)
        q = knn_query(Interval(0.0, 12.0), 1)
        gd = SquaredEuclideanDistance([0.0, 0.0])
        answer = evaluate_query(db, gd, q)
        expected = evaluate_knn(db, [0.0, 0.0], Interval(0.0, 12.0), 1)
        assert answer.approx_equals(expected, atol=1e-6)


class TestContinuousSession:
    def test_knn_session_follows_updates(self):
        db = MovingObjectDatabase()
        db.create("a", 1.0, position=[5.0, 0.0], velocity=[0.0, 0.0])
        db.create("b", 2.0, position=[50.0, 0.0], velocity=[0.0, 0.0])
        session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=1)
        assert session.members == {"a"}
        # b dives toward the origin, is nearest while passing through
        # (t in (7.5, 8.5)), then flies out the far side.
        db.change_direction("b", 3.0, [-10.0, 0.0])
        session.advance_to(8.0)
        assert session.members == {"b"}
        session.advance_to(10.0)
        assert session.members == {"a"}

    def test_session_close_returns_history(self):
        db = MovingObjectDatabase()
        db.create("a", 1.0, position=[5.0, 0.0], velocity=[0.0, 0.0])
        session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=1)
        db.create("c", 2.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
        answer = session.close(at=5.0)
        assert answer.holds_at("a", 1.5)
        assert answer.holds_at("c", 3.0)
        assert not answer.holds_at("a", 3.0)

    def test_close_twice_rejected(self):
        db = MovingObjectDatabase()
        db.create("a", 1.0, position=[5.0, 0.0], velocity=[0.0, 0.0])
        session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=1)
        session.close(at=2.0)
        with pytest.raises(RuntimeError):
            session.close()

    def test_closed_session_ignores_updates(self):
        db = MovingObjectDatabase()
        db.create("a", 1.0, position=[5.0, 0.0], velocity=[0.0, 0.0])
        session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=1)
        session.close(at=2.0)
        # After close the engine is detached: this update must not reach it.
        db.create("late", 3.0, position=[0.1, 0.0], velocity=[0.0, 0.0])
        assert session.engine.stats.updates_applied == 0

    def test_within_session(self):
        db = MovingObjectDatabase()
        db.create("near", 1.0, position=[3.0, 0.0], velocity=[0.0, 0.0])
        db.create("far", 2.0, position=[30.0, 0.0], velocity=[0.0, 0.0])
        session = ContinuousQuerySession.within(db, [0.0, 0.0], distance=5.0)
        assert session.members == {"near"}
        # far dives through range (inside for t in [8, 10]) and leaves.
        db.change_direction("far", 3.0, [-5.0, 0.0])
        session.advance_to(9.0)
        assert session.members == {"near", "far"}
        session.advance_to(20.0)
        assert session.members == {"near"}

    def test_random_stream_consistency(self):
        db = random_linear_mod(8, seed=7, extent=40.0, speed=5.0)
        session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=2, until=100.0)
        UpdateStream(db, seed=8, mean_gap=3.0, extent=40.0, speed=5.0).run(20)
        answer = session.close(at=min(db.last_update_time + 5.0, 100.0))
        naive = naive_knn_answer(
            db,
            SquaredEuclideanDistance([0.0, 0.0]),
            Interval(0.0, session.engine.current_time),
            2,
        )
        assert answer.approx_equals(naive, atol=1e-6)


class TestSessionTeardownRobustness:
    def test_close_unsubscribes_even_if_finalize_raises(self):
        db = MovingObjectDatabase()
        db.create("a", 1.0, position=[5.0, 0.0], velocity=[0.0, 0.0])
        session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=1)

        def explode():
            raise RuntimeError("finalize failed")

        session._engine.finalize = explode
        with pytest.raises(RuntimeError):
            session.close(at=2.0)
        # The engine must be detached regardless: later updates cannot
        # reach it (and in particular cannot raise out of db.apply).
        db.create("late", 3.0, position=[0.1, 0.0], velocity=[0.0, 0.0])
        assert session.engine.stats.updates_applied == 0

    def test_close_after_failed_close_still_rejected(self):
        db = MovingObjectDatabase()
        db.create("a", 1.0, position=[5.0, 0.0], velocity=[0.0, 0.0])
        session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=1)
        session._engine.finalize = lambda: (_ for _ in ()).throw(RuntimeError())
        with pytest.raises(RuntimeError):
            session.close(at=2.0)
        with pytest.raises(RuntimeError):
            session.close()


class TestCloseBehindTheSweep:
    """A close at a time the sweep has already passed answers exactly
    ``[start, at]``, as a supervised or a server session's does."""

    def test_close_behind_the_sweep_clips_to_at(self):
        db = random_linear_mod(8, seed=7, extent=40.0, speed=5.0)
        session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=2)
        UpdateStream(db, seed=8, mean_gap=1.0, extent=40.0, speed=5.0).run(10)
        at = db.last_update_time / 2.0
        session.advance_to(db.last_update_time + 3.0)
        answer = session.close(at=at)
        assert answer.interval == Interval(0.0, at)
        want = evaluate_knn(db, [0.0, 0.0], Interval(0.0, at), k=2)
        assert answer.approx_equals(want, atol=1e-9)
        # The answer was returned, so the session is closed for good.
        with pytest.raises(RuntimeError, match="already closed"):
            session.close()

    def test_close_before_the_start_names_the_start(self):
        db = random_linear_mod(4, seed=2)
        db.create("late", 5.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
        session = ContinuousQuerySession.within(db, [0.0, 0.0], 3.0)
        session.advance_to(8.0)
        with pytest.raises(ValueError, match=r"start \(5\.0\)"):
            session.close(at=4.0)
        db.create("later", 9.0, position=[0.5, 0.0], velocity=[0.0, 0.0])
        assert session.engine.current_time == 8.0, "detached"

"""Tests for self-healing supervised continuous query sessions."""

import pytest

from repro.core.api import ContinuousQuerySession, evaluate_knn
from repro.geometry.intervals import Interval
from repro.io import answer_to_dict
from repro.mod.database import MovingObjectDatabase
from repro.resilience.supervisor import SupervisedQuerySession
from repro.workloads.generator import UpdateStream, random_linear_mod


def twin_dbs(count=8, seed=7):
    """Two identical databases fed by identical seeded streams."""
    return (
        random_linear_mod(count, seed=seed, extent=40.0, speed=5.0),
        random_linear_mod(count, seed=seed, extent=40.0, speed=5.0),
    )


class TestFailureHandling:
    def test_plain_session_wedges_on_probe_race(self):
        db = random_linear_mod(6, seed=1)
        session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=1)
        session.advance_to(10.0)
        # Valid for the database (tau = 0), in the past for the engine.
        with pytest.raises(ValueError):
            db.create("late", 5.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
        session.close()

    def test_supervised_session_rebuilds_instead(self):
        db = MovingObjectDatabase()
        db.create("far", 0.5, position=[100.0, 0.0], velocity=[0.0, 0.0])
        session = SupervisedQuerySession.knn(db, [0.0, 0.0], k=1)
        session.advance_to(10.0)
        db.create("late", 5.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
        assert session.stats.failures == 1
        assert session.stats.rebuilds == 1
        # The rebuilt engine tracks subsequent updates normally.
        db.create("later", 6.0, position=[0.5, 0.0], velocity=[0.0, 0.0])
        assert session.stats.failures == 1
        assert session.advance_to(7.0) == {"later"}
        session.close()

    def test_engine_property_changes_across_rebuild(self):
        db = random_linear_mod(4, seed=2)
        session = SupervisedQuerySession.knn(db, [0.0, 0.0], k=1)
        first = session.engine
        session.advance_to(10.0)
        db.create("late", 5.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
        assert session.engine is not first
        session.close()

    def test_broken_view_loses_nothing(self):
        db = random_linear_mod(4, seed=3)
        start = db.last_update_time
        session = SupervisedQuerySession.knn(db, [0.0, 0.0], k=1)

        class BrokenView:
            members = frozenset()

            def answer(self):
                raise RuntimeError("view corrupted")

        session._view = BrokenView()
        session.advance_to(10.0)
        db.create("late", 5.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
        assert session.stats.rebuilds == 1
        # The span the broken view held is a past query over the MOD.
        want = evaluate_knn(db, [0.0, 0.0], Interval(start, 12.0), k=1)
        assert answer_to_dict(session.close(12.0)) == answer_to_dict(want)


class TestStitchedAnswers:
    def test_matches_unsupervised_run_despite_rebuild(self):
        """A supervised session hit by a probe/update race produces the
        same whole-session answer as a clean uninterrupted session."""
        db_clean, db_faulty = twin_dbs()
        clean = ContinuousQuerySession.knn(db_clean, [0.0, 0.0], k=2)
        supervised = SupervisedQuerySession.knn(db_faulty, [0.0, 0.0], k=2)

        stream_clean = UpdateStream(
            db_clean, seed=8, mean_gap=1.0, extent=40.0, speed=5.0
        )
        stream_faulty = UpdateStream(
            db_faulty, seed=8, mean_gap=1.0, extent=40.0, speed=5.0
        )
        probe_time = None
        for step in range(40):
            stream_clean.step()
            if step == 14:
                # Probe far ahead: the next update lands in the engine's
                # past and would wedge an unsupervised session.
                probe_time = db_faulty.last_update_time + 50.0
                supervised.advance_to(probe_time)
            stream_faulty.step()

        assert supervised.stats.failures >= 1
        assert supervised.stats.rebuilds >= 1
        end = max(db_clean.last_update_time + 5.0, probe_time + 1.0)
        answer_clean = clean.close(at=end)
        answer_supervised = supervised.close(at=end)
        assert answer_supervised.approx_equals(answer_clean, atol=1e-6)

    def test_no_failures_matches_plain_session(self):
        db_clean, db_super = twin_dbs(count=6, seed=9)
        clean = ContinuousQuerySession.knn(db_clean, [0.0, 0.0], k=2)
        supervised = SupervisedQuerySession.knn(db_super, [0.0, 0.0], k=2)
        UpdateStream(db_clean, seed=4, mean_gap=1.0, extent=40.0).run(20)
        UpdateStream(db_super, seed=4, mean_gap=1.0, extent=40.0).run(20)
        end = db_clean.last_update_time + 2.0
        assert supervised.stats.failures == 0
        answer_clean = clean.close(at=end)
        answer_supervised = supervised.close(at=end)
        assert answer_supervised.approx_equals(answer_clean, atol=1e-6)

    def test_within_sessions_supervised(self):
        db_clean, db_super = twin_dbs(count=6, seed=12)
        clean = ContinuousQuerySession.within(db_clean, [0.0, 0.0], distance=25.0)
        supervised = SupervisedQuerySession.within(
            db_super, [0.0, 0.0], distance=25.0
        )
        stream_clean = UpdateStream(db_clean, seed=5, mean_gap=1.0, extent=40.0)
        stream_super = UpdateStream(db_super, seed=5, mean_gap=1.0, extent=40.0)
        probe_time = None
        for step in range(20):
            stream_clean.step()
            if step == 8:
                probe_time = db_super.last_update_time + 50.0
                supervised.advance_to(probe_time)
            stream_super.step()
        assert supervised.stats.rebuilds >= 1
        end = max(db_clean.last_update_time + 2.0, probe_time + 1.0)
        answer_clean = clean.close(at=end)
        answer_supervised = supervised.close(at=end)
        assert answer_supervised.approx_equals(answer_clean, atol=1e-6)


class TestLifecycle:
    def test_close_twice_rejected(self):
        db = random_linear_mod(3, seed=1)
        session = SupervisedQuerySession.knn(db, [0.0, 0.0], k=1)
        session.close(at=1.0)
        with pytest.raises(RuntimeError):
            session.close()

    def test_close_detaches_even_if_finalize_raises(self):
        db = random_linear_mod(3, seed=1)
        session = SupervisedQuerySession.knn(db, [0.0, 0.0], k=1)

        def explode():
            raise RuntimeError("finalize failed")

        session._engine.finalize = explode
        with pytest.raises(RuntimeError):
            session.close(at=1.0)
        # The guard is gone: new updates cause no failures.
        db.create("x", 1.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
        assert session.stats.failures == 0

    def test_closed_session_ignores_updates(self):
        db = random_linear_mod(3, seed=1)
        session = SupervisedQuerySession.knn(db, [0.0, 0.0], k=1)
        session.close(at=1.0)
        db.create("x", 2.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
        assert session.stats.failures == 0
        assert session.stats.rebuilds == 0

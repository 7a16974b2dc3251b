"""Unit tests for the :class:`ShardedSweepEvaluator` facade.

The differential suite proves answer equality; these tests pin down
the facade contract — error surfaces, idempotence, metrics, and the
public wiring entry points.
"""

import math

import pytest

from repro.core.api import (
    ContinuousQuerySession,
    evaluate_knn,
    evaluate_multiknn,
    evaluate_within,
)
from repro.geometry.intervals import Interval
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.obs import Instrumentation
from repro.parallel.evaluator import ShardedSweepEvaluator
from repro.workloads.generator import UpdateStream, random_linear_mod

ORIGIN = SquaredEuclideanDistance([0.0, 0.0])


def _db(count=8, seed=3):
    return random_linear_mod(count, seed=seed, extent=30.0, speed=4.0)


class TestFacadeContract:
    def test_cannot_sweep_backwards(self):
        db = _db()
        ev = ShardedSweepEvaluator.knn(db, ORIGIN, k=1, until=50.0, shards=2)
        ev.advance_to(10.0)
        with pytest.raises(ValueError, match="backwards"):
            ev.advance_to(5.0)
        ev.shutdown()

    def test_answer_requires_finalize(self):
        db = _db()
        ev = ShardedSweepEvaluator.knn(db, ORIGIN, k=1, until=50.0, shards=2)
        with pytest.raises(RuntimeError, match="finalize"):
            ev.answer()
        ev.shutdown()

    def test_update_after_finalize_rejected(self):
        db = _db()
        ev = ShardedSweepEvaluator.knn(db, ORIGIN, k=1, until=20.0, shards=2)
        db.subscribe(ev.on_update)
        ev.advance_to(20.0)
        ev.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            db.create("x", 21.0, position=[0.0, 0.0], velocity=[0.0, 0.0])
        db.unsubscribe(ev.on_update)

    def test_finalize_is_idempotent(self):
        db = _db()
        ev = ShardedSweepEvaluator.knn(db, ORIGIN, k=2, until=15.0, shards=3)
        ev.advance_to(15.0)
        ev.finalize()
        first = ev.answer()
        ev.finalize()
        assert ev.answer() is first

    def test_run_to_end_requires_finite_horizon(self):
        db = _db()
        ev = ShardedSweepEvaluator.knn(db, ORIGIN, k=1, shards=2)
        with pytest.raises(ValueError):
            ev.run_to_end()
        ev.shutdown()

    def test_members_for_validates_k(self):
        db = _db()
        ev = ShardedSweepEvaluator.knn(db, ORIGIN, k=2, until=50.0, shards=2)
        ev.advance_to(5.0)
        assert len(ev.members_for(1)) == 1
        with pytest.raises(ValueError, match="exceeds"):
            ev.members_for(3)
        ev.shutdown()

    def test_members_for_rejected_in_within_mode(self):
        db = _db()
        ev = ShardedSweepEvaluator.within(
            db, ORIGIN, 20.0, until=50.0, shards=2
        )
        with pytest.raises(ValueError):
            ev.members_for(1)
        ev.shutdown()

    def test_multiknn_answer_requires_k(self):
        db = _db()
        ev = ShardedSweepEvaluator.multiknn(
            db, ORIGIN, ks=(1, 3), until=10.0, shards=2
        )
        ev.run_to_end()
        with pytest.raises(ValueError):
            ev.answer()
        assert set(ev.answers()) == {1, 3}
        assert ev.answer(k=3) is ev.answers()[3]

    def test_answers_is_multiknn_only(self):
        db = _db()
        ev = ShardedSweepEvaluator.knn(db, ORIGIN, k=1, until=10.0, shards=2)
        ev.run_to_end()
        with pytest.raises(ValueError):
            ev.answers()

    def test_shutdown_is_idempotent(self):
        db = _db()
        ev = ShardedSweepEvaluator.knn(db, ORIGIN, k=1, until=10.0, shards=2)
        ev.shutdown()
        ev.shutdown()

    def test_clock_tracks_updates_and_probes(self):
        db = _db()
        start = db.last_update_time
        ev = ShardedSweepEvaluator.knn(db, ORIGIN, k=1, until=100.0, shards=2)
        db.subscribe(ev.on_update)
        assert ev.current_time == start
        stream = UpdateStream(db, seed=9, mean_gap=1.0, extent=30.0, speed=4.0)
        stream.step()
        assert ev.current_time == db.last_update_time
        ev.advance_to(db.last_update_time + 5.0)
        assert ev.current_time == db.last_update_time + 5.0
        db.unsubscribe(ev.on_update)
        ev.shutdown()

    def test_batching_defers_shard_work_until_read(self):
        db = _db()
        ev = ShardedSweepEvaluator.knn(
            db, ORIGIN, k=1, until=100.0, shards=2, batch_size=16
        )
        db.subscribe(ev.on_update)
        stream = UpdateStream(db, seed=4, mean_gap=0.5, extent=30.0, speed=4.0)
        for _ in range(5):
            stream.step()
        assert ev.pending == 5
        ev.members  # any read flushes
        assert ev.pending == 0
        assert ev.batch_stats.applied == 5
        db.unsubscribe(ev.on_update)
        ev.shutdown()


class TestMetrics:
    def test_counters_and_gauges_register(self):
        instr = Instrumentation()
        db = _db()
        ev = ShardedSweepEvaluator.knn(
            db, ORIGIN, k=1, until=30.0, shards=3, batch_size=2, observe=instr
        )
        db.subscribe(ev.on_update)
        stream = UpdateStream(db, seed=5, mean_gap=0.6, extent=30.0, speed=4.0)
        for _ in range(6):
            stream.step()
        ev.advance_to(30.0)
        ev.finalize()
        text = instr.metrics.to_prometheus()
        assert "sharded_updates_total" in text
        assert "sharded_batches_total" in text
        assert "sharded_shard_count 3" in text
        assert "sharded_merge_candidates" in text
        snap = instr.metrics.snapshot()
        updates = sum(
            v
            for key, v in snap.items()
            if key.startswith("sharded_updates_total")
        )
        assert updates == 6
        db.unsubscribe(ev.on_update)

    def test_operation_counts_aggregate_across_shards(self):
        db = _db(12, seed=8)
        window = Interval(db.last_update_time, db.last_update_time + 20.0)
        single = evaluate_knn(db, ORIGIN, window, k=1)  # noqa: F841
        ev = ShardedSweepEvaluator.knn(
            db, ORIGIN, k=1, until=window.hi, shards=4
        )
        ev.run_to_end()
        counts = ev.operation_counts()
        assert counts, "finalized evaluator must report op counts"
        assert ev.primitive_ops() == counts["total"]
        assert counts["total"] == sum(
            v for op, v in counts.items() if op != "total"
        )


class TestPublicWiring:
    def test_evaluate_functions_accept_shards(self):
        db = _db(10, seed=12)
        window = Interval(db.last_update_time, db.last_update_time + 15.0)
        assert evaluate_knn(db, ORIGIN, window, k=2, shards=3).approx_equals(
            evaluate_knn(db, ORIGIN, window, k=2), atol=1e-6
        )
        assert evaluate_within(
            db, ORIGIN, window, distance=150.0, shards=3
        ).approx_equals(
            evaluate_within(db, ORIGIN, window, distance=150.0), atol=1e-6
        )
        sharded = evaluate_multiknn(db, ORIGIN, window, ks=(1, 2), shards=3)
        plain = evaluate_multiknn(db, ORIGIN, window, ks=(1, 2))
        assert set(sharded) == set(plain) == {1, 2}
        for k in (1, 2):
            assert sharded[k].approx_equals(plain[k], atol=1e-6)

    def test_session_fronts_sharded_evaluator(self):
        def twin():
            return _db(8, seed=14)

        db_a, db_b = twin(), twin()
        plain = ContinuousQuerySession.knn(db_a, ORIGIN, k=2)
        sharded = ContinuousQuerySession.knn(db_b, ORIGIN, k=2, shards=3)
        sa = UpdateStream(db_a, seed=15, mean_gap=1.0, extent=30.0, speed=4.0)
        sb = UpdateStream(db_b, seed=15, mean_gap=1.0, extent=30.0, speed=4.0)
        for _ in range(8):
            sa.step()
            sb.step()
        end = max(db_a.last_update_time, db_b.last_update_time) + 3.0
        assert sharded.close(at=end).approx_equals(
            plain.close(at=end), atol=1e-5
        )

    def test_top_level_export(self):
        import repro

        assert repro.ShardedSweepEvaluator is ShardedSweepEvaluator
        assert callable(repro.evaluate_multiknn)


class TestSpecValidation:
    def test_shard_count_must_be_positive(self):
        db = _db()
        with pytest.raises(ValueError):
            ShardedSweepEvaluator.knn(db, ORIGIN, k=1, shards=0)

    def test_within_squares_point_query_threshold(self):
        db = _db(10, seed=20)
        window = Interval(db.last_update_time, db.last_update_time + 10.0)
        # Point-query form: evaluate_within squares the distance; a raw
        # GDistance threshold passes through as-is.  Both entry points
        # must agree through the sharded path.
        as_point = evaluate_within(
            db, [0.0, 0.0], window, distance=12.0, shards=2
        )
        as_gdist = evaluate_within(
            db, ORIGIN, window, distance=144.0, shards=2
        )
        assert as_point.approx_equals(as_gdist, atol=1e-9)

    def test_infinite_horizon_until_default(self):
        db = _db()
        ev = ShardedSweepEvaluator.knn(db, ORIGIN, k=1, shards=2)
        assert math.isinf(ev._spec.hi)
        ev.shutdown()

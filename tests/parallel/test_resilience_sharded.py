"""Resilience regressions for the sharded evaluation path.

Three guarantees the parallel layer must not erode:

- a WAL ``recover()``-ed database replayed into a
  :class:`ShardedSweepEvaluator` answers exactly like a single engine
  over the same recovered state;
- with ``self_heal=True`` a poisoned update rebuilds only the shard it
  routes to — every other shard keeps its engine untouched;
- :class:`SupervisedQuerySession` fronting a sharded evaluator still
  survives the probe/update race by whole-evaluator rebuild.
"""

import math
import os

from repro.core.api import ContinuousQuerySession, evaluate_knn
from repro.geometry.intervals import Interval
from repro.geometry.vectors import Vector
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import New
from repro.parallel.evaluator import ShardedSweepEvaluator
from repro.parallel.sharding import shard_of
from repro.resilience.ingest import IngestPipeline
from repro.resilience.supervisor import SupervisedQuerySession
from repro.resilience.wal import WAL_FILENAME, WriteAheadLog, recover
from repro.workloads.generator import (
    UpdateStream,
    random_linear_mod,
    recorded_future_workload,
)

ORIGIN = SquaredEuclideanDistance([0.0, 0.0])


class TestWalRecoveryIntoShardedEvaluator:
    def _crashed_wal(self, tmp_path, count=10, updates=20, seed=11):
        """Log a seeded stream to a WAL, then 'crash' with a torn tail."""
        wal_dir = str(tmp_path)
        db, _ = recorded_future_workload(
            count, updates, seed=seed, extent=30.0, speed=4.0
        )
        wal = WriteAheadLog(wal_dir)
        for update in db.log.updates:
            wal.append(update)
        wal.close()
        with open(os.path.join(wal_dir, WAL_FILENAME), "ab") as handle:
            handle.write(b'{"kind": "chdir", "oid": "tru')  # torn line
        return wal_dir, db

    def test_recovered_db_answers_identically_sharded(self, tmp_path):
        wal_dir, original = self._crashed_wal(tmp_path)
        recovered, log = recover(wal_dir)
        assert log.updates, "recovery found no intact WAL entries"
        assert recovered.last_update_time == original.last_update_time
        start = recovered.last_update_time
        window = Interval(start, start + 12.0)
        single = evaluate_knn(recovered, ORIGIN, window, k=2)
        for shards in (2, 5):
            sharded = evaluate_knn(recovered, ORIGIN, window, k=2, shards=shards)
            assert sharded.approx_equals(single, atol=1e-6), f"S={shards}"

    def test_replaying_recovered_log_into_sharded_session(self, tmp_path):
        """The recovered WAL suffix streamed through a live sharded
        session matches the same replay through a single engine."""
        wal_dir, _ = self._crashed_wal(tmp_path, count=8, seed=23)
        recovered, log = recover(wal_dir)
        tau = recovered.last_update_time

        # Rebuild two independent prefix states at the first post-WAL
        # checkpointable instant and stream the remaining WAL entries
        # live into each evaluation path.
        prefix = [u for u in log.updates if u.time <= tau - 4.0]
        suffix = [u for u in log.updates if u.time > tau - 4.0]
        assert prefix and suffix

        def prefix_db():
            db = MovingObjectDatabase(initial_time=-math.inf)
            for update in prefix:
                db.apply(update)
            return db

        horizon = tau + 6.0
        db_single = prefix_db()
        session = ContinuousQuerySession.knn(
            db_single, ORIGIN, k=1, until=horizon
        )
        db_sharded = prefix_db()
        evaluator = ShardedSweepEvaluator.knn(
            db_sharded, ORIGIN, k=1, until=horizon, shards=3, batch_size=4
        )
        db_sharded.subscribe(evaluator.on_update)
        for update in suffix:
            db_single.apply(update)
            db_sharded.apply(update)
        single_answer = session.close(at=horizon)
        evaluator.advance_to(horizon)
        evaluator.finalize()
        assert evaluator.answer().approx_equals(single_answer, atol=1e-6)


class TestShardLocalSelfHealing:
    def _db(self):
        db = MovingObjectDatabase(initial_time=0.0)
        for i in range(12):
            db.apply(
                New(
                    f"o{i}",
                    0.01 * (i + 1),
                    velocity=Vector.of(0.4 * (i % 5) - 1.0, 0.2),
                    position=Vector.of(2.0 * i - 11.0, 1.0),
                )
            )
        return db

    def test_poisoned_update_rebuilds_only_its_shard(self):
        shards = 4
        db = self._db()
        evaluator = ShardedSweepEvaluator.knn(
            db, ORIGIN, k=2, until=40.0, shards=shards, self_heal=True
        )
        db.subscribe(evaluator.on_update)
        evaluator.advance_to(10.0)
        engines_before = evaluator._group.engines
        # Valid for the database (tau ~ 0.12) but in the past for every
        # shard engine (swept to t=10): a probe/update race in one shard.
        late = New(
            "late", 5.0, velocity=Vector.of(0.0, 0.0), position=Vector.of(1.0, 0.0)
        )
        victim = shard_of("late", shards)
        db.apply(late)
        evaluator.flush()
        assert evaluator.rebuilds == 1
        for shard, before in enumerate(engines_before):
            now = evaluator._group.engines[shard]
            if shard == victim:
                assert now is not before, "poisoned shard must rebuild"
            else:
                assert now is before, f"shard {shard} must be untouched"
        # The healed evaluator keeps answering and matches a clean
        # single-engine run over the same final database.
        evaluator.advance_to(40.0)
        evaluator.finalize()
        clean = evaluate_knn(
            self._reference_db(), ORIGIN, Interval(0.12, 40.0), k=2
        )
        assert evaluator.answer().approx_equals(clean, atol=1e-6)

    def _reference_db(self):
        """The post-heal truth: all 12 objects plus the late arrival."""
        db = self._db()
        db.apply(
            New("late", 5.0, velocity=Vector.of(0.0, 0.0), position=Vector.of(1.0, 0.0))
        )
        return db

    def test_without_self_heal_the_failure_propagates(self):
        import pytest

        db = self._db()
        evaluator = ShardedSweepEvaluator.knn(
            db, ORIGIN, k=1, until=40.0, shards=3, self_heal=False
        )
        db.subscribe(evaluator.on_update)
        evaluator.advance_to(10.0)
        with pytest.raises(ValueError):
            db.apply(
                New(
                    "late",
                    5.0,
                    velocity=Vector.of(0.0, 0.0),
                    position=Vector.of(1.0, 0.0),
                )
            )


class TestSupervisedShardedSession:
    def test_probe_update_race_rebuilds_whole_evaluator(self):
        db = MovingObjectDatabase()
        db.create("far", 0.5, position=[100.0, 0.0], velocity=[0.0, 0.0])
        session = SupervisedQuerySession.knn(db, [0.0, 0.0], k=1, shards=3)
        session.advance_to(10.0)
        db.create("late", 5.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
        assert session.stats.failures == 1
        assert session.stats.rebuilds == 1
        db.create("later", 6.0, position=[0.5, 0.0], velocity=[0.0, 0.0])
        assert session.advance_to(7.0) == {"later"}
        session.close()

    def test_supervised_sharded_matches_plain_single(self):
        def twin():
            return random_linear_mod(8, seed=17, extent=40.0, speed=5.0)

        db_clean, db_faulty = twin(), twin()
        clean = ContinuousQuerySession.knn(db_clean, [0.0, 0.0], k=2)
        supervised = SupervisedQuerySession.knn(
            db_faulty, [0.0, 0.0], k=2, shards=3, batch_size=2
        )
        stream_clean = UpdateStream(
            db_clean, seed=18, mean_gap=1.0, extent=40.0, speed=5.0
        )
        stream_faulty = UpdateStream(
            db_faulty, seed=18, mean_gap=1.0, extent=40.0, speed=5.0
        )
        for i in range(12):
            stream_clean.step()
            stream_faulty.step()
            if i == 6:
                # Race: probe far ahead, then let the streams continue
                # in the past of the supervised evaluator.
                supervised.advance_to(db_faulty.last_update_time + 30.0)
        assert supervised.stats.failures >= 1
        assert supervised.stats.rebuilds >= 1
        end = max(db_clean.last_update_time, db_faulty.last_update_time) + 5.0
        assert supervised.close(at=end).approx_equals(
            clean.close(at=end), atol=1e-5
        )


class TestIngestIntoShardedEvaluator:
    def test_pipeline_flush_drains_evaluator_batches(self):
        recorded, _ = recorded_future_workload(
            6, 16, seed=31, extent=30.0, speed=4.0
        )
        updates = list(recorded.log.updates)  # full history incl. creation
        seed_prefix, live = updates[:8], updates[8:]
        db = MovingObjectDatabase(initial_time=-math.inf)
        for update in seed_prefix:
            db.apply(update)
        horizon = updates[-1].time + 5.0
        evaluator = ShardedSweepEvaluator.knn(
            db, ORIGIN, k=1, until=horizon, shards=2, batch_size=8
        )
        pipe = IngestPipeline(db, policy="strict")
        pipe.attach_evaluator(evaluator)
        for update in live:
            assert pipe.submit(update) == "applied"
        pipe.flush()
        assert evaluator.pending == 0
        evaluator.advance_to(horizon)
        evaluator.finalize()

        # The drained evaluator matches lazy evaluation over the same
        # final database state.
        reference = MovingObjectDatabase(initial_time=-math.inf)
        for update in updates:
            reference.apply(update)
        start = seed_prefix[-1].time
        truth = evaluate_knn(reference, ORIGIN, Interval(start, horizon), k=1)
        assert evaluator.answer().approx_equals(truth, atol=1e-6)

"""Unit tests for hash partitioning and per-shard batching."""

import pytest

from repro.mod.updates import ChangeDirection, New
from repro.geometry.vectors import Vector
from repro.parallel.batching import BatchedUpdateApplier
from repro.parallel.sharding import partition_database, partition_oids, shard_of
from repro.workloads.generator import random_linear_mod


class TestShardOf:
    def test_single_shard_is_always_zero(self):
        assert shard_of("anything", 1) == 0
        assert shard_of(42, 1) == 0

    def test_deterministic_within_and_across_calls(self):
        oids = [f"o{i}" for i in range(200)] + [7, 19, (1, 2), True, 2.5]
        for oid in oids:
            assert shard_of(oid, 8) == shard_of(oid, 8)
            assert 0 <= shard_of(oid, 8) < 8

    def test_stable_under_subprocess_hash_salt(self):
        """CRC-based routing must not depend on Python's per-process
        hash salt (op counts and partitions must repeat run to run)."""
        import subprocess
        import sys

        script = (
            "import sys; sys.path.insert(0, 'src');"
            "from repro.parallel.sharding import shard_of;"
            "print([shard_of(f'o{i}', 8) for i in range(50)])"
        )
        local = [shard_of(f"o{i}", 8) for i in range(50)]
        for salt in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONHASHSEED": salt, "PATH": "/usr/bin:/bin"},
                cwd="/root/repo",
            ).stdout.strip()
            assert out == str(local), f"routing drifted under seed {salt}"

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            shard_of("x", 0)

    def test_spreads_uniformly_enough(self):
        counts = [0] * 8
        for i in range(4000):
            counts[shard_of(f"obj-{i}", 8)] += 1
        assert min(counts) > 4000 // 8 * 0.7


class TestPartition:
    def test_partition_oids_disjoint_and_complete(self):
        oids = [f"o{i}" for i in range(100)]
        parts = partition_oids(oids, 7)
        seen = [oid for bucket in parts.values() for oid in bucket]
        assert sorted(seen) == sorted(oids)
        for shard, bucket in parts.items():
            for oid in bucket:
                assert shard_of(oid, 7) == shard

    def test_partition_database_preserves_every_object(self):
        db = random_linear_mod(24, seed=5)
        parts = partition_database(db, 5)
        assert len(parts) == 5
        merged = {}
        for part in parts:
            for oid, traj in part.all_items():
                assert oid not in merged, "object appears in two shards"
                merged[oid] = traj
        assert merged == dict(db.all_items())

    def test_shard_databases_start_at_source_tau(self):
        db = random_linear_mod(10, seed=6)
        for part in partition_database(db, 3):
            assert part.last_update_time == db.last_update_time

    def test_trajectories_are_shared_not_copied(self):
        db = random_linear_mod(6, seed=7)
        parts = partition_database(db, 2)
        originals = dict(db.all_items())
        for part in parts:
            for oid, traj in part.all_items():
                assert traj is originals[oid]


def _u(oid, t):
    return ChangeDirection(oid, t, Vector.of(1.0, 0.0))


class TestBatchedUpdateApplier:
    def _applier(self, batch_size):
        applied = []
        applier = BatchedUpdateApplier(
            router=lambda u: shard_of(u.oid, 4),
            apply=lambda shard, batch: applied.append((shard, list(batch))),
            batch_size=batch_size,
        )
        return applier, applied

    def test_batch_size_one_flushes_every_submit(self):
        applier, applied = self._applier(1)
        assert applier.submit(_u("a", 1.0)) is True
        assert applier.submit(_u("b", 2.0)) is True
        assert applier.pending == 0
        assert len(applied) == 2
        assert applier.stats.flushes == 2

    def test_buffers_until_threshold(self):
        applier, applied = self._applier(3)
        assert applier.submit(_u("a", 1.0)) is False
        assert applier.submit(_u("b", 2.0)) is False
        assert applier.pending == 2
        assert applied == []
        assert applier.submit(_u("c", 3.0)) is True
        assert applier.pending == 0
        assert applier.stats.flushes == 1
        assert applier.stats.max_batch == 3

    def test_subbatches_preserve_chronological_order(self):
        applier, applied = self._applier(16)
        updates = [_u(f"o{i % 5}", float(i)) for i in range(12)]
        for update in updates:
            applier.submit(update)
        applier.flush()
        for shard, batch in applied:
            times = [u.time for u in batch]
            assert times == sorted(times), f"shard {shard} out of order"
            for u in batch:
                assert shard_of(u.oid, 4) == shard

    def test_flush_applies_shards_in_ascending_order(self):
        applier, applied = self._applier(64)
        for i in range(30):
            applier.submit(_u(f"x{i}", float(i)))
        applier.flush()
        shards = [shard for shard, _ in applied]
        assert shards == sorted(shards)

    def test_stats_account_for_everything(self):
        applier, _ = self._applier(4)
        for i in range(10):
            applier.submit(_u(f"o{i}", float(i)))
        applier.flush()
        stats = applier.stats
        assert stats.submitted == 10
        assert stats.applied == 10
        assert sum(stats.per_shard.values()) == 10
        assert stats.flushes == 3  # two automatic + one explicit
        assert stats.max_batch == 4

    def test_empty_flush_is_a_noop(self):
        applier, applied = self._applier(8)
        assert applier.flush() == 0
        assert applier.stats.flushes == 0
        assert applied == []

    def test_rejects_nonpositive_batch_size(self):
        with pytest.raises(ValueError):
            BatchedUpdateApplier(lambda u: 0, lambda s, b: None, batch_size=0)

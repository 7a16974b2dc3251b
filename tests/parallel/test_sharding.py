"""Unit tests for per-key update batching."""

import pytest

from repro.mod.updates import ChangeDirection
from repro.geometry.vectors import Vector
from repro.parallel.batching import BatchedUpdateApplier


def _u(oid, t):
    return ChangeDirection(oid, t, Vector.of(1.0, 0.0))


def _key(oid):
    """A deterministic four-way routing key (sum of the oid's bytes)."""
    return sum(oid.encode()) % 4


class TestBatchedUpdateApplier:
    def _applier(self, batch_size):
        applied = []
        applier = BatchedUpdateApplier(
            router=lambda u: _key(u.oid),
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
                assert _key(u.oid) == shard

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

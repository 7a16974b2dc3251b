"""Per-key batching of update streams.

Applying a chronological update stream one update at a time makes every
update pay its own pass over its destination.  Batching amortizes that:
updates are buffered as they arrive, grouped per destination key, and
each destination receives its sub-batch in one chronological pass —
destinations a batch never touches do no work at all.

The applier is deliberately dumb about *what* an application means: it
routes and groups, and a callback applies one destination's
chronological sub-batch.  A router may also *fan out*: returning a
``list`` of keys sends the same update to several destinations in one
buffered pass.  Keys are arbitrary sortable hashables.

No serving path batches any more (every engine group sweeps the source
MOD as each update is applied); the applier stays a standalone utility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Union

from repro.mod.updates import Update

__all__ = ["BatchStats", "BatchedUpdateApplier"]

ShardKey = Hashable


@dataclass
class BatchStats:
    """Batching counters for one applier."""

    submitted: int = 0
    flushes: int = 0
    applied: int = 0
    fanout: int = 0  # (key, update) applications; == applied sans fan-out
    max_batch: int = 0
    pending_high_water: int = 0  # deepest the buffer ever got
    shard_touches: int = 0  # sum over flushes of |shards touched|
    per_shard: Dict[ShardKey, int] = field(default_factory=dict)


class BatchedUpdateApplier:
    """Buffer updates and apply them per shard in chronological passes.

    Parameters
    ----------
    router:
        Maps an update to its owning shard key — or to a ``list`` of
        keys to fan the update out to several co-hosted destinations
        (an empty list drops it).  Any other return value, tuples
        included, is one key.
    apply:
        Called as ``apply(key, updates)`` with one destination's
        sub-batch in chronological order.
    batch_size:
        Flush automatically once this many updates are buffered.
        ``1`` degenerates to unbatched routing (every submit flushes);
        larger values amortize.
    """

    def __init__(
        self,
        router: Callable[[Update], Union[ShardKey, List[ShardKey]]],
        apply: Callable[[ShardKey, List[Update]], None],
        batch_size: int = 1,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._router = router
        self._apply = apply
        self._batch_size = batch_size
        self._pending: List[Update] = []
        self.stats = BatchStats()

    @property
    def batch_size(self) -> int:
        """The automatic flush threshold."""
        return self._batch_size

    @property
    def pending(self) -> int:
        """Updates buffered but not yet applied."""
        return len(self._pending)

    def submit(self, update: Update) -> bool:
        """Buffer one update; returns True when this submit flushed."""
        self.stats.submitted += 1
        self._pending.append(update)
        if len(self._pending) > self.stats.pending_high_water:
            self.stats.pending_high_water = len(self._pending)
        if len(self._pending) >= self._batch_size:
            self.flush()
            return True
        return False

    def flush(self) -> int:
        """Apply every buffered update, one pass per touched shard.

        The global stream is chronological, so each shard's sub-batch —
        which preserves arrival order — is chronological too.  Shards
        are applied in ascending index order; cross-shard order within
        a batch is immaterial because shard states are independent.
        Returns the number of updates applied.
        """
        if not self._pending:
            return 0
        batch, self._pending = self._pending, []
        grouped: Dict[ShardKey, List[Update]] = {}
        fanout = 0
        for update in batch:
            keys = self._router(update)
            if not isinstance(keys, list):
                keys = [keys]
            fanout += len(keys)
            for key in keys:
                grouped.setdefault(key, []).append(update)
        for shard in sorted(grouped):
            self._apply(shard, grouped[shard])
            self.stats.per_shard[shard] = self.stats.per_shard.get(
                shard, 0
            ) + len(grouped[shard])
        self.stats.flushes += 1
        self.stats.applied += len(batch)
        self.stats.fanout += fanout
        self.stats.max_batch = max(self.stats.max_batch, len(batch))
        self.stats.shard_touches += len(grouped)
        return len(batch)

"""Sharded plane-sweep evaluation with batched update application.

:class:`ShardedSweepEvaluator` is the engine facade over a one-tenant
:class:`~repro.server.group.EngineGroup`: the pool hash-partitions a
mirror of the MOD's objects across ``S`` slots — each a
:class:`~repro.sweep.live.LiveSweep` ordering the candidates of its own
shard — and merges the per-slot partial answers into exact global
answers (:mod:`repro.parallel.merge`), while the evaluator batches
incoming updates per shard
(:class:`~repro.parallel.batching.BatchedUpdateApplier`).  Semantics
are identical to the single-engine path: the differential suite in
``tests/parallel`` asserts answer equality against both the naive
baseline and a single :class:`SweepEngine` on hundreds of seeded
random scenarios.

The evaluator deliberately speaks the *engine facade* — ``on_update``,
``advance_to``, ``finalize``, ``current_time``, ``members``,
``answer()`` — so existing composition points need no changes:

- ``db.subscribe(evaluator.on_update)`` gives eager sharded
  maintenance, exactly like subscribing a single engine;
- :class:`~repro.core.api.ContinuousQuerySession` accepts it as both
  engine and view.

``self_heal=True`` enables *shard-granular* recovery: a failed shard is
rebuilt from the mirror at its ``tau`` while the other ``S - 1`` shards
keep their engines untouched, and the span before that rebuild is
answered as a past query when the evaluator is finalized.

Why this is fast: a pair of objects generates intersection events only
when co-sharded, so a uniform partition removes roughly a ``1 - 1/S``
fraction of the order changes from the Theorem 5 maintenance path;
batching additionally skips shards a batch never touches.  The merge
step is an ``O(k * shards)`` selection per instant, or a second-level
sweep over only the accumulated candidates for interval answers.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set

from repro.core.spec import QueryLike, QuerySpec
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ObjectId, Update
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation
from repro.parallel.batching import BatchedUpdateApplier
from repro.parallel.merge import select_top_k
from repro.parallel.sharding import shard_of
from repro.query.answers import Answer, SnapshotAnswer
from repro.server.group import EngineGroup

__all__ = ["ShardedSweepEvaluator"]


class ShardedSweepEvaluator:
    """Exact kNN / within / multiknn evaluation over hash-partitioned
    shard engines, with per-shard update batching.

    Construct with :meth:`knn`, :meth:`within`, or :meth:`multiknn`.
    Drive it exactly like a :class:`~repro.sweep.engine.SweepEngine`:
    feed updates (directly or via ``db.subscribe``), ``advance_to``
    query times, read :attr:`members`, and ``finalize()`` before
    reading the accumulated ``answer()``.

    Reads always observe every submitted update: the evaluator flushes
    its batch buffer before answering, so ``batch_size`` changes cost,
    never answers.
    """

    def __init__(
        self,
        db: MovingObjectDatabase,
        spec: QuerySpec,
        shards: int = 4,
        batch_size: int = 1,
        self_heal: bool = False,
        observe=None,
        curve_store=None,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self._spec = spec
        self._shards = int(shards)
        self._instr = as_instrumentation(observe)
        self._bind_metrics()
        # The mirror is the evaluator's authoritative full-universe MOD
        # and its pool's source: it validates updates before they are
        # routed, supplies a rebuilt shard's objects and the candidate
        # trajectories for the merge sweep.  (When the caller drives
        # updates through a source database the mirror simply tracks
        # it.)  The curve store is shared across the shard engines AND
        # the merge sweep: shards build curves for disjoint object
        # sets, while the merge layer re-hits the mirror's instances
        # when a candidate's trajectory never changed.
        self._mirror = db.clone()
        self._group = EngineGroup(
            0,
            self._mirror,
            spec.gdistance,
            self._shards,
            spec.constants,
            self._instr,
            curve_store,
            spec=spec,
        )
        if self_heal:
            self._group.heal = self._heal_shard
        self._applier = BatchedUpdateApplier(
            self._route, self._apply_shard, batch_size=batch_size
        )
        self._flushes_seen = 0
        self._applied_seen = 0
        self._clock = spec.lo
        self._finalized = False
        self._shutdown = False
        self._merged: Optional[Answer] = None
        self._final_ops: Optional[Dict[str, int]] = None
        self.rebuilds = 0
        self._g_shards.set(self._shards)

    def _bind_metrics(self) -> None:
        metrics = (self._instr or NULL_INSTRUMENTATION).metrics
        self._c_updates = metrics.counter(
            "sharded_updates_total",
            "Updates applied to shard engines.",
            labels=("shard",),
        )
        self._c_batches = metrics.counter(
            "sharded_batches_total", "Batch flushes performed."
        )
        self._c_rebuilds = metrics.counter(
            "sharded_shard_rebuilds_total",
            "Shard-granular engine rebuilds (self-healing).",
        )
        self._h_batch = metrics.histogram(
            "sharded_batch_size", "Updates applied per batch flush."
        )
        self._g_shards = metrics.gauge(
            "sharded_shard_count", "Shards of the sharded evaluator."
        )
        self._g_shard_ops = metrics.gauge(
            "sharded_shard_ops",
            "Primitive sweep operations per shard (set at finalize).",
            labels=("shard",),
        )

    # -- constructors -------------------------------------------------------
    @classmethod
    def _open(
        cls, db, spec: QuerySpec, until: float, start: Optional[float], **options
    ) -> "ShardedSweepEvaluator":
        lo = db.last_update_time if start is None else start
        return cls(db, spec.over(lo, until), **options)

    @classmethod
    def knn(
        cls,
        db: MovingObjectDatabase,
        query: QueryLike,
        k: int = 1,
        until: float = math.inf,
        start: Optional[float] = None,
        shards: int = 4,
        batch_size: int = 1,
        self_heal: bool = False,
        observe=None,
        curve_store=None,
    ) -> "ShardedSweepEvaluator":
        """A sharded continuous k-NN evaluator starting now (or at
        ``start``)."""
        return cls._open(
            db,
            QuerySpec.knn(query, k),
            until,
            start,
            shards=shards,
            batch_size=batch_size,
            self_heal=self_heal,
            observe=observe,
            curve_store=curve_store,
        )

    @classmethod
    def within(
        cls,
        db: MovingObjectDatabase,
        query: QueryLike,
        distance: float,
        until: float = math.inf,
        start: Optional[float] = None,
        shards: int = 4,
        batch_size: int = 1,
        self_heal: bool = False,
        observe=None,
        curve_store=None,
    ) -> "ShardedSweepEvaluator":
        """A sharded continuous within-range evaluator.

        As in :func:`repro.core.api.evaluate_within`, a trajectory or
        point query squares the threshold internally; a custom
        g-distance is compared against ``distance`` as-is.
        """
        return cls._open(
            db,
            QuerySpec.within(query, distance),
            until,
            start,
            shards=shards,
            batch_size=batch_size,
            self_heal=self_heal,
            observe=observe,
            curve_store=curve_store,
        )

    @classmethod
    def multiknn(
        cls,
        db: MovingObjectDatabase,
        query: QueryLike,
        ks: Sequence[int],
        until: float = math.inf,
        start: Optional[float] = None,
        shards: int = 4,
        batch_size: int = 1,
        self_heal: bool = False,
        observe=None,
        curve_store=None,
    ) -> "ShardedSweepEvaluator":
        """A sharded evaluator maintaining k-NN answers for several k
        values at once (shards sweep at ``max(ks)``)."""
        return cls._open(
            db,
            QuerySpec.multiknn(query, ks),
            until,
            start,
            shards=shards,
            batch_size=batch_size,
            self_heal=self_heal,
            observe=observe,
            curve_store=curve_store,
        )

    # -- inspection ---------------------------------------------------------
    @property
    def observe(self):
        """The evaluator's instrumentation (None when disabled)."""
        return self._instr

    @property
    def shards(self) -> int:
        """The number of shard engines."""
        return self._shards

    @property
    def current_time(self) -> float:
        """The evaluator's sweep position (max over routed times)."""
        return self._clock

    @property
    def batch_stats(self):
        """The applier's :class:`~repro.parallel.batching.BatchStats`."""
        return self._applier.stats

    @property
    def pending(self) -> int:
        """Updates buffered but not yet applied to shard engines."""
        return self._applier.pending

    def primitive_ops(self) -> int:
        """Total primitive sweep operations across shard engines."""
        return self.operation_counts()["total"]

    def operation_counts(self) -> Dict[str, int]:
        """Aggregated primitive-op breakdown across shard engines."""
        if self._final_ops is not None:
            return dict(self._final_ops)
        return _summed(e.operation_counts() for e in self._group.engines)

    # -- update path --------------------------------------------------------
    def _route(self, update: Update) -> int:
        return shard_of(update.oid, self._shards)

    def _apply_shard(self, shard: int, updates: List[Update]) -> None:
        self._group.apply(shard, updates)
        self._c_updates.labels(shard=str(shard)).inc(len(updates))

    def _heal_shard(self, shard: int, exc: BaseException) -> None:
        """The self-healing rule: rebuild the failed shard alone."""
        self._group.rebuild(shard)
        self.rebuilds += 1
        self._c_rebuilds.inc()

    def _sync_batch_metrics(self) -> None:
        stats = self._applier.stats
        if stats.flushes > self._flushes_seen:
            self._c_batches.inc(stats.flushes - self._flushes_seen)
            self._h_batch.observe(stats.applied - self._applied_seen)
            self._flushes_seen = stats.flushes
            self._applied_seen = stats.applied

    def on_update(self, update: Update) -> None:
        """Route one database update to its owning shard (batched).

        The mirror database validates first, so an update the
        single-engine path would reject never reaches a shard.  With
        batching the shard engines see the update at the next flush;
        every read flushes first, so answers are unaffected.
        """
        if self._finalized:
            raise RuntimeError("evaluator already finalized")
        self._mirror.apply(update)
        self._clock = min(max(self._clock, update.time), self._spec.hi)
        self._applier.submit(update)
        self._sync_batch_metrics()

    def flush(self) -> int:
        """Apply all buffered updates now; returns how many."""
        n = self._applier.flush()
        self._sync_batch_metrics()
        return n

    # -- probing ------------------------------------------------------------
    def advance_to(self, t: float) -> Set[ObjectId]:
        """Advance every shard sweep to ``t`` (never backwards) and
        return the current answer set."""
        if t < self._clock:
            raise ValueError(
                f"cannot sweep backwards: {t} < {self._clock}"
            )
        self.flush()
        self._clock = min(t, self._spec.hi)
        self._group.advance_to(self._clock)
        return self.members

    @property
    def members(self) -> Set[ObjectId]:
        """The current global answer set (for multiknn: at ``max(ks)``).

        This is the ``O(k * shards)`` instant merge: each shard
        contributes its current members with their g-distance values
        and a single selection yields the global answer.
        """
        self.flush()
        return self._spec.widest(self._group.members(self._spec))

    def members_for(self, k: int) -> Set[ObjectId]:
        """The current global k-NN answer for ``k``.

        Any ``k`` up to the spec's maintained k is exact: a globally
        top-k object is top-k in its own shard, and shard members are
        maintained at the spec's k (multiknn: ``max(ks)``).
        """
        if not self._spec.ranks:
            raise ValueError("members_for(k) is for knn/multiknn modes")
        maintained = self._spec.maintained_k
        if k > maintained:
            raise ValueError(
                f"k={k} exceeds the maintained k={maintained}"
            )
        self.flush()
        ranked = self._group.ranked(self._spec)
        return set(select_top_k(ranked, k, self._mirror))

    # -- teardown and answers -----------------------------------------------
    def finalize(self) -> None:
        """Finish every shard sweep at the current clock and merge.

        Idempotent, like :meth:`SweepEngine.finalize`.  Shard answers
        for interval semantics are merged exactly: within-range by
        disjoint union, k-NN by a second-level sweep over the
        accumulated candidate union (see :mod:`repro.parallel.merge`).
        """
        if self._finalized:
            return
        self.flush()
        self._finalized = True
        per_shard = self._group.finalize()
        spec = self._spec
        self._merged = self._group.partial(spec, spec.lo, self._clock)
        self._final_ops = _summed(per_shard)
        for i, counts in enumerate(per_shard):
            self._g_shard_ops.labels(shard=str(i)).set(counts["total"])
        self.shutdown()

    def run_to_end(self) -> None:
        """Sweep to the end of the query interval and finalize."""
        if not math.isfinite(self._spec.hi):
            raise ValueError("cannot run an unbounded interval to its end")
        self.advance_to(self._spec.hi)
        self.finalize()

    def answer(self, k: Optional[int] = None) -> SnapshotAnswer:
        """The merged global snapshot answer (after :meth:`finalize`).

        knn/within modes take no argument; multiknn mode requires one
        of the maintained k values.
        """
        if self._merged is None:
            raise RuntimeError(
                "the sweep has not been finalized; call finalize() first"
            )
        if self._spec.multi:
            if k is None:
                raise ValueError("multiknn mode: pass answer(k)")
        elif k is None or k in self._spec.ranks:
            return self._merged
        if k not in self._spec.ranks:
            raise KeyError(f"k={k} was not maintained")
        return self._merged[k]

    def answers(self) -> Dict[int, SnapshotAnswer]:
        """All maintained multiknn answers keyed by k (after finalize)."""
        if not self._spec.multi:
            raise ValueError("answers() is for multiknn mode")
        if self._merged is None:
            raise RuntimeError(
                "the sweep has not been finalized; call finalize() first"
            )
        return dict(self._merged)

    def shutdown(self) -> None:
        """Release the shard engines.

        Called automatically by :meth:`finalize`; safe to call early to
        abandon an evaluator without an answer."""
        if self._shutdown:
            return
        self._shutdown = True
        self._group.shutdown()


def _summed(counts) -> Dict[str, int]:
    """Per-op sums of several engines' op counts ("total" included)."""
    totals: Dict[str, int] = {}
    for engine_counts in counts:
        for op, n in engine_counts.items():
            totals[op] = totals.get(op, 0) + n
    return totals

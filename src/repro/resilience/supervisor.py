"""Self-healing continuous query sessions.

A :class:`~repro.core.api.ContinuousQuerySession` subscribes its sweep
engine directly to the database: one exception out of
:meth:`SweepEngine.on_update` propagates through
:meth:`MovingObjectDatabase.apply` and leaves a permanently wedged
engine attached to the listener list.  The canonical trigger is a
probe/update race: the caller advances the session to inspect the
answer "now", then an update arrives with a timestamp behind the
advanced sweep line — valid for the database, in the past for the
engine.

:class:`SupervisedQuerySession` puts an engine host
(:class:`~repro.parallel.backends.ShardRuntime`) between the database
and the engine instead.  When the engine throws, the host builds a
fresh engine and view from current database state, at the last
database timestamp (the broken engine is dropped whole — it advanced
without the update, so nothing it holds is trusted).  That rebuild is
exactly the paper's Theorem 5 initialization step — ``O(N log N)`` —
so a continuous query degrades to a re-initialization instead of
dying.  At :meth:`close` the span before the rebuild is answered as a
past query over the database's recorded history (Theorem 4) and
stitched to the live engine's answer, so the session's final
:class:`SnapshotAnswer` covers the whole session interval as if
nothing had failed.  The session itself adds
only what an operator sees of a heal: the counters in :attr:`stats`,
the ``supervisor_*_total`` metrics and the ``supervisor.rebuild`` span.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Set

from repro.core.spec import QueryLike, QuerySpec
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ObjectId
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation
from repro.parallel.backends import ShardRuntime
from repro.query.answers import SnapshotAnswer


@dataclass
class SupervisorStats:
    """Failure and recovery counters for one supervised session."""

    failures: int = 0
    rebuilds: int = 0


class SupervisedQuerySession:
    """A continuous k-NN / within-range session that survives engine
    failures by rebuilding from database state.

    Construct with :meth:`knn` or :meth:`within` (mirroring
    :class:`~repro.core.api.ContinuousQuerySession`).  The session's
    engine host — not the engine — subscribes to the database; engine
    exceptions are caught, counted in :attr:`stats`, and answered with
    a rebuild.
    """

    def __init__(
        self,
        db: MovingObjectDatabase,
        spec: QuerySpec,
        until: float = math.inf,
        start: Optional[float] = None,
        observe=None,
        cache=None,
        **sharding,
    ) -> None:
        self._db = db
        self.stats = SupervisorStats()
        self.observe = as_instrumentation(observe)
        obs = self.observe or NULL_INSTRUMENTATION
        self._tracer = obs.tracer
        self._c_failures = obs.metrics.counter(
            "supervisor_failures_total",
            "Engine exceptions caught by the supervising guard.",
        )
        self._c_rebuilds = obs.metrics.counter(
            "supervisor_rebuilds_total",
            "Engine rebuilds (Theorem 5 re-initializations).",
        )
        if cache is not None:
            cache.bind(db)
        self._closed = False
        self._host = ShardRuntime(
            db,
            spec.over(db.last_update_time if start is None else start, until),
            heal=True,
            observe=self.observe,
            curve_store=None if cache is None else cache.curves,
            healing=self._healing,
            **sharding,
        )

    # -- constructors -------------------------------------------------------
    @classmethod
    def knn(
        cls,
        db: MovingObjectDatabase,
        query: QueryLike,
        k: int = 1,
        until: float = math.inf,
        start: Optional[float] = None,
        observe=None,
        shards: Optional[int] = None,
        batch_size: int = 1,
        self_heal: bool = False,
        cache=None,
    ) -> "SupervisedQuerySession":
        """A supervised continuous k-NN session.

        ``observe`` is shared between the supervisor and every engine
        it builds, so counters keep aggregating across rebuilds.

        ``shards`` fronts a
        :class:`~repro.parallel.evaluator.ShardedSweepEvaluator`
        instead of a single engine: the supervisor's whole-session
        recovery then wraps shard-level parallelism, and
        ``self_heal=True`` additionally lets individual shards rebuild
        themselves without involving the supervisor at all.

        ``cache`` (a :class:`repro.cache.QueryCache`) shares its curve
        store with every engine the host builds, so a rebuild's
        Theorem 5 re-initialization re-hits the curves of untouched
        objects instead of reconstructing all ``N``.
        """
        return cls(
            db,
            QuerySpec.knn(query, k),
            until,
            start,
            observe,
            cache,
            shards=shards,
            batch_size=batch_size,
            self_heal=self_heal,
        )

    @classmethod
    def within(
        cls,
        db: MovingObjectDatabase,
        query: QueryLike,
        distance: float,
        until: float = math.inf,
        start: Optional[float] = None,
        observe=None,
        shards: Optional[int] = None,
        batch_size: int = 1,
        self_heal: bool = False,
        cache=None,
    ) -> "SupervisedQuerySession":
        """A supervised continuous within-range session.

        ``shards`` selects a sharded evaluator and ``cache`` shares a
        curve store across rebuilds, both as in :meth:`knn`.
        """
        return cls(
            db,
            QuerySpec.within(query, distance),
            until,
            start,
            observe,
            cache,
            shards=shards,
            batch_size=batch_size,
            self_heal=self_heal,
        )

    # -- live inspection ----------------------------------------------------
    @property
    def engine(self):
        """The engine currently in force (changes across rebuilds)."""
        return self._host.engine

    @property
    def current_time(self) -> float:
        """The current sweep position."""
        return self._host.current_time

    @property
    def members(self) -> Set[ObjectId]:
        """The current answer set."""
        return self._host.view.members

    # The engine and view in force live on the host; the fault-injection
    # tests reach them (and swap the view) under their old names.
    _engine = engine
    _view = property(
        lambda self: self._host.view,
        lambda self, view: setattr(self._host, "view", view),
    )

    # -- the heal, as an operator sees it -------------------------------------
    @contextmanager
    def _healing(self):
        """Entered by the host around each rebuild: one failure, one
        ``supervisor.rebuild`` span."""
        self.stats.failures += 1
        self._c_failures.inc()
        with self._tracer.span(
            "supervisor.rebuild",
            at=self._db.last_update_time,
            objects=self._db.object_count,
        ):
            yield
        self.stats.rebuilds += 1
        self._c_rebuilds.inc()

    # -- probing ------------------------------------------------------------
    def advance_to(self, t: float) -> Set[ObjectId]:
        """Advance the sweep (never backwards) and return the answer.

        A failure during event processing triggers the same rebuild as
        an update failure; the rebuilt engine is advanced to
        ``t`` before returning.
        """
        try:
            self._host.advance_to(t)
        except Exception:
            self._host.rebuild()
            self._host.advance_to(t)
        return self.members

    # -- teardown -----------------------------------------------------------
    def close(self, at: Optional[float] = None) -> SnapshotAnswer:
        """Detach and return the stitched whole-session answer.

        The result covers ``[session start, end]`` across every rebuild:
        per object, the union of its membership intervals before the
        last rebuild (a past query) and since (the live engine's).  The
        session is always
        detached from the database on return, even if finalization
        fails.
        """
        if self._closed:
            raise RuntimeError("session already closed")
        self._closed = True
        try:
            if at is not None:
                self._host.advance_to(at)
            return self._host.finalize(self._host.current_time)
        finally:
            self._host.close()

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

:class:`SupervisedQuerySession` is the one-tenant engine pool
(:class:`~repro.server.group.EngineGroup`) as the listener: the pool —
not the engine — subscribes to the database and sweeps each update,
and its engine faults (the one rule,
:func:`~repro.server.group.is_engine_fault`) the session answers by
rebuilding the pool from current database state, at the last database
timestamp (the broken engine is dropped whole — it advanced without the
update, so nothing it holds is trusted).  That rebuild is exactly the
paper's Theorem 5 initialization step — ``O(N log N)`` — so a
continuous query degrades to a re-initialization instead of dying.  At
:meth:`close` the pool answers the span before the rebuild as a past
query over the database's recorded history (Theorem 4) stitched to the
live answer, so the session's final :class:`SnapshotAnswer` covers the
whole session window as if nothing had failed.  The session itself
adds only what an operator sees of a heal: the counters in
:attr:`stats`, the ``supervisor_*_total`` metrics and the
``supervisor.rebuild`` span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Set

from repro.core.spec import QueryLike, QuerySpec
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ObjectId
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation
from repro.query.answers import SnapshotAnswer
from repro.server.group import EngineGroup


@dataclass
class SupervisorStats:
    """Failure and recovery counters for one supervised session."""

    failures: int = 0
    rebuilds: int = 0


class SupervisedQuerySession:
    """A continuous k-NN / within-range session that survives engine
    failures by rebuilding from database state.

    Construct with :meth:`knn` or :meth:`within` (mirroring
    :class:`~repro.core.api.ContinuousQuerySession`).  The pool — not
    the engine — subscribes to the database; engine faults are counted
    in :attr:`stats` and answered with a rebuild.
    """

    def __init__(
        self,
        db: MovingObjectDatabase,
        spec: QuerySpec,
        until: float = math.inf,
        start: Optional[float] = None,
        observe=None,
        cache=None,
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
        lo = db.last_update_time if start is None else start
        self._spec = spec.over(lo, until)
        self._group = EngineGroup(
            0,
            db,
            spec.gdistance,
            spec.constants,
            self.observe,
            None if cache is None else cache.curves,
            spec=self._spec,
        )
        self._group.heal = self._heal
        db.subscribe(self._group.apply)

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
        cache=None,
    ) -> "SupervisedQuerySession":
        """A supervised continuous k-NN session.

        ``observe`` is shared between the supervisor and every engine
        it builds, so counters keep aggregating across rebuilds.

        ``cache`` (a :class:`repro.cache.QueryCache`) shares its curve
        store with every engine the pool builds, so a rebuild's
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
        cache=None,
    ) -> "SupervisedQuerySession":
        """A supervised continuous within-range session; ``cache``
        shares a curve store across rebuilds as in :meth:`knn`."""
        return cls(
            db,
            QuerySpec.within(query, distance),
            until,
            start,
            observe,
            cache,
        )

    # -- live inspection ----------------------------------------------------
    @property
    def engine(self):
        """The live sweep in force (changes across rebuilds)."""
        return self._group.engine

    @property
    def current_time(self) -> float:
        """The current sweep position."""
        return self._group.current_time

    @property
    def members(self) -> Set[ObjectId]:
        """The current answer set."""
        return self._group.members(self._spec)

    # The engine and view in force live in the pool; the fault-injection
    # tests reach them (and swap the view) under their old names.
    _engine = engine

    @property
    def _view(self):
        return self._group._views[self._spec.view_key]

    @_view.setter
    def _view(self, view) -> None:
        self._group._views[self._spec.view_key] = view

    # -- the heal -------------------------------------------------------------
    def _heal(self, exc: BaseException) -> None:
        """The supervisor's rule for an engine fault: one failure, one
        ``supervisor.rebuild`` span around the rebuild of the pool at
        the database's ``tau``."""
        self.stats.failures += 1
        self._c_failures.inc()
        with self._tracer.span(
            "supervisor.rebuild",
            at=self._db.last_update_time,
            objects=self._db.object_count,
        ):
            self._group.rebuild()
        self.stats.rebuilds += 1
        self._c_rebuilds.inc()

    # -- probing ------------------------------------------------------------
    def advance_to(self, t: float) -> Set[ObjectId]:
        """Advance the sweep (never backwards) and return the answer.

        A failure during event processing triggers the same rebuild as
        an update failure; the rebuilt engine is advanced to ``t``
        before returning.
        """
        self._group.advance_to(t)
        return self.members

    # -- teardown -----------------------------------------------------------
    def close(self, at: Optional[float] = None) -> SnapshotAnswer:
        """Detach and return the stitched answer over exactly
        ``[session start, at]`` (default: the current sweep time).

        The answer covers the window across every rebuild: per object,
        the union of its membership intervals before the last rebuild
        (a past query) and since (the live engine's).  ``at`` behind
        the sweep clips the answer to it — never silently widened —
        and ``at`` before the session's start raises
        :class:`ValueError`.  The session is always detached from the
        database on return, even if finalization fails.
        """
        if self._closed:
            raise RuntimeError("session already closed")
        self._closed = True
        group = self._group
        try:
            if at is not None:
                group.advance_to(at)
            end = group.current_time if at is None else at
            if end < self._spec.lo:
                raise ValueError(
                    f"close(at={end}) precedes the session's start "
                    f"({self._spec.lo})"
                )
            group.finalize()
            return group.partial(self._spec, self._spec.lo, end)
        finally:
            self._db.unsubscribe(group.apply)
            group.shutdown()

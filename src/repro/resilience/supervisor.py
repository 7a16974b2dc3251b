"""Self-healing continuous query sessions.

A :class:`~repro.core.api.ContinuousQuerySession` is a one-tenant
engine pool (:class:`~repro.server.group.EngineGroup`) with no heal:
one exception out of the host propagates through
:meth:`MovingObjectDatabase.apply` and leaves the engine wedged.  The
canonical trigger is a probe/update race: the caller advances the
session to inspect the answer "now", then an update arrives with a
timestamp behind the advanced sweep line — valid for the database, in
the past for the engine.

:class:`SupervisedQuerySession` is that session with the pool's heal
set: its engine faults (the one rule,
:func:`~repro.server.group.is_engine_fault`) it answers by rebuilding
the pool from current database state, at the last database timestamp
(the broken engine is dropped whole — it advanced without the update,
so nothing it holds is trusted).  That rebuild is exactly the paper's
Theorem 5 initialization step — ``O(N log N)``, the pool's one birth
run again (DESIGN decision 31) — so a continuous query degrades to a
re-initialization instead of dying.  At close the pool answers the span
before its birth as a past query over the database's recorded history
(Theorem 4) stitched to the live answer, so the session's final
:class:`SnapshotAnswer` covers the whole session window as if nothing
had failed.  The subclass adds only what an operator sees of a heal:
the counters in :attr:`stats`, the ``supervisor_*_total`` metrics and
the ``supervisor.rebuild`` span.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.api import ContinuousQuerySession
from repro.obs.instrument import NULL_INSTRUMENTATION
from repro.server.group import EngineGroup


@dataclass
class SupervisorStats:
    """Failure and recovery counters for one supervised session."""

    failures: int = 0
    rebuilds: int = 0


class SupervisedQuerySession(ContinuousQuerySession):
    """A continuous k-NN / within-range session that survives engine
    failures by rebuilding from database state.

    Construct with :meth:`knn` or :meth:`within`, as a
    :class:`~repro.core.api.ContinuousQuerySession`; engine faults are
    counted in :attr:`stats` and answered with a rebuild, and
    ``observe`` keeps aggregating across rebuilds.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stats = SupervisorStats()
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
        self._group.heal = self._heal

    def _heal(self, group: EngineGroup, exc: BaseException) -> None:
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
            group.rebuild()
        self.stats.rebuilds += 1
        self._c_rebuilds.inc()

"""The engine host: one database's sweep state, and where it is healed.

An *engine host* (:class:`ShardRuntime`) owns one database's sweep
state and is the one place a broken engine is healed: re-run Theorem 5
initialization from the database, remember where the new engine began,
and answer what precedes it as a past query (Theorem 4) at the end —
the database keeps every trajectory's history, so no engine's
timelines are ever needed back.  A
:class:`~repro.resilience.supervisor.SupervisedQuerySession` holds one
over the caller's MOD; a sharded evaluator holds one per shard and
drives it with a small op protocol:

``apply(updates)``
    One chronological sub-batch of this shard's updates.
``advance_to(t)`` / ``members_with_values(t)``
    Clock ticks and instant answers (members paired with their current
    g-distance values, the inputs to the ``O(k * shards)`` merge).
``finalize(end)``
    Finish the sweep and return the stitched snapshot answer (a dict
    of answers per ``k`` in multiknn mode).
``rebuild()``
    Theorem 5 re-initialization from the host's own database state.
"""

from __future__ import annotations

import logging
from contextlib import nullcontext
from typing import Dict, List, Sequence, Tuple

from repro.core.api import _single_sweep, open_engine
from repro.core.spec import Answer, QuerySpec
from repro.geometry.intervals import Interval
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ObjectId, Update
from repro.parallel.merge import shard_candidates, stitch_answers

log = logging.getLogger(__name__)

__all__ = ["ShardRuntime"]


class ShardRuntime:
    """One database's engine and view, and the time they began.

    The host — not the engine — subscribes to the database, so an
    engine that throws on an update cannot stay wedged in the listener
    list.  With ``heal`` the failure is answered by :meth:`rebuild`;
    without, it propagates (the engine-facade contract an outer
    supervisor relies on).

    ``spec`` carries the sweep window; the engine is a
    :class:`~repro.sweep.live.LiveSweep` (one candidate engine per
    horizon; a re-plan and a heal are the same Theorem-5
    re-initialisation, but only a heal distrusts the old timeline), or
    with ``sharding`` (``shards=`` and friends) a sharded evaluator.
    ``healing`` is a context-manager factory entered around each
    rebuild — the owner's span and counters.
    """

    def __init__(
        self,
        db: MovingObjectDatabase,
        spec: QuerySpec,
        heal: bool = False,
        observe=None,
        curve_store=None,
        healing=nullcontext,
        **sharding,
    ) -> None:
        self._db = db
        self._spec = spec
        self._heal = heal
        self._healing = healing
        self._engine_options = dict(
            observe=observe, curve_store=curve_store, **sharding
        )
        self.failures = 0
        # Where the engine in force began: all a heal remembers.
        self._live_from = spec.lo
        self.engine, self.view = self._build(spec.lo)
        db.subscribe(self.on_update)

    def _build(self, start: float):
        return open_engine(
            self._db, self._spec.over(start, self._spec.hi), **self._engine_options
        )

    # -- inspection ---------------------------------------------------------
    @property
    def current_time(self) -> float:
        """The sweep's position."""
        return self.engine.current_time

    def operation_counts(self) -> Dict[str, int]:
        """The current engine's primitive-op breakdown."""
        return self.engine.operation_counts()

    # -- the op protocol ----------------------------------------------------
    def on_update(self, update: Update) -> None:
        """The guarding database listener."""
        try:
            self.engine.on_update(update)
        except Exception:
            if not self._heal:
                raise
            self.rebuild()

    def apply(self, updates: Sequence[Update]) -> int:
        """Apply one chronological sub-batch through the database.

        A healing host rebuilds on an engine failure and still applies
        the rest of the sub-batch — one poisoned update cannot wedge
        the shard or lose its neighbors.  Returns the number of healed
        failures.
        """
        before = self.failures
        for update in updates:
            self._db.apply(update)
        return self.failures - before

    def advance_to(self, t: float) -> None:
        """Advance the sweep (idempotent at the current time)."""
        if t > self.engine.current_time:
            self.engine.advance_to(t)

    def members_with_values(self, t: float) -> List[Tuple[ObjectId, float]]:
        """This shard's candidates for the instant merge at ``t``:
        current members paired with their g-distance values (a rank
        view's at its widest k; any smaller k's global answer selects
        from them — :func:`~repro.parallel.merge.shard_candidates`)."""
        self.advance_to(t)
        return shard_candidates(self._spec, self.engine, self.view, t)

    def finalize(self, end: float) -> Answer:
        """Finish the sweep at ``end`` and return the answer over the
        whole window.

        The engine in force answers ``[live_from, end]``.  After a
        rebuild, what precedes it is a past query over the database's
        recorded history (Theorem 4) — the same pruned one-shot sweep
        behind ``evaluate_*``, over the host's curve store."""
        self.advance_to(end)
        self.engine.finalize()
        pieces = []
        lo = self._spec.lo
        if self._live_from > lo:
            pieces.append(
                _single_sweep(
                    self._db,
                    self._spec,
                    Interval(lo, self._live_from),
                    self._engine_options["observe"],
                    self._engine_options["curve_store"],
                )
            )
        pieces.append(self._spec.answer(self.view))
        return stitch_answers(pieces, Interval(lo, end))

    def rebuild(self) -> None:
        """Replace a broken engine by Theorem 5 initialization at the
        database's ``tau`` (``O(n log n)`` at the host's size ``n``).

        Nothing is read back from the failed engine: it may have swept
        past ``tau`` without the update that broke it, and the database
        — which is authoritative — still holds everything before."""
        self.failures += 1
        now = self._db.last_update_time
        log.warning(
            "engine rebuilt at tau=%s over %d objects", now, self._db.object_count
        )
        with self._healing():
            abandon = getattr(self.engine, "shutdown", None)
            if abandon is not None:  # a sharded evaluator holds shard hosts
                abandon()
            self.engine, self.view = self._build(now)
        self._live_from = now

    def close(self) -> None:
        """Detach from the database."""
        self._db.unsubscribe(self.on_update)

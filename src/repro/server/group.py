"""One shared shard-engine pool serving many co-registered sessions.

Sessions grouped by (g-distance fingerprint, shard count, sentinel
constants) share *everything* below the answer-view layer: the shard
databases, the live sweeps, and — for sessions with identical
``(kind, params)`` — the views and answer timelines themselves.  Each
incoming update is therefore swept **once per group**, not once per
session: Theorem 5's ``O(m log N)`` maintenance cost is paid by the
group and amortized over all its tenants.  Each slot's sweep is a
:class:`~repro.sweep.live.LiveSweep`: it orders the candidates of the
widest k any tenant reads, for a horizon at a time, so ``m`` counts the
support changes among those and most updates are one bound check.

Per-session answers fall out by clipping: a session that joined at
``t0`` owns the shared timeline restricted to ``[t0, close]``, which
equals a fresh engine started at ``t0`` because snapshot memberships
open before ``t0`` clip to exactly the span a ``t0`` bootstrap would
have opened.

The knn/multiknn views require sentinel-free engines while within
views require their threshold among the engine's constants, so the
sentinel signature is part of the group key: all rank queries (knn +
multiknn, any k) co-tenant one sentinel-free pool, and within queries
group per threshold.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.spec import QuerySpec
from repro.geometry.intervals import Interval
from repro.gdist.base import GDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import Update
from repro.parallel.merge import (
    clip_answer,
    merge_answers,
    merge_members,
    shard_candidates,
)
from repro.parallel.sharding import partition_database
from repro.sweep.live import LiveSweep

__all__ = ["EngineGroup"]


class _Slot:
    """One shard: a private sub-database with its subscribed live
    candidate host."""

    __slots__ = ("db", "engine")

    def __init__(self, db: MovingObjectDatabase, engine: LiveSweep) -> None:
        self.db = db
        self.engine = engine


class EngineGroup:
    """Shared sweep state for all sessions of one (gdistance, shards,
    constants) equivalence class."""

    def __init__(
        self,
        gid: int,
        source: MovingObjectDatabase,
        gdistance: GDistance,
        shards: int,
        constants: Sequence[float] = (),
        observe=None,
        curve_store=None,
    ) -> None:
        self.gid = gid
        self.key = None  # set by the owning server (its group-map key)
        self.gdistance = gdistance
        self.shards = shards
        self._source = source
        self._constants = tuple(float(c) for c in constants)
        self._observe = observe
        self._curve_store = curve_store
        self._slots: List[_Slot] = []
        # Per view family (``QuerySpec.view_key``): one view per slot,
        # the attached-session count, and the spec that rebuilds them.
        self._views: Dict[Tuple, List] = {}
        self._refs: Dict[Tuple, int] = {}
        self._specs: Dict[Tuple, QuerySpec] = {}
        # A group is born at the source ``tau`` (all turns are at or
        # before it, so Theorem 5 initialization applies verbatim).
        self.clock = source.last_update_time
        self.epoch_start = self.clock
        self.failures = 0
        self.rebuilds = 0
        self._build(self.clock)

    # -- construction -----------------------------------------------------
    def _build(self, start: float) -> None:
        slots: List[_Slot] = []
        for part in partition_database(self._source, self.shards):
            engine = LiveSweep(
                part,
                self.gdistance,
                Interval.at_least(start),
                constants=self._constants,
                observe=self._observe,
                curve_store=self._curve_store,
            )
            part.subscribe(engine.on_update)
            slots.append(_Slot(part, engine))
        self._slots = slots

    # -- shared-view refcounting ------------------------------------------
    def acquire(self, spec: QuerySpec) -> None:
        """Attach one more session to ``spec``'s view family, building
        it (one view per slot, bootstrapped mid-sweep; a wider k than
        the slots' plans cover re-plans them) on first use."""
        key = spec.view_key
        if key not in self._views:
            self._views[key] = [slot.engine.attach(spec) for slot in self._slots]
            self._refs[key] = 0
            self._specs[key] = spec
        self._refs[key] += 1

    def release(self, spec: QuerySpec) -> None:
        """Detach one session; the last detach unhooks the views from
        the slots' sweeps so they stop paying per-event bookkeeping."""
        key = spec.view_key
        self._refs[key] -= 1
        if self._refs[key] <= 0:
            for slot in self._slots:
                slot.engine.detach(spec)
            del self._views[key]
            del self._refs[key]
            del self._specs[key]

    @property
    def tenant_count(self) -> int:
        """Total sessions currently attached across view families."""
        return sum(self._refs.values())

    @property
    def current_time(self) -> float:
        return self.clock

    # -- update and clock path --------------------------------------------
    def apply(self, shard: int, updates: Sequence[Update]) -> None:
        """Apply one shard's chronological sub-batch.

        Updates at or before the shard database's ``tau`` are skipped:
        the source stream is strictly chronological, so a stale time
        can only mean the slot was just rebuilt from the source MOD
        (which already contained the rest of the in-flight batch).
        """
        slot = self._slots[shard]
        for update in updates:
            if update.time <= slot.db.last_update_time:
                continue
            slot.db.apply(update)
            if update.time > self.clock:
                self.clock = update.time

    def advance_to(self, t: float) -> None:
        """Move the group clock (monotone) and bring every slot engine
        up to it."""
        if t > self.clock:
            self.clock = t
        for slot in self._slots:
            if self.clock > slot.engine.current_time:
                slot.engine.advance_to(self.clock)

    # -- instant answers ---------------------------------------------------
    def members(self, spec: QuerySpec):
        """The current answer of one view family at the group clock: a
        single slot's view read directly, several slots' candidates
        through the instant merge."""
        self.advance_to(self.clock)
        views = self._views[spec.view_key]
        if len(views) == 1:
            return spec.members(views[0])
        candidates = []
        for slot, view in zip(self._slots, views):
            candidates += shard_candidates(spec, slot.engine, view, self.clock)
        return merge_members(spec, candidates, self._source)

    # -- windowed answers --------------------------------------------------
    def partial(self, spec: QuerySpec, t0: float, end: float):
        """The exact answer of one view family over ``[t0, end]``,
        read non-destructively off the current epoch's timelines.

        Single-slot groups clip the shared timeline directly; sharded
        groups clip per-slot partials and run the window merge (within
        = disjoint union, knn/multiknn = second-level sweep), identical
        to the sharded evaluator's finalize path.
        """
        parts = [
            clip_answer(spec.partial(view, end), t0, end)
            for view in self._views[spec.view_key]
        ]
        if len(parts) == 1:
            return parts[0]
        return merge_answers(
            spec,
            self._source,
            Interval(t0, end),
            parts,
            observe=self._observe,
            curve_store=self._curve_store,
        )

    # -- heal (Theorem 5 re-initialization) --------------------------------
    def rebuild(self) -> None:
        """Rebuild every slot and view from the source MOD's current
        state — the supervisor's heal step at group granularity.

        The fresh engines start at the source ``tau`` (all turns are at
        or before it, so Theorem 5 initialization applies verbatim) and
        are immediately re-advanced to the group clock so tenants keep
        their monotone view of time."""
        now = self._source.last_update_time
        self._build(now)
        for key, spec in self._specs.items():
            self._views[key] = [slot.engine.attach(spec) for slot in self._slots]
        self.epoch_start = now
        self.rebuilds += 1
        if self.clock > now:
            for slot in self._slots:
                slot.engine.advance_to(self.clock)
        else:
            self.clock = now

    def primitive_ops(self) -> int:
        """Summed primitive operations — engine steps and the planner's
        bound checks — across the group's slots (resets on rebuild;
        consumers must clamp deltas)."""
        return sum(slot.engine.primitive_ops() for slot in self._slots)

    @property
    def replans(self) -> int:
        """Re-plans the slots' hosts have made since they were built."""
        return sum(slot.engine.replans for slot in self._slots)

    @property
    def candidates(self) -> int:
        """Objects the slots' engines in force order, in total."""
        return sum(slot.engine.candidates for slot in self._slots)

    def shutdown(self) -> None:
        """Drop all slots and views (quarantine/retire path).  The slot
        databases are private clones, so nothing external holds them."""
        self._slots = []
        self._views = {}
        self._refs = {}
        self._specs = {}

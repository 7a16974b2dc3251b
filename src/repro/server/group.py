"""The one engine pool: every live sweep a session, an evaluator or a
server hosts.

A pool partitions its *source* MOD into slots — one private shard
database each, with a subscribed live sweep (``core.api._live_host``
picks it: a :class:`~repro.sweep.live.LiveSweep` that orders the
candidates of the widest k any attached rank reading needs, a horizon
at a time, or for a range reading a
:class:`~repro.sweep.within.RangeSweep`, one record per curve) — and
hosts any number of view families over them.  A server group is the
many-tenant case: sessions grouped by (g-distance fingerprint, shard
count, range threshold) share *everything* below the answer-view
layer, and sessions with identical ``(kind, params)`` share the views
and answer timelines themselves, so each update is swept **once per
group**, not once per session.  A one-tenant pool (``spec=``) is what a
:class:`~repro.resilience.supervisor.SupervisedQuerySession` and a
:class:`~repro.parallel.evaluator.ShardedSweepEvaluator` hold: the same
slots over that spec's window, with the spec attached from birth.

Per-session answers fall out by clipping: a session that joined at
``t0`` owns the shared timeline restricted to ``[t0, close]``, which
equals a fresh engine started at ``t0`` because snapshot memberships
open before ``t0`` clip to exactly the span a ``t0`` bootstrap would
have opened.

**A heal is Theorem-5 initialisation run again** (DESIGN decision 16):
:meth:`EngineGroup.rebuild` re-opens one slot, or all, from the source
at its ``tau`` and keeps nothing of the failed engine but the slot's
birth.  What precedes the latest birth is answered in one place,
:meth:`EngineGroup.partial`, as one Theorem-4 past query over the
source; the slots answer the rest.  Which faults heal is one rule
(:func:`is_engine_fault`); what a heal rebuilds — one slot, every slot,
or nothing but a quarantine — is the owner's, set as
:attr:`EngineGroup.heal`.

A range host reads one threshold, so the threshold (``constants``) is
part of a server's group key: all rank queries (knn + multiknn, any k)
co-tenant one pool, and within queries group per threshold.  Curves are
shared across groups by the server's one curve store, not by a host.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.api import _evaluate, _live_host
from repro.core.spec import QuerySpec
from repro.geometry.intervals import Interval
from repro.gdist.base import GDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import Update
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation
from repro.obs.profile import NULL_STAGE, _stage
from repro.parallel.merge import (
    candidate_oids,
    clip_answer,
    merge_answers,
    merge_members,
    shard_candidates,
    stitch_answers,
)
from repro.parallel.sharding import partition_database
from repro.server.errors import ServerError

__all__ = ["ENGINE_FAULTS", "EngineGroup", "is_engine_fault"]

log = logging.getLogger(__name__)

# Exception types a failing sweep engine legitimately surfaces — only
# these engage an owner's heal.  Anything else (e.g. a ``TypeError``
# raised by a user-supplied g-distance callable, or a caller's bad
# argument) is a caller bug, not an engine fault, and propagates
# unchanged; the typed ``ServerError`` family is excluded explicitly
# because it subclasses ``RuntimeError``.
ENGINE_FAULTS = (
    ArithmeticError,
    AssertionError,
    LookupError,
    RuntimeError,
    ValueError,
)


def is_engine_fault(exc: BaseException) -> bool:
    """Whether ``exc`` is one a heal answers (the one fault rule)."""
    return isinstance(exc, ENGINE_FAULTS) and not isinstance(exc, ServerError)


class _Slot:
    """One shard: a private sub-database, its subscribed live sweep, and
    the time that sweep was born."""

    __slots__ = ("db", "engine", "born")

    def __init__(self, db: MovingObjectDatabase, engine, born: float) -> None:
        self.db = db
        self.engine = engine
        self.born = born


class EngineGroup:
    """Shared sweep state for all sessions of one (gdistance, shards,
    constants) equivalence class — or for one spec (``spec=``).

    ``heal`` is the owner's rule for an engine fault (see
    :func:`is_engine_fault`) raised in slot ``i``: ``heal(i, exc)``
    rebuilds what the owner decides, and the failed step runs once more
    on what the heal left — unless the heal retired the pool, when the
    fault propagates.  ``None`` (the default) lets every fault
    propagate.
    """

    def __init__(
        self,
        gid: int,
        source: MovingObjectDatabase,
        gdistance: GDistance,
        shards: int,
        constants: Sequence[float] = (),
        observe=None,
        curve_store=None,
        spec: Optional[QuerySpec] = None,
    ) -> None:
        self.gid = gid
        self.key = None  # set by the owning server (its group-map key)
        self.gdistance = gdistance
        self.shards = shards
        self.heal: Optional[Callable[[int, BaseException], None]] = None
        self._source = source
        self._constants = tuple(float(c) for c in constants)
        self._observe = observe
        instr = as_instrumentation(observe)
        self._profile = None if instr is None else instr.profile
        self._h_candidates = (instr or NULL_INSTRUMENTATION).metrics.histogram(
            "sharded_merge_candidates",
            "Candidate objects entering the merge sweep.",
        )
        self._curve_store = curve_store
        # Per view family (``QuerySpec.view_key``): one view per slot,
        # the attached-session count, and the spec that rebuilds them.
        self._views: Dict[Tuple, List] = {}
        self._refs: Dict[Tuple, int] = {}
        self._specs: Dict[Tuple, QuerySpec] = {}
        if spec is None:
            # A server group is born at the source ``tau`` (all turns
            # are at or before it, so Theorem 5 initialization applies
            # verbatim) and sweeps on for as long as it has tenants.
            self._window = Interval.at_least(source.last_update_time)
        else:
            self._window = Interval(spec.lo, spec.hi)
            self._specs[spec.view_key] = spec
            self._refs[spec.view_key] = 1
        self.clock = self._window.lo
        self.failures = 0
        self.rebuilds = 0
        opened = [
            self._open(i, part, self.clock)
            for i, part in enumerate(partition_database(source, shards))
        ]
        self._slots: List[_Slot] = [slot for slot, _ in opened]
        self._views = {
            key: [views[key] for _, views in opened] for key in self._specs
        }

    # -- construction -----------------------------------------------------
    def _open(self, i: int, db: MovingObjectDatabase, start: float):
        """Slot ``i`` over ``db``: a live sweep from ``start`` to the
        window's end, subscribed, with every view family attached."""
        with _stage(self._profile, "shard.init", shard=i):
            engine = _live_host(
                db,
                self.gdistance,
                Interval(start, self._window.hi),
                self._constants,
                self._observe,
                self._curve_store,
            )
            db.subscribe(engine.on_update)
            views = {key: engine.attach(spec) for key, spec in self._specs.items()}
        return _Slot(db, engine, start), views

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

    @property
    def epoch_start(self) -> float:
        """The latest slot birth: the slots cover the window from here
        on, and :meth:`partial` answers what precedes it as a past
        query."""
        return max((slot.born for slot in self._slots), default=self._window.lo)

    @property
    def engines(self) -> List:
        """The slots' live sweeps, in slot order (replaced by a
        rebuild)."""
        return [slot.engine for slot in self._slots]

    # -- the heal rule ----------------------------------------------------
    def _heals(self, i: int, exc: BaseException) -> bool:
        """Hand slot ``i``'s ``exc`` to the owner's heal; whether it
        took it."""
        if self.heal is None or not is_engine_fault(exc):
            return False
        self.heal(i, exc)
        return True

    def _at_clock(self, i: int, read=None, *args):
        """Bring slot ``i`` up to the clock, then ``read(i, *args)``.
        A rebuilt slot starts behind the clock and catches up here, on
        the next step that needs it, so an update between its birth and
        the clock is still in its future."""
        for retry in (False, True):
            try:
                engine = self._slots[i].engine
                if self.clock > engine.current_time:
                    engine.advance_to(self.clock)
                return None if read is None else read(i, *args)
            except ENGINE_FAULTS as exc:
                if retry or not self._heals(i, exc) or not self._slots:
                    raise

    # -- update and clock path --------------------------------------------
    def apply(self, shard: int, updates: Sequence[Update]) -> None:
        """Apply one shard's chronological sub-batch.

        Updates at or before the shard database's ``tau`` are skipped:
        the source stream is strictly chronological, so a stale time
        can only mean the slot was just rebuilt from the source MOD
        (which already contained the rest of the in-flight batch) — and
        that is also why a healed batch is not retried.
        """
        slot = self._slots[shard]
        try:
            for update in updates:
                if update.time <= slot.db.last_update_time:
                    continue
                slot.db.apply(update)
                if update.time > self.clock:
                    self.clock = min(update.time, self._window.hi)
        except ENGINE_FAULTS as exc:
            if not self._heals(shard, exc):
                raise

    def advance_to(self, t: float) -> None:
        """Move the group clock (monotone, never past the window) and
        bring every slot engine up to it."""
        if t > self.clock:
            self.clock = min(t, self._window.hi)
        for i in range(len(self._slots)):
            with _stage(self._profile, "shard.sweep", shard=i):
                self._at_clock(i)

    # -- instant answers ---------------------------------------------------
    def members(self, spec: QuerySpec):
        """The current answer of one view family at the group clock: a
        single slot's view read directly, several slots' candidates
        through the instant merge."""
        if len(self._slots) == 1:
            return self._at_clock(0, self._view_members, spec)
        return merge_members(spec, self.ranked(spec), self._source)

    def _view_members(self, i: int, spec: QuerySpec):
        return spec.members(self._views[spec.view_key][i])

    def ranked(self, spec: QuerySpec):
        """Every slot's current members paired with their g-distance at
        the clock — the instant merge's candidates (a rank view's at its
        widest k, from which every smaller k selects)."""
        pooled = []
        for i in range(len(self._slots)):
            with _stage(self._profile, "shard.sweep", shard=i):
                pooled += self._at_clock(i, self._candidates, spec)
        return pooled

    def _candidates(self, i: int, spec: QuerySpec):
        view = self._views[spec.view_key][i]
        return shard_candidates(spec, self._slots[i].engine, view, self.clock)

    # -- windowed answers --------------------------------------------------
    def partial(
        self, spec: QuerySpec, t0: float, end: float, cache=None, observe=None
    ):
        """The exact answer of one view family over ``[t0, end]`` (``end``
        never past the window), read non-destructively whatever was
        rebuilt.

        The slots are read at the clock — a timeline read before it
        could keep a membership open past it — from the latest slot
        birth on, several slots' readings through the window merge
        (within = disjoint union, knn/multiknn = second-level sweep).
        What precedes that birth (a session older than its engines: a
        restore or a heal came between) is one past query over the
        source, Theorem 4's, through ``cache`` and under ``observe``
        (default: the pool's) — never a piece of a failed engine, and
        shared by every session of one fingerprint through the cache.
        """
        end = min(end, self._window.hi)
        self.clock = max(self.clock, end)
        read = self.clock
        parts = [
            self._at_clock(i, self._read, spec, read)
            for i in range(len(self._slots))
        ]
        # Read the birth after the slots: a heal while reading moves it.
        born = max(t0, self.epoch_start)
        parts = [clip_answer(part, born, read) for part in parts]
        if len(parts) == 1:
            live = parts[0]
        else:
            with _stage(self._profile, "merge") as st:
                if spec.ranks:
                    count = len(candidate_oids([spec.widest(p) for p in parts]))
                    self._h_candidates.observe(count)
                    if st is not NULL_STAGE:
                        st.annotate(candidates=count)
                live = merge_answers(
                    spec,
                    self._source,
                    Interval(born, read),
                    parts,
                    observe=self._observe,
                    curve_store=self._curve_store,
                )
        segments = [live]
        if born > t0:
            past = Interval(t0, min(born, end))
            observe = self._observe if observe is None else observe
            segments.insert(
                0, _evaluate(self._source, spec, past, observe, cache=cache)
            )
        return clip_answer(stitch_answers(segments, Interval(t0, end)), t0, end)

    def _read(self, i: int, spec: QuerySpec, time: float):
        return spec.partial(self._views[spec.view_key][i], time)

    def finalize(self) -> List[Dict[str, int]]:
        """Finish every slot's sweep at the clock — the end of a
        one-tenant pool — and return each slot's op counts.  The
        catch-up heals like any step; a failing ``finalize`` itself is
        reported, not healed: it is the pool's last step."""
        counts = []
        for i in range(len(self._slots)):
            with _stage(self._profile, "shard.finalize", shard=i) as st:
                self._at_clock(i)
                engine = self._slots[i].engine
                engine.finalize()
                counts.append(engine.operation_counts())
                st.annotate(ops=counts[-1]["total"])
        return counts

    # -- heal (Theorem 5 re-initialization) --------------------------------
    def rebuild(self, slot: Optional[int] = None) -> None:
        """Rebuild slot ``slot`` — every slot when ``None`` — and its
        views from the source MOD's current state: a heal step.

        The fresh engines are born at the source ``tau`` (all turns are
        at or before it, so Theorem 5 initialization applies verbatim;
        ``O(n log n)`` at the rebuilt size ``n``) and catch up with the
        group clock on the next step that reads them, so tenants keep
        their monotone view of time.  Nothing is read back from a failed
        engine: it may have swept past ``tau`` without the update that
        broke it, and the source — which is authoritative — still holds
        everything before."""
        now = min(self._source.last_update_time, self._window.hi)
        parts = partition_database(self._source, self.shards)
        targets = range(len(self._slots)) if slot is None else (slot,)
        log.warning(
            "engine rebuilt at tau=%s over %d objects",
            now,
            sum(parts[i].object_count for i in targets),
        )
        for i in targets:
            self._slots[i], views = self._open(i, parts[i], now)
            for key, view in views.items():
                self._views[key][i] = view
        if self.clock < now:
            self.clock = now
        self.rebuilds += 1

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
        """Drop all slots and views (close / quarantine / retire path).
        The slot databases are private clones, so nothing external
        holds them."""
        self._slots = []
        self._views = {}
        self._refs = {}
        self._specs = {}

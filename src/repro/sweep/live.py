"""Live rank readings order only the curves under a bar: Theorem-5
maintenance of the top K over the members of a range reading.

Theorem 5 prices a continuing query at ``O(m log N)`` per update with
``m`` the support changes *of the query* (Lemma 8: nothing else moves
the answer).  A live engine over every curve of the database pays for
every inversion of the full order instead.  :class:`LiveSweep` is the
one host every live construction site builds for a rank reading —
sessions, and every engine pool — and it is two parts:

- a **bar** ``T``: the range reading ``{o : f_o(t) <= T}`` kept one
  curve at a time by :class:`~repro.sweep.within.RangeSweep`'s own
  records and event queue (each curve's next crossing of ``T``, jump or
  death);
- one :class:`~repro.sweep.engine.SweepEngine` over the bar's
  *members*, capped at ``K`` once it holds more than ``K + 2`` curves
  (DESIGN §4 decision 23), with ``K`` the widest k an attached reading
  maintains.  Readings attach to it as they would to any engine.

A curve that crosses down through ``T`` enters the engine at that
instant, as an object born there; one that crosses up leaves it.  While
at least ``K`` curves lie at or below ``T``, a curve above ``T`` lies
strictly above ``K`` curves, so the engine's top K is the database's:
no horizon, and no bound computed for any curve above the bar.

**The bar.**  At the first attach, and at every *re-bar*, ``T`` is the
``(K + _SPARE)``-th smallest value at the clock plus the relative
margin (:meth:`_Bar._level`).  A curve entering reaches the engine at
once; one leaving (a crossing, a jump or
``chdir`` taking it up, a death or ``terminate``) only at the end of its
instant.  There the bar is raised if fewer than ``K`` members are left
— at the first curve from the ``(K + _SPARE)``-th on that has not left
since the last re-bar, so that curves moving out together (tied, or
nearly) do not reach it a moment later, raise after raise — and every
curve it covers again stays in the engine as if it never left: its
entry, and so its place among exact ties, is the one it had.  So the
count never falls under ``K`` where a reading can see it.  The bar is
lowered once members exceed ``_CROWD`` times ``K + _SPARE``, and a
tenant with a wider k re-bars too.  A re-bar is the host's only ``O(N)`` step: it
re-derives every record against the new ``T`` — but a record whose
closest approach, read when it was last placed, still clears the new
``T`` keeps its decision — and never rebuilds the engine.  Fewer curves
than ``K + _SPARE`` make ``T`` infinite: every curve a member, nothing
crossing.

A tenant wider than a capped engine widens its cap
(:meth:`~repro.sweep.engine.SweepEngine.widen_cap`), so the host keeps
one engine for its whole life.

**Tail curves.**  A live engine never looks behind its clock, so every
curve the host builds is the trajectory's image from the clock on
(:meth:`~repro.cache.curve_store.CurveStore.tail`): an open at a fresh
query point costs the same on a MOD with twenty turns of history per
object as on one with none.  And it builds few: the bar draws ``T`` and
decides its records off reads of those tails in closed form
(:meth:`~repro.cache.curve_store.CurveStore.read`), so a curve is built
for a member the engine orders and a record the bounds leave
undecided, not for every live object.
"""

from __future__ import annotations

import heapq
import logging
import math
from typing import Dict, List, Optional, Set, Tuple

from repro.geometry.intervals import Interval
from repro.gdist.base import GDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New, ObjectId, Terminate, Update
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation
from repro.sweep.engine import SweepEngine, SweepStats
from repro.sweep.prune import _raised
from repro.sweep.within import _BIRTH, RangeSweep

__all__ = ["LiveSweep"]

log = logging.getLogger(__name__)

#: Members a re-bar keeps beyond the ``K`` the guarantee needs, so that
#: one crossing never forces the next raise.
_SPARE = 2

#: A re-bar lowers ``T`` once members exceed this many times
#: ``K + _SPARE`` (or what the last re-bar left, if more).
_CROWD = 3

REBAR_REASONS = ("raise", "lower", "tenant")


class _Members:
    """The member engine's database: at its birth the bar's members, in
    source insertion order; after that only trajectories, read straight
    off the source (an entering member, a member's ``chdir``)."""

    def __init__(self, source: MovingObjectDatabase, members: List[ObjectId]) -> None:
        self._source = source
        self.object_ids = members
        self.object_count = len(members)

    def trajectory(self, oid: ObjectId):
        return self._source.trajectory(oid)

    def all_items(self):
        return [(oid, self._source.trajectory(oid)) for oid in self.object_ids]


class _Bar(RangeSweep):
    """The range reading at the bar ``T``, whose members are what the
    host's engine orders.  Entries reach the engine at once; exits wait
    for the end of their instant (:meth:`_settle`), where a raise may
    take them back first."""

    def __init__(self, host: "LiveSweep", k: int, *args) -> None:
        self._host = host
        self._k = k
        self.count = 0
        self._leaving: List[ObjectId] = []
        # The records (by seq) that left since the last re-bar.
        self._gone: Set[int] = set()
        self.replans = 0
        metrics = (host.observe or NULL_INSTRUMENTATION).metrics
        rebars = metrics.counter(
            "sweep_replans_total",
            "Re-bars of live rank hosts, by what forced them: members "
            "leaving with fewer than K left (raise), members crowding the "
            "bar (lower), a tenant with a larger k (tenant).",
            labels=("reason",),
        )
        self._c_replans = {r: rebars.labels(reason=r) for r in REBAR_REASONS}
        super().__init__(*args)

    def member_ids(self) -> List[ObjectId]:
        """The members, in source insertion order."""
        return [oid for oid, record in self._records.items() if record.inside]

    def holds(self, oid: ObjectId) -> bool:
        record = self._records.get(oid)
        return record is not None and record.inside

    # -- membership -----------------------------------------------------------
    def _set(self, record, inside: bool, t: float) -> None:
        if inside == record.inside:
            return
        record.inside = inside
        if inside:
            self.count += 1
            if record.oid in self._leaving:  # back before it left the engine
                self._leaving.remove(record.oid)
            else:
                self._host._enter(record.oid, t)
        else:
            self.count -= 1
            self._leaving.append(record.oid)
            self._gone.add(record.seq)

    def _depart(self, record, t: float) -> None:
        self.stats.removals += 1
        self._set(record, False, t)
        del self._records[record.oid]

    # -- instants -----------------------------------------------------------------
    def _fire(self, record, t: float) -> None:
        super()._fire(record, t)
        queue = self._queue
        if not queue or queue.peek_time() > t:  # the instant's last event
            self._settle(t)

    def on_update(self, update: Update) -> None:
        super().on_update(update)
        self._settle(update.time)

    def _settle(self, t: float) -> None:
        """End the instant ``t``: raise the bar if its members went
        under ``K`` (taking back what it covers again), lower it if they
        crowd it, then take the exits out of the engine."""
        if self.count < self._k and self.threshold < math.inf:
            self.rebar(t, "raise")
        elif self.count > self._crowd:
            self.rebar(t, "lower")
        if self._leaving:
            leaving, self._leaving = self._leaving, []
            for oid in leaving:
                self._host._leave(oid, t)

    # -- the bar ----------------------------------------------------------------
    def _place_all(self, t: float, skip=frozenset()) -> None:
        """Draw ``T`` at ``t`` and decide every record met by ``t``
        afresh against it — except one whose closest approach, read at
        its last placement, still clears ``T``; a record not yet born
        keeps (or gets) its birth."""
        self._set_threshold(self._level(self._k + _SPARE, t, skip))
        for record in self._records.values():
            born = record.curve.domain.lo
            if born > t:
                if record.pending is None:
                    self._push(record, born, _BIRTH)
            elif record.floor is None or not self._clears(*record.floor):
                if record.pending is not None:
                    self._unqueue(record)
                self._place(record, t)
        # Curves tied at the bar may keep more members than it wants:
        # crowding is counted from what a re-bar leaves.
        self._crowd = _CROWD * max(self._k + _SPARE, self.count)

    def _level(self, n: int, t: float, skip=frozenset()) -> float:
        """The ``n``-th smallest value at ``t`` of the curves that live
        on past ``t`` — passing over, from the ``n``-th on, the records
        whose ``seq`` is in ``skip`` — raised by the relative margin, so
        that it and every curve below it are strictly under it; ``inf``
        with no such curve."""
        rows = []
        for record in self._records.values():
            curve = record.curve
            domain = curve.domain
            if domain.lo <= t < domain.hi:
                rows.append((curve.forward_taylor(t, 1)[0], record.seq, curve))
        rows = heapq.nsmallest(n + len(skip), rows)
        for value, seq, curve in rows[n - 1 :]:
            if seq not in skip:
                return _raised(value, curve.bounds(t, t)[2])
        return math.inf

    def rebar(self, t: float, reason: str, k: Optional[int] = None) -> None:
        """Draw ``T`` afresh at ``t`` (for readings up to ``k``) and
        re-decide every record against it."""
        if k is not None:
            self._k = k
        # A raise draws the bar at a curve that has not left since the
        # last re-bar: curves moving out together (tied, or nearly)
        # would otherwise hold each raise only until they reach it, a
        # moment later.
        gone, self._gone = self._gone, set()
        self._place_all(t, gone if reason == "raise" else frozenset())
        self.replans += 1
        self._c_replans[reason].inc()
        log.debug(
            "re-bar (%s) at tau=%s: T=%s, %d members of %d curves",
            reason,
            t,
            self.threshold,
            self.count,
            len(self._records),
        )


class LiveSweep:
    """A live rank sweep over ``db``: the engine facade (``on_update`` /
    ``advance_to`` / ``finalize`` / ``current_time`` / op counts) in
    front of a bar's records and one
    :class:`~repro.sweep.engine.SweepEngine` over its members.

    Takes what a ``SweepEngine`` takes.  :meth:`attach` a rank
    :class:`~repro.core.spec.QuerySpec` and read the view it returns (a
    view of the member engine): the host needs to know the widest k
    anyone reads to know where to draw the bar.
    """

    def __init__(
        self,
        db: MovingObjectDatabase,
        gdistance: GDistance,
        interval: Interval,
        observe=None,
        curve_store=None,
    ) -> None:
        if not gdistance.is_polynomial:
            raise TypeError(
                "the sweep engine requires a polynomial g-distance; wrap "
                "non-polynomial distances in PolynomialApproximation"
            )
        from repro.cache.curve_store import CurveStore  # imports repro.core

        self._db = db
        self._gdistance = gdistance
        self._interval = interval
        self._until = interval.hi
        self._store = curve_store if curve_store is not None else CurveStore()
        self.observe = as_instrumentation(observe)
        self._time = interval.lo  # the clock until a reading attaches
        self._updates = 0
        self._bar: Optional[_Bar] = None
        self._engine: Optional[SweepEngine] = None
        self._views: Dict[Tuple, object] = {}
        metrics = (self.observe or NULL_INSTRUMENTATION).metrics
        # One observation per update the host takes (its engine hears
        # few of them).
        self._h_update_ops = metrics.histogram(
            "sweep_update_primitive_ops",
            "Primitive operations (heap sifts, treap steps, flips) per "
            "applied update — the Corollary 6 quantity.",
        )
        metrics.gauge(
            "sweep_live_candidates",
            "Members of the live rank host's bar: the curves its engine "
            "orders (of whichever host bound the gauge last).",
        ).set_function(lambda: self.candidates)

    # -- inspection ---------------------------------------------------------
    @property
    def interval(self) -> Interval:
        """The query interval ``I``."""
        return self._interval

    @property
    def gdistance(self) -> GDistance:
        """The g-distance in force."""
        return self._gdistance

    @property
    def current_time(self) -> float:
        """The host's clock: its bar's, once a reading attached."""
        return self._time if self._bar is None else self._bar.current_time

    @property
    def engine(self) -> Optional[SweepEngine]:
        """The member engine (``None`` until a reading attaches): one
        for the host's whole life."""
        return self._engine

    @property
    def candidates(self) -> int:
        """How many curves the engine orders: the bar's members."""
        return 0 if self._bar is None else self._bar.count

    @property
    def replans(self) -> int:
        """Re-bars so far."""
        return 0 if self._bar is None else self._bar.replans

    @property
    def bound_checks(self) -> int:
        """Closest-approach and bound tests of the bar's records."""
        return 0 if self._bar is None else self._bar.bound_checks

    @property
    def stats(self) -> SweepStats:
        """The engine's event counts plus the bar's crossing tests;
        ``updates_applied`` counts the updates the *host* took, most of
        which the engine never had to see."""
        total = SweepStats()
        if self._engine is not None:
            total = SweepStats(**vars(self._engine.stats))
            total.flip_computations += self._bar.stats.flip_computations
        total.updates_applied = self._updates
        return total

    def operation_counts(self) -> Dict[str, int]:
        """Primitive operation counters of the engine and the bar (its
        queue, crossing tests and ``bound_checks``)."""
        counts: Dict[str, int] = {}
        for part in (self._engine, self._bar):
            if part is not None:
                for op, n in part.operation_counts().items():
                    counts[op] = counts.get(op, 0) + n
        counts.pop("total", None)
        counts.setdefault("bound_checks", 0)
        counts["total"] = sum(counts.values())
        return counts

    def primitive_ops(self) -> int:
        """Total primitive operations so far (see :meth:`operation_counts`)."""
        if self._engine is None:
            return 0
        return self._engine.primitive_ops() + self._bar.primitive_ops()

    def value(self, oid: ObjectId, t: float) -> float:
        """``oid``'s g-distance at ``t`` (at or after the clock)."""
        return self.curve(self._gdistance, oid, self._db.trajectory(oid))(t)

    def curve(self, gdistance: GDistance, oid: ObjectId, trajectory):
        """The curve-store face the engine builds through: the image of
        ``trajectory`` from the clock on."""
        return self._store.tail(gdistance, oid, trajectory, self.current_time)

    # -- readings -----------------------------------------------------------
    def attach(self, spec):
        """Start maintaining ``spec``'s reading from the clock on and
        return its view (the one already attached, if any).  A k wider
        than the bar's re-bars it, and widens the engine's cap if it
        has one."""
        key = spec.view_key
        view = self._views.get(key)
        if view is None:
            k = spec.maintained_k
            if self._bar is None:
                self._open(k)
            self._engine.widen_cap(k)
            view = self._views[key] = spec.view(self._engine)
            if k > self._bar._k:
                self._bar.rebar(self.current_time, "tenant", k)
        return view

    def detach(self, spec) -> None:
        """Stop maintaining ``spec``'s reading (unknown specs are a
        no-op).  The bar keeps its width."""
        view = self._views.pop(spec.view_key, None)
        if view is not None:
            self._engine.remove_listener(view)

    def _open(self, k: int) -> None:
        """The bar at the clock for readings up to ``k``, and the engine
        over its members: Theorem-5 initialisation over those only."""
        window = Interval(self._time, self._until)
        self._bar = _Bar(
            self,
            k,
            self._db,
            self._gdistance,
            window,
            math.inf,
            self.observe,
            self._store,
        )
        self._engine = SweepEngine(
            _Members(self._db, self._bar.member_ids()),
            self._gdistance,
            window,
            observe=self.observe,
            curve_store=self,
        )

    def _enter(self, oid: ObjectId, t: float) -> None:
        """A curve comes under the bar: to the engine it is an object
        born at ``t`` (at the open the engine is built over them)."""
        if self._engine is not None:
            piece = self._db.trajectory(oid).pieces[-1]
            self._engine.apply(New(oid, t, piece.velocity, piece.position_unchecked(t)))

    def _leave(self, oid: ObjectId, t: float) -> None:
        self._engine.apply(Terminate(oid, t))

    # -- the clock ------------------------------------------------------------
    def advance_to(self, t: float) -> None:
        """Process all events with time ``<= t`` and move the clock to
        ``t`` (clamped to the interval's end)."""
        if t < self.current_time:
            raise ValueError(
                f"cannot sweep backwards: {t} < {self.current_time}"
            )
        t = min(t, self._until)
        if self._bar is None:
            self._time = t
            return
        self._bar.advance_to(t)
        self._engine.advance_to(t)

    def finalize(self) -> None:
        """Close every attached reading at the clock (idempotent)."""
        if self._engine is not None:
            self._engine.finalize()

    # -- updates ----------------------------------------------------------------
    def on_update(self, update: Update) -> None:
        """Apply a database update at its timestamp; the database must
        already reflect it (subscribe the host to the database, or
        apply updates to the database first)."""
        t = update.time
        if t < self.current_time:
            raise ValueError(
                f"update at {t} is in the sweep's past "
                f"(current time {self.current_time})"
            )
        if t > self._until:
            # Beyond the query interval: it cannot affect the answer.
            self.advance_to(self._until)
            return
        self._updates += 1
        bar = self._bar
        if bar is None:
            self._time = t
            return
        ops = self.primitive_ops() if self.observe is not None else 0
        if isinstance(update, ChangeDirection):
            bar.advance_to(t)
            if bar.holds(update.oid):
                self._engine.apply(update)
        bar.on_update(update)
        self._engine.advance_to(t)  # what its readings read is the clock's
        if self.observe is not None:
            self._h_update_ops.observe(self.primitive_ops() - ops)

"""The continuous range reading: objects with g-distance at most a constant.

Realizes queries like "all flights within 50 km of Flight 623 from tau1
to tau2" (Example 11): with the squared Euclidean g-distance and the
constant ``c = 50**2``, an object is in while ``f_o(t) <= c``.

Whether that holds involves one curve at a time, so the reading every
session, engine-pool slot and one-shot builds, :class:`RangeSweep`,
keeps no order: one record per curve — its tail curve, whether it is
in, and its one pending event (the next crossing of ``c``, value jump
or death) — in one event queue.  An update touches one record.  A
crossing is the flip kernel against the constant curve with the
arguments a full-order engine gives the object's pair with ``c``'s
sentinel (:func:`~repro.sweep.engine.next_flip`), and in-or-out at a
birth, ``new``, jump or ``chdir`` is the order's own key compared with
``c``'s, so membership endpoints are the full order's floats.

:class:`ContinuousWithin` is the same reading as a view of that full
order: a :class:`~repro.sweep.engine.SweepEngine` carrying ``c`` as a
sentinel curve, membership being ordered below it — every entry or
exit an adjacent transposition with the sentinel, the paper's
extension of the precedence relation to real numbers.  It is the
reference the range host is held to.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Optional, Set, Tuple

from repro.geometry.intervals import Interval
from repro.geometry.piecewise import ClosedForm, PiecewiseFunction
from repro.gdist.base import GDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import New, ObjectId, Terminate, Update
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation
from repro.query.answers import AnswerTimeline, SnapshotAnswer
from repro.sweep.curves import CurveEntry
from repro.sweep.engine import SweepEngine, SweepStats, next_flip
from repro.sweep.event_queue import IndexedEventQueue, IntersectionEvent
from repro.sweep.knn import bind_support_counters
from repro.sweep.prune import _REL_MARGIN

_BIRTH, _CROSS, _JUMP, _DEATH = "birth", "cross", "jump", "death"


class _Record:
    """One curve of a range host: the trajectory and the instant
    ``since`` it was (re)read at, its tail from then as the curve store
    gave it to read (:meth:`~repro.cache.curve_store.CurveStore.read`),
    whether it is in, its value jumps still ahead (``None`` until the
    curve is built), the kind of its one queued event, and — when its
    bounds put it above the threshold for good — the ``(minimum,
    magnitude)`` they read (a live rank host's re-bar keeps the decision
    of a record whose minimum clears the new threshold)."""

    __slots__ = ("oid", "seq", "trajectory", "since", "curve", "inside", "jumps", "pending", "floor")

    def __init__(self, oid: ObjectId, seq: int, trajectory, since: float, curve) -> None:
        self.oid = oid
        self.seq = seq
        self.trajectory = trajectory
        self.since = since
        self.curve = curve
        self.inside = False
        self.jumps: Optional[Tuple[float, ...]] = None
        self.pending: Optional[str] = None
        self.floor: Optional[Tuple[float, float]] = None


class RangeSweep:
    """``{o : f_o(t) <= threshold}`` over ``db``, one curve at a time.

    Speaks the live-sweep facade (``on_update`` / ``advance_to`` /
    ``finalize`` / ``current_time`` / ``value`` / op counts /
    ``attach``) and is its own view (``members`` / ``answer`` /
    ``partial_answer``).  Over a bounded window a curve whose
    :meth:`~repro.geometry.piecewise.PiecewiseFunction.bounds` for the
    rest of it lie strictly on one side of the threshold (beyond
    :mod:`repro.sweep.prune`'s relative margin) is decided by them, with
    no crossing computed and no jump queued: only its death can still
    close it.  Over an open-ended window the same holds above the
    threshold for a curve whose closest approach stays beyond it.
    Those reads come from :meth:`~repro.cache.curve_store.CurveStore.
    read` (in closed form where the g-distance has one), so a decided
    curve is never built: a record builds its curve only for a
    crossing, a jump or the order key.

    A live rank host (:class:`~repro.sweep.live.LiveSweep`) is these
    records at a moving threshold, its bar.
    """

    #: A range reading has no plan: nothing to re-plan, nothing to
    #: bound beyond the curve at hand.
    replans = 0

    def __init__(
        self,
        db: MovingObjectDatabase,
        gdistance: GDistance,
        interval: Interval,
        threshold: float,
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
        self._set_threshold(threshold)
        self._store = curve_store if curve_store is not None else CurveStore()
        self.observe = as_instrumentation(observe)
        self.current_time = interval.lo
        self.stats = SweepStats()
        self.bound_checks = 0
        self._seq = itertools.count()
        self._queue = IndexedEventQueue()
        self._records: Dict[ObjectId, _Record] = {}
        self._queued: Dict[int, _Record] = {}
        self._timeline = AnswerTimeline(interval)
        self._result: Optional[SnapshotAnswer] = None
        obs = self.observe or NULL_INSTRUMENTATION
        events = obs.metrics.counter(
            "sweep_events_total",
            "Sweep-loop events processed, by kind.",
            labels=("kind",),
        )
        self._c_crossing = events.labels(kind="intersection")
        self._c_membership = events.labels(kind="membership")
        self._c_update = events.labels(kind="update")
        self._c_flips = obs.metrics.counter(
            "sweep_flip_computations_total",
            "Neighbor-pair first-flip computations (event scheduling).",
        )
        self._c_enter, self._c_leave = bind_support_counters(self, "within")
        t = interval.lo
        with obs.tracer.span("sweep.init", objects=db.object_count) as span:
            for oid, trajectory in db.all_items():
                domain = trajectory._domain  # the property, without its call
                if domain.hi < t or domain.lo > self._until:
                    continue
                self._record(oid, trajectory, t)
            self._place_all(t)
            span.set_attribute("queued_events", len(self._queue))

    def _set_threshold(self, threshold: float) -> None:
        self.threshold = float(threshold)
        if self.threshold < math.inf:  # ``inf`` holds every curve: no crossing
            self._line = CurveEntry.for_constant(self.threshold).curve
            # The sentinel's order key: the same at every instant.
            self._key = self._line.forward_taylor(0.0)

    # -- inspection ---------------------------------------------------------
    @property
    def objects(self) -> int:
        """Curves the host holds a record of (met, not yet departed)."""
        return len(self._records)

    @property
    def candidates(self) -> int:
        """Curves whose membership may still change: one event queued each."""
        return len(self._queue)

    def operation_counts(self) -> Dict[str, int]:
        """Queue operations, flip computations and bound checks."""
        counts = self._queue.operation_counts()
        counts["flip_computations"] = self.stats.flip_computations
        counts["bound_checks"] = self.bound_checks
        counts["total"] = sum(counts.values())
        return counts

    def primitive_ops(self) -> int:
        """Total primitive operations so far (see :meth:`operation_counts`)."""
        queue = self._queue
        return (
            queue.pushes
            + queue.pops
            + queue.removes
            + queue.sift_steps
            + self.stats.flip_computations
            + self.bound_checks
        )

    def value(self, oid: ObjectId, t: float) -> float:
        """``oid``'s g-distance at ``t`` (at or after the clock)."""
        trajectory = self._db.trajectory(oid)
        return self._store.tail(self._gdistance, oid, trajectory, self.current_time)(t)

    # -- the view -----------------------------------------------------------
    def attach(self, spec) -> "RangeSweep":
        """The host is its own view of ``spec`` (a range reading of its
        threshold)."""
        return self

    def detach(self, spec) -> None:
        """Nothing to detach: the reading is the host."""

    @property
    def members(self) -> Set[ObjectId]:
        """The current answer set."""
        return self._timeline.open_objects

    def answer(self) -> SnapshotAnswer:
        """The snapshot answer (after :meth:`finalize`)."""
        if self._result is None:
            raise RuntimeError(
                "the sweep has not been finalized; call finalize() first"
            )
        return self._result

    def partial_answer(self, time: float) -> SnapshotAnswer:
        """The answer accumulated up to ``time``, without finalizing
        (the host must already have been advanced to ``time``)."""
        return self._timeline.snapshot(time)

    # -- the clock ------------------------------------------------------------
    def advance_to(self, t: float) -> None:
        """Process all events with time ``<= t`` and move the clock to
        ``t`` (clamped to the interval's end)."""
        if t < self.current_time:
            raise ValueError(
                f"cannot sweep backwards: {t} < {self.current_time}"
            )
        t = min(t, self._until)
        queue = self._queue
        while queue and queue.peek_time() <= t:
            event = queue.pop()
            record = self._queued.pop(event.key)
            self.current_time = event.time
            self._fire(record, event.time)
        self.current_time = t

    def finalize(self) -> None:
        """Close the reading at the clock (idempotent)."""
        if self._result is None:
            self._timeline.finalize(self.current_time)
            self._result = self._timeline.result()

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
        self.advance_to(t)
        self.stats.updates_applied += 1
        self._c_update.inc()
        oid = update.oid
        record = self._records.get(oid)
        if isinstance(update, New):
            if record is not None:
                raise ValueError(f"object {oid!r} already swept")
            self.stats.insertions += 1
            record = self._record(oid, self._db.trajectory(oid), t)
        elif record is None:
            raise KeyError(f"unknown object {oid!r}")
        else:
            self._unqueue(record)
            if isinstance(update, Terminate):
                self._depart(record, t)
                return
            self.stats.curve_replacements += 1
            self._reread(record, self._db.trajectory(oid), t)
        self._place(record, t)

    # -- records ------------------------------------------------------------------
    def _record(self, oid: ObjectId, trajectory, t: float) -> _Record:
        read = self._store.read(self._gdistance, oid, trajectory, t)
        record = self._records[oid] = _Record(oid, next(self._seq), trajectory, t, read)
        return record

    def _reread(self, record: _Record, trajectory, t: float) -> None:
        """Give ``record`` the image of ``trajectory`` from ``t`` on to
        read."""
        record.trajectory, record.since = trajectory, t
        record.curve = self._store.read(self._gdistance, record.oid, trajectory, t)
        record.jumps = None

    def _curve(self, record: _Record) -> PiecewiseFunction:
        """``record``'s curve, built on first need as ``tail`` from its
        ``since``, and its value jumps ahead in the window from then."""
        curve = record.curve
        if type(curve) is ClosedForm:
            curve = record.curve = self._store.tail(
                self._gdistance, record.oid, record.trajectory, record.since
            )
        if record.jumps is None:
            record.jumps = ()
            if curve.piece_count > 1:
                record.jumps = tuple(
                    [j for j in curve.discontinuities() if record.since < j <= self._until]
                )
        return curve

    def _place_all(self, t: float) -> None:
        """Decide every record met by ``t`` and queue its next event; a
        record not yet born gets its birth."""
        for record in self._records.values():
            born = record.curve.domain.lo
            if born > t:
                self._push(record, born, _BIRTH)
            else:
                self._place(record, t)

    def _place(self, record: _Record, t: float) -> None:
        """Decide ``record`` at ``t`` and queue its next event.  A curve
        the bounds put on one side for the rest of the window is
        decided by them; any other by key — the order's closed
        comparison with the constant: in on a tie."""
        side = self._side(record, t)
        if side:
            inside = side < 0
        else:
            inside = self._curve(record).forward_taylor(t) <= self._key
        if inside != record.inside:
            self._set(record, inside, t)
        self._schedule(record, t, side)

    def _set(self, record: _Record, inside: bool, t: float) -> None:
        if inside != record.inside:
            record.inside = inside
            if inside:
                self._timeline.open(record.oid, t)
                self._c_enter.inc()
            else:
                self._timeline.close(record.oid, t)
                self._c_leave.inc()

    def _depart(self, record: _Record, t: float) -> None:
        self.stats.removals += 1
        self._set(record, False, t)
        del self._records[record.oid]

    def _side(self, record: _Record, t: float) -> int:
        """Where ``record``'s curve lies against the threshold over
        ``[t, until]`` by its bounds: ``-1`` below and ``1`` above it
        throughout, beyond the relative margin (then ``record.floor``
        keeps what they read); ``0`` when it may meet it.  Over an
        open-ended window only "above" is read, off the curve's closest
        approach for the rest of its life
        (:meth:`~repro.geometry.piecewise.PiecewiseFunction.floor`): a
        shape without a closed-form minimum may meet it."""
        record.floor = None
        c = self.threshold
        if c == math.inf:
            return -1
        if t == -math.inf:
            return 0
        curve = record.curve
        if self._until < math.inf:
            vmin, vmax, magnitude = curve.bounds(t, self._until)
        else:
            floor = curve.floor(t)
            if floor is None:
                return 0
            (vmin, magnitude), vmax = floor, math.inf
        self.bound_checks += 1
        if vmax < c - _REL_MARGIN * (magnitude + abs(c)):
            return -1
        if not self._clears(vmin, magnitude):
            return 0
        record.floor = (vmin, magnitude)
        return 1

    def _clears(self, vmin: float, magnitude: float) -> bool:
        """Whether a minimum read at ``magnitude`` lies above the
        threshold beyond the relative margin."""
        c = self.threshold
        return vmin > c + _REL_MARGIN * (magnitude + abs(c))

    def _schedule(
        self, record: _Record, t: float, side: int, allow_immediate=True
    ) -> None:
        """Queue ``record``'s next event after ``t``: the earliest of its
        death and — unless it lies on one ``side`` for the rest of the
        window — its next jump and its next crossing (a crossing first
        on a tie, as the full order swaps before it re-inserts or
        removes)."""
        end = record.curve.domain.hi
        when = kind = None
        if end <= self._until and end < math.inf:
            when, kind = end, _DEATH
        if not side:
            curve = self._curve(record)
            if record.jumps:
                when, kind = record.jumps[0], _JUMP
            self.stats.flip_computations += 1
            self._c_flips.inc()
            if record.inside:
                flip = next_flip(curve, self._line, t, self._until, allow_immediate)
            else:
                flip = next_flip(self._line, curve, t, self._until, allow_immediate)
            if flip is not None and (when is None or flip <= when):
                when, kind = flip, _CROSS
        if kind is not None:
            self._push(record, when, kind)

    def _push(self, record: _Record, when: float, kind: str) -> None:
        record.pending = kind
        self._queued[record.seq] = record
        self._queue.push(IntersectionEvent(when, record.seq))

    def _unqueue(self, record: _Record) -> None:
        if self._queued.pop(record.seq, None) is not None:
            self._queue.remove(record.seq)

    def _fire(self, record: _Record, t: float) -> None:
        kind = record.pending
        record.pending = None
        if kind == _CROSS:
            self.stats.intersections_processed += 1
            self.stats.swaps += 1
            self._c_crossing.inc()
            self._set(record, not record.inside, t)
            # At its crossing a curve meets the threshold, so its bounds
            # cannot put it on one side; and the crossing just taken must
            # not fire again from the root's rounding sliver (the
            # engine's rule for a swapped pair).
            self._schedule(record, t, 0, allow_immediate=False)
            return
        self._c_membership.inc()
        if kind == _DEATH:
            self._depart(record, t)
            return
        if kind == _JUMP:
            record.jumps = record.jumps[1:]
            self.stats.reinsertions += 1
        else:
            self.stats.insertions += 1
        self._place(record, t)


class ContinuousWithin:
    """Maintain ``{o : f_o(t) <= threshold}`` over the sweep.

    The engine must have been constructed with ``threshold`` among its
    constants (so the sentinel participates in the order from the
    start) and a single identity time term.
    """

    def __init__(self, engine: SweepEngine, threshold: float) -> None:
        self._engine = engine
        self._sentinel = engine.sentinel_for(float(threshold))
        self._members: Set[ObjectId] = set()
        self._timeline = AnswerTimeline(
            Interval(engine.current_time, engine.interval.hi)
        )
        self._result: Optional[SnapshotAnswer] = None
        self._c_enter, self._c_leave = bind_support_counters(engine, "within")
        engine.add_listener(self)
        self._bootstrap()

    def _bootstrap(self) -> None:
        t = self._engine.current_time
        for entry in self._engine.order:
            if entry is self._sentinel:
                break
            if entry.is_object:
                self._enter(entry.oid, t)

    @property
    def threshold(self) -> float:
        """The range threshold (in g-distance units)."""
        return self._sentinel.constant

    @property
    def members(self) -> Set[ObjectId]:
        """The current within-range answer set."""
        return set(self._members)

    # -- listener protocol ----------------------------------------------
    def on_swap(self, time: float, lower: CurveEntry, upper: CurveEntry) -> None:
        if lower is self._sentinel and upper.is_object:
            # The sentinel moved below the object: the object left range.
            self._leave(upper.oid, time)
        elif upper is self._sentinel and lower.is_object:
            # The object moved below the sentinel: it entered range.
            self._enter(lower.oid, time)

    def on_insert(self, time: float, entry: CurveEntry) -> None:
        if entry.is_object and self._is_below_sentinel(entry):
            self._enter(entry.oid, time)

    def on_remove(self, time: float, entry: CurveEntry) -> None:
        if entry.is_object and entry.oid in self._members:
            self._leave(entry.oid, time)

    def on_finalize(self, time: float) -> None:
        self._timeline.finalize(time)
        self._result = self._timeline.result()

    def _is_below_sentinel(self, entry: CurveEntry) -> bool:
        return self._engine.rank_of(entry) < self._engine.rank_of(self._sentinel)

    # -- membership bookkeeping ----------------------------------------------
    def _enter(self, oid: ObjectId, time: float) -> None:
        if oid not in self._members:
            self._members.add(oid)
            self._timeline.open(oid, time)
            self._c_enter.inc()

    def _leave(self, oid: ObjectId, time: float) -> None:
        if oid in self._members:
            self._members.discard(oid)
            self._timeline.close(oid, time)
            self._c_leave.inc()

    def answer(self) -> SnapshotAnswer:
        """The snapshot answer (after the engine has been finalized)."""
        if self._result is None:
            raise RuntimeError(
                "the sweep has not been finalized; call engine.run_to_end()"
                " or engine.finalize() first"
            )
        return self._result

    def partial_answer(self, time: float) -> SnapshotAnswer:
        """The answer accumulated up to ``time``, without finalizing
        (see :meth:`ContinuousKNN.partial_answer`)."""
        return self._timeline.snapshot(time)

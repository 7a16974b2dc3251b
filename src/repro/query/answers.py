"""Answer representations for FO(f) queries.

``Q^s(D)`` may be infinite as a set of pairs ``(o, t)`` but has a finite
representation when the g-distance is polynomial (Section 4): per
object, a finite union of closed intervals.  :class:`SnapshotAnswer`
is that representation; the accumulative and persevering answers are
derived views of it.

:class:`AnswerTimeline` is the mutable builder the sweep views write
into: they ``open`` an object's membership when it enters the answer
and ``close`` it when it leaves; ``finalize`` closes everything at the
sweep end.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Set, Union

from repro.geometry.intervals import Interval, IntervalSet
from repro.geometry.tolerance import DEFAULT_ATOL
from repro.mod.updates import ObjectId


class SnapshotAnswer:
    """The finite representation of ``Q^s(D)``.

    Maps each object that is ever in the answer to the
    :class:`~repro.geometry.intervals.IntervalSet` of times at which it
    is.  Objects never in the answer are absent.
    """

    def __init__(self, memberships: Dict[ObjectId, IntervalSet], interval: Interval) -> None:
        self._memberships = {
            oid: ivs for oid, ivs in memberships.items() if not ivs.is_empty
        }
        self._interval = interval

    @property
    def interval(self) -> Interval:
        """The query interval ``I``."""
        return self._interval

    @property
    def objects(self) -> Set[ObjectId]:
        """Objects appearing in the answer at some time (``Q^E``)."""
        return set(self._memberships)

    def intervals_for(self, oid: ObjectId) -> IntervalSet:
        """Times at which ``oid`` is in the answer (empty set if never)."""
        return self._memberships.get(oid, IntervalSet())

    def restrict(self, interval: Interval, atol: float = 0.0) -> "SnapshotAnswer":
        """This answer over the sub-window ``interval``: every
        membership intersected with it (exact, by Section 4's finite
        representation).  With ``atol``, memberships touching the
        window within tolerance keep their boundary sliver."""
        window = IntervalSet([interval])
        return SnapshotAnswer(
            {
                oid: ivs.intersect(window, atol=atol)
                for oid, ivs in self._memberships.items()
            },
            interval,
        )

    def segment_count(self) -> int:
        """Total membership intervals across all objects."""
        return sum(len(ivs) for ivs in self._memberships.values())

    def holds_at(self, oid: ObjectId, t: float, atol: float = DEFAULT_ATOL) -> bool:
        """Whether ``(oid, t)`` is in the snapshot answer."""
        return self.intervals_for(oid).contains(t, atol=atol)

    def at(self, t: float, atol: float = DEFAULT_ATOL) -> Set[ObjectId]:
        """The answer set ``Q[D]_t`` at one instant."""
        return {
            oid
            for oid, ivs in self._memberships.items()
            if ivs.contains(t, atol=atol)
        }

    def accumulative(self) -> Set[ObjectId]:
        """``Q^E(D)``: objects in the answer at some time in ``I``."""
        return set(self._memberships)

    def persevering(self, atol: float = DEFAULT_ATOL) -> Set[ObjectId]:
        """``Q^A(D)``: objects in the answer at every time in ``I``."""
        return {
            oid
            for oid, ivs in self._memberships.items()
            if ivs.covers(self._interval, atol=atol)
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SnapshotAnswer):
            return NotImplemented
        return (
            self._memberships == other._memberships
            and self._interval == other._interval
        )

    def approx_equals(self, other: "SnapshotAnswer", atol: float = 1e-6) -> bool:
        """Tolerant comparison: same objects, per-object interval sets
        equal up to ``atol`` (crossing times are computed numerically).

        Objects whose total membership does not exceed ``atol`` are
        ignored: single-instant memberships arise as representational
        noise at curve discontinuities (a removal/re-insertion pair at
        the same instant) and carry no measure.
        """
        mine = {
            oid
            for oid in self.objects
            if self.intervals_for(oid).total_length > atol
        }
        theirs = {
            oid
            for oid in other.objects
            if other.intervals_for(oid).total_length > atol
        }
        if mine != theirs:
            return False
        return all(
            self.intervals_for(oid).approx_equals(other.intervals_for(oid), atol=atol)
            for oid in mine
        )

    def __repr__(self) -> str:
        body = ", ".join(
            f"{oid!r}: {ivs!r}" for oid, ivs in sorted(
                self._memberships.items(), key=lambda kv: str(kv[0])
            )
        )
        return f"SnapshotAnswer({{{body}}}, I={self._interval!r})"


class AnswerTimeline:
    """Mutable builder of a :class:`SnapshotAnswer`.

    Membership intervals are closed: an object leaving at the same
    instant another enters yields overlapping endpoints, consistent
    with both being in the answer at the crossing instant (they are
    equivalent under the precedence relation there).
    """

    def __init__(self, interval: Interval) -> None:
        self._interval = interval
        self._open: Dict[ObjectId, float] = {}
        self._closed: Dict[ObjectId, List[Interval]] = {}
        self._finalized = False

    @property
    def open_objects(self) -> Set[ObjectId]:
        """Objects currently in the answer."""
        return set(self._open)

    def is_open(self, oid: ObjectId) -> bool:
        """Whether ``oid`` is currently in the answer."""
        return oid in self._open

    def open(self, oid: ObjectId, time: float) -> None:
        """Mark ``oid`` as entering the answer at ``time``."""
        if oid in self._open:
            raise ValueError(f"{oid!r} is already in the answer")
        self._open[oid] = max(time, self._interval.lo)

    def close(self, oid: ObjectId, time: float) -> None:
        """Mark ``oid`` as leaving the answer at ``time``."""
        start = self._open.pop(oid, None)
        if start is None:
            raise ValueError(f"{oid!r} is not in the answer")
        end = min(time, self._interval.hi)
        if end >= start:
            self._closed.setdefault(oid, []).append(Interval(start, end))

    def finalize(self, time: float) -> None:
        """Close all open memberships at the sweep end."""
        for oid in list(self._open):
            self.close(oid, time)
        self._finalized = True

    def result(self) -> SnapshotAnswer:
        """The immutable snapshot answer (requires :meth:`finalize`)."""
        if not self._finalized:
            raise RuntimeError("finalize() the timeline before reading it")
        return SnapshotAnswer(
            {oid: IntervalSet(ivs) for oid, ivs in self._closed.items()},
            self._interval,
        )

    def snapshot(self, time: float) -> SnapshotAnswer:
        """The answer accumulated so far, closed virtually at ``time``.

        Unlike :meth:`finalize` + :meth:`result` this does not mutate
        the timeline: open memberships stay open, so the sweep can keep
        extending the very same answer afterwards (the cache's
        Theorem 5-style continuation path).  The snapshot covers
        ``[interval.lo, min(time, interval.hi)]``.
        """
        end = min(time, self._interval.hi)
        memberships: Dict[ObjectId, List[Interval]] = {
            oid: list(ivs) for oid, ivs in self._closed.items()
        }
        for oid, start in self._open.items():
            if end >= start:
                memberships.setdefault(oid, []).append(Interval(start, end))
        return SnapshotAnswer(
            {oid: IntervalSet(ivs) for oid, ivs in memberships.items()},
            Interval(self._interval.lo, end),
        )


# A rank query read at several k answers with one value per k.
Answer = Union[SnapshotAnswer, Dict[int, SnapshotAnswer]]
Members = Union[Set[ObjectId], Dict[int, Set[ObjectId]]]


def per_k(fn: Callable, *answers: Answer):
    """Apply ``fn`` across same-shaped answers: to the snapshot answers
    themselves, or — for per-k dicts — to each k's in turn (the result
    keeps the shape)."""
    if isinstance(answers[-1], dict):
        return {k: fn(*(a[k] for a in answers)) for k in answers[-1]}
    return fn(*answers)


def snapshot_from_segments(
    segments: Iterable, interval: Interval
) -> SnapshotAnswer:
    """Build a snapshot answer from ``(oid, lo, hi)`` triples (baselines)."""
    per_object: Dict[ObjectId, List[Interval]] = {}
    for oid, lo, hi in segments:
        per_object.setdefault(oid, []).append(Interval(lo, hi))
    return SnapshotAnswer(
        {oid: IntervalSet(ivs) for oid, ivs in per_object.items()}, interval
    )

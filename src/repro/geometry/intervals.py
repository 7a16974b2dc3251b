"""Time intervals and disjoint interval sets.

The paper (Section 2) assumes, without loss of generality, that time
intervals are *closed or unbounded* — never open.  :class:`Interval`
encodes exactly that family: ``[lo, hi]``, ``[lo, +inf)``,
``(-inf, hi]`` or ``(-inf, +inf)``.

:class:`IntervalSet` is a normalized (sorted, disjoint, merged) union of
intervals.  Snapshot answers ``Q^s(D)`` are finitely represented as one
interval set per object (Section 4), so this class is the concrete
answer representation of the whole query layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.tolerance import DEFAULT_ATOL, approx_eq

INF = math.inf


@dataclass(frozen=True)
class Interval:
    """A closed (possibly unbounded) real interval ``[lo, hi]``.

    ``lo`` may be ``-inf`` and ``hi`` may be ``+inf``; in those cases the
    corresponding end is open at infinity, matching the paper's
    convention that intervals are closed or unbounded.
    """

    # Hand-written slots (``dataclass(slots=True)`` needs Python 3.10):
    # intervals are the most-allocated object of the geometry layer.
    __slots__ = ("lo", "hi")

    lo: float
    hi: float

    def __reduce__(self) -> Tuple[type, Tuple[float, float]]:
        # Default slot pickling restores state with ``setattr``, which a
        # frozen dataclass refuses; rebuild through the constructor.
        return (Interval, (self.lo, self.hi))

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if math.isinf(self.lo) and self.lo > 0:
            raise ValueError("lo must not be +inf")
        if math.isinf(self.hi) and self.hi < 0:
            raise ValueError("hi must not be -inf")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def all_time() -> "Interval":
        """The whole real line ``(-inf, +inf)``."""
        return Interval(-INF, INF)

    @staticmethod
    def at_least(lo: float) -> "Interval":
        """The ray ``[lo, +inf)``."""
        return Interval(lo, INF)

    @staticmethod
    def at_most(hi: float) -> "Interval":
        """The ray ``(-inf, hi]``."""
        return Interval(-INF, hi)

    @staticmethod
    def point(t: float) -> "Interval":
        """The degenerate interval ``[t, t]``."""
        return Interval(t, t)

    # -- predicates -----------------------------------------------------
    @property
    def is_point(self) -> bool:
        """True for degenerate single-instant intervals."""
        return self.lo == self.hi

    @property
    def is_bounded(self) -> bool:
        """True when both endpoints are finite."""
        return not (math.isinf(self.lo) or math.isinf(self.hi))

    @property
    def length(self) -> float:
        """Length of the interval (``inf`` when unbounded)."""
        return self.hi - self.lo

    def contains(self, t: float, atol: float = 0.0) -> bool:
        """Return True when ``t`` lies in the interval.

        A nonzero ``atol`` widens the interval on both ends, which is
        useful when testing times produced by root finding.
        """
        return self.lo - atol <= t <= self.hi + atol

    def contains_interval(self, other: "Interval", atol: float = 0.0) -> bool:
        """Return True when ``other`` is a subset of this interval.

        A nonzero ``atol`` widens this interval on both ends before the
        test, so sub-interval checks against float-rounded crossing-time
        boundaries (cache hits, answer clipping) do not spuriously miss.
        """
        return self.lo - atol <= other.lo and other.hi <= self.hi + atol

    def overlaps(self, other: "Interval", atol: float = 0.0) -> bool:
        """Return True when the two closed intervals share a point.

        A nonzero ``atol`` treats endpoints within ``atol`` of touching
        as touching.
        """
        return self.lo <= other.hi + atol and other.lo <= self.hi + atol

    # -- algebra ---------------------------------------------------------
    def intersect(self, other: "Interval", atol: float = 0.0) -> Optional["Interval"]:
        """Intersection with ``other``; None when disjoint.

        With a nonzero ``atol``, intervals whose endpoints are within
        ``atol`` of touching intersect in the (possibly degenerate)
        boundary region instead of returning None — the right behavior
        when the endpoints are float-rounded crossing times that are
        equal in exact arithmetic.
        """
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            if lo - hi > atol:
                return None
            # Touching within tolerance: the exact intersection is a
            # boundary point smeared by rounding; return the sliver.
            lo, hi = hi, lo
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def shift(self, delta: float) -> "Interval":
        """Translate the interval by ``delta``."""
        lo = self.lo if math.isinf(self.lo) else self.lo + delta
        hi = self.hi if math.isinf(self.hi) else self.hi + delta
        return Interval(lo, hi)

    def clamp(self, t: float) -> float:
        """Nearest point of the interval to ``t``."""
        return min(max(t, self.lo), self.hi)

    def sample_points(self, count: int = 5) -> List[float]:
        """Return ``count`` representative points inside the interval.

        Unbounded ends are truncated at an arbitrary finite horizon; the
        points are used by tests and the naive baselines for spot checks,
        never by the sweep engine itself.
        """
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        lo = self.lo if not math.isinf(self.lo) else min(self.hi, 0.0) - 1e6
        hi = self.hi if not math.isinf(self.hi) else max(self.lo, 0.0) + 1e6
        if count == 1 or lo == hi:
            return [(lo + hi) / 2.0]
        step = (hi - lo) / (count - 1)
        return [lo + i * step for i in range(count)]

    def approx_equals(self, other: "Interval", atol: float = DEFAULT_ATOL) -> bool:
        """Endpoint-wise approximate equality."""
        return approx_eq(self.lo, other.lo, atol=atol) and approx_eq(self.hi, other.hi, atol=atol)

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


class IntervalSet:
    """A normalized finite union of closed intervals.

    Intervals are kept sorted, pairwise disjoint, and maximal (adjacent
    or overlapping members are merged).  This is the finite
    representation of snapshot answers promised by Section 4 of the
    paper for polynomial g-distances.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._intervals: Tuple[Interval, ...] = self._normalize(intervals)

    @staticmethod
    def _normalize(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
        items = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
        merged: List[Interval] = []
        for iv in items:
            if merged and iv.lo <= merged[-1].hi:
                if iv.hi > merged[-1].hi:
                    merged[-1] = Interval(merged[-1].lo, iv.hi)
            else:
                merged.append(iv)
        return tuple(merged)

    # -- inspection -------------------------------------------------------
    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """The normalized member intervals, in increasing order."""
        return self._intervals

    @property
    def is_empty(self) -> bool:
        """True when the set contains no points."""
        return not self._intervals

    @property
    def total_length(self) -> float:
        """Sum of member lengths (``inf`` when any member is unbounded)."""
        return sum(iv.length for iv in self._intervals)

    def contains(self, t: float, atol: float = 0.0) -> bool:
        """Membership test for a time instant."""
        return any(iv.contains(t, atol=atol) for iv in self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        body = " u ".join(repr(iv) for iv in self._intervals)
        return f"IntervalSet({body or 'empty'})"

    # -- set algebra --------------------------------------------------------
    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Set union."""
        return IntervalSet([*self._intervals, *other._intervals])

    def intersect(self, other: "IntervalSet", atol: float = 0.0) -> "IntervalSet":
        """Set intersection via a linear merge of the two sorted lists.

        ``atol`` is forwarded to the pairwise
        :meth:`Interval.intersect`, so members touching within
        tolerance contribute their degenerate boundary region instead
        of vanishing (float-rounded crossing times).
        """
        out: List[Interval] = []
        i = j = 0
        a, b = self._intervals, other._intervals
        while i < len(a) and j < len(b):
            cap = a[i].intersect(b[j], atol=atol)
            if cap is not None:
                out.append(cap)
            if a[i].hi <= b[j].hi:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Set difference ``self \\ other``.

        The result of subtracting closed intervals is half-open in
        general; since the model only admits closed intervals we return
        the closure of the difference, which is the right notion for
        answer intervals (single-instant boundary cases are degenerate
        point intervals).
        """
        out: List[Interval] = []
        for iv in self._intervals:
            segments = [iv]
            for cut in other._intervals:
                next_segments: List[Interval] = []
                for seg in segments:
                    cap = seg.intersect(cut)
                    if cap is None:
                        next_segments.append(seg)
                        continue
                    if seg.lo < cap.lo:
                        next_segments.append(Interval(seg.lo, cap.lo))
                    if cap.hi < seg.hi:
                        next_segments.append(Interval(cap.hi, seg.hi))
                segments = next_segments
            out.extend(segments)
        return IntervalSet(out)

    def covers(self, interval: Interval, atol: float = DEFAULT_ATOL) -> bool:
        """True when ``interval`` is covered by the set up to tolerance.

        Degenerate gaps of width ``<= atol`` (an artifact of closing
        half-open differences) do not break coverage.
        """
        remaining = IntervalSet([interval]).difference(self)
        return all(iv.length <= atol for iv in remaining)

    def approx_equals(self, other: "IntervalSet", atol: float = DEFAULT_ATOL) -> bool:
        """Approximate set equality, ignoring zero-width discrepancies."""
        if len(self._intervals) != len(other._intervals):
            gap_a = [iv for iv in self._intervals if iv.length > atol]
            gap_b = [iv for iv in other._intervals if iv.length > atol]
            if len(gap_a) != len(gap_b):
                return False
            return all(x.approx_equals(y, atol=atol) for x, y in zip(gap_a, gap_b))
        return all(
            x.approx_equals(y, atol=atol) for x, y in zip(self._intervals, other._intervals)
        )


def interval_set_from_pairs(pairs: Sequence[Tuple[float, float]]) -> IntervalSet:
    """Convenience constructor from ``(lo, hi)`` pairs."""
    return IntervalSet([Interval(lo, hi) for lo, hi in pairs])

"""Sweep only what the reading needs: interval-bound candidate pruning.

Theorem 4 prices a past query at ``O((m + N) log N)`` with ``m`` the
*support changes of the query*, and Lemma 8 says only those move the
answer.  A sweep over every curve of the database instead pays for
every inversion of the full order.  This module decides, from each
curve's ``[min, max]`` over a slice ``[a, b]`` of the window
(:meth:`~repro.geometry.piecewise.PiecewiseFunction.bounds`), which
curves a slice's engine has to order at all; the engine that exists
then sweeps those and still decides every membership.

**Rank reading** (k-NN at ``K`` = the widest maintained k).  Let ``T``
be the K-th smallest ``max`` among the curves that cover the whole
slice.  A curve with ``min > T`` lies *strictly* above K curves at every
instant of the slice, so it is never among the K lowest and ties never
involve it: the top-K of ``{o : min_o <= T}`` is the top-K of the
database.  With fewer than K covering curves everything is a candidate.

A range reading is not planned at all: its membership involves one
curve at a time, and :class:`~repro.sweep.within.RangeSweep` keeps each
curve's own next crossing instead of an order (it borrows this
module's margin to skip the crossing of a curve whose bounds lie on one
side for the rest of a bounded window).

**The margin.**  Bounds are floats, each within a few ulps of the
*magnitude* ``bounds`` reports (not of the value: a squared distance is
a cancellation of larger terms).  Every strict comparison above
therefore leaves ``_REL_MARGIN`` times the operands' magnitudes — many
orders above that rounding, relative so no scale breaks it — and a
curve inside the margin is a candidate: the margin can only *add*
curves to a sweep, never decide a membership.

**Slices.**  Pruning over a long window is loose (``T`` is a maximum
over it), so a slice is halved while Theorem 4's own bound says the
halves are cheaper: a slice of ``C`` candidates of which ``P`` pairs
have overlapping ``[min, max]`` ranges — an upper bound on its swaps —
is priced ``(P + C) log2(C + 1)`` plus a constant for the engine
itself, and a curve that is no candidate of a slice is none of its
halves, so each level only looks at the survivors.  Adjacent slices that end up with equal candidate sets are
one slice again (the same curves swap the same number of times either
way; the cut would only re-initialise them).  When nothing prunes, the
plan is one slice holding every object: today's one engine over the
window.

This planner is the one-shot path's only.  A live rank reading plans
nothing: :mod:`repro.sweep.live` keeps a bar ``T`` above ``K`` curves
as a range reading (one record per curve, this module's margin) and
orders only the curves under it, moving the bar when the count would
fall under ``K`` or crowd it.  What keeps the full order is the generic
FO(f) evaluator, whose formulas may read any rank.  A ``cache=`` caller
is in scope: the cache holds answers, never an engine, and sweeps what
it lacks through this plan.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.geometry.intervals import Interval
from repro.geometry.piecewise import ClosedForm, PiecewiseFunction
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ObjectId

__all__ = ["Plan", "Slice", "candidate_mod", "plan_sweep"]

#: Strict bound comparisons leave this fraction of the operands'
#: evaluation magnitudes as margin (see the module docstring).
_REL_MARGIN = 1e-9

#: Building one more engine — its candidate MOD, queue, order and view —
#: in the unit of Theorem 4's bound, one queue or order step: measured
#: at 60-100 us against 2-4 us a step (EXPERIMENTS.md).
_ENGINE_STEPS = 32

#: One curve a slice may have to sweep (unbuilt only in the plan that
#: bounds nothing).  Lists of them stay in database insertion order.
#: The first classify reads ``(oid, what the store gave to read,
#: trajectory)`` instead.
_Item = Tuple[ObjectId, Optional[PiecewiseFunction]]


class Slice(NamedTuple):
    """One engine's worth of work: the curves of ``items`` (in database
    insertion order) swept over ``[lo, hi]``; ``overlap_pairs`` bounds
    the swaps that takes."""

    lo: float
    hi: float
    items: List[_Item]
    overlap_pairs: int

    @property
    def candidates(self) -> Tuple[ObjectId, ...]:
        return tuple(oid for oid, _ in self.items)

    @property
    def cost(self) -> float:
        """Theorem 4's bound with the overlap pairs standing in for
        ``m``, plus what standing up the slice's engine costs before
        its first curve."""
        count = len(self.items)
        steps = (self.overlap_pairs + count) * math.log2(count + 1)
        return _ENGINE_STEPS + steps


class Plan(NamedTuple):
    """What :func:`plan_sweep` decided.  ``objects`` counts the curves
    that meet the window."""

    objects: int
    slices: List[Slice]

    @property
    def candidates(self) -> int:
        """Curve entries the slices' engines initialise, in total."""
        return sum(len(s.items) for s in self.slices)

    @property
    def overlap_pairs(self) -> int:
        """Upper bound on the swaps the slices' engines process."""
        return sum(s.overlap_pairs for s in self.slices)


def candidate_mod(
    source: MovingObjectDatabase, oids: Iterable[ObjectId]
) -> MovingObjectDatabase:
    """A MOD holding only ``oids`` of ``source`` — the database a
    pruned slice's engine runs over.

    Objects are installed in *source insertion order* whatever order
    ``oids`` came in: an engine breaks exact ties (identical curves)
    by the order it met the objects, so a candidate sweep must meet
    them as a sweep over ``source`` would.  Trajectories are immutable
    values and are shared, so a shared curve store keeps hitting.
    """
    wanted = set(oids)
    db = MovingObjectDatabase(initial_time=source.last_update_time)
    if wanted:
        for oid, trajectory in source.all_items():
            if oid in wanted:
                db.install(oid, trajectory)
    return db


def _overlap_pairs(ranges: List[Tuple[float, float]]) -> int:
    """Pairs of ``(min, max)`` ranges that intersect."""
    ranges.sort()
    lows = [lo for lo, _ in ranges]
    return sum(
        bisect_right(lows, hi, i + 1) - (i + 1)
        for i, (_, hi) in enumerate(ranges)
    )


def _rank_bar(rows, k: int, a: float, b: float) -> Optional[Tuple[float, float]]:
    """The rank reading's ``T`` over ``[a, b]`` — the k-th smallest
    ``max`` among the bounded curves that cover the whole stretch — and
    the magnitude its margin scales with; ``None`` with fewer than
    ``k`` covering curves (then nothing can be ruled out)."""
    covering = []
    for item, (_, vmax, magnitude) in rows:
        domain = item[1].domain
        if domain.lo <= a and domain.hi >= b:
            covering.append((vmax, magnitude))
    if len(covering) < k:
        return None
    lowest = heapq.nsmallest(k, covering)
    return lowest[-1][0], max(magnitude for _, magnitude in lowest)


def _raised(value: float, magnitude: float) -> float:
    """``value`` raised by the relative margin at ``magnitude``: a
    level that it, and every curve at or below it, lies strictly under
    (a live rank host's bar)."""
    return max(value + _REL_MARGIN * magnitude, math.nextafter(value, math.inf))


def _classify(
    k: int, items: Sequence, a: float, b: float
) -> Tuple[Slice, Optional[Tuple[float, float]]]:
    """The slice ``[a, b]`` read off the bounds of ``items`` at rank
    ``k``, with the reading's ``(T, margin scale)`` where it has one.
    A curve whose bounds may dip to ``T`` is kept."""
    rows = []
    for item in items:
        found = item[1].bounds(a, b)
        if found is not None:
            rows.append((item, found))
    bar = _rank_bar(rows, k, a, b)
    if bar is not None:
        level, slack = bar
        rows = [r for r in rows if r[1][0] <= level + _REL_MARGIN * (slack + r[1][2])]
    pairs = _overlap_pairs([(vmin, vmax) for _, (vmin, vmax, _) in rows])
    return Slice(a, b, [item for item, _ in rows], pairs), bar


def _halve(k: int, piece: Slice) -> List[Slice]:
    """``piece`` or, while it pays, the leaves of its halves."""
    mid = piece.lo + (piece.hi - piece.lo) / 2.0
    if not piece.overlap_pairs or not piece.lo < mid < piece.hi:
        return [piece]
    left, _ = _classify(k, piece.items, piece.lo, mid)
    right, _ = _classify(k, piece.items, mid, piece.hi)
    if left.cost + right.cost >= piece.cost:
        return [piece]
    return _halve(k, left) + _halve(k, right)


def plan_sweep(
    db: MovingObjectDatabase,
    spec,
    window: Interval,
    curve_store,
    _slices: int = 1,
) -> Plan:
    """Cut ``window`` into slices and pick each slice's candidates for
    ``spec`` (a rank :class:`~repro.core.spec.QuerySpec`) over ``db``.

    Each object's bounds are read through ``curve_store.read`` (in
    closed form where the g-distance has one); a candidate's curve is
    built then, through ``curve_store``, which the slices' engines must
    share: a curve is built once however many slices hold it, and not
    at all for an object the bounds rule out.
    ``_slices`` is for tests: the planner starts from that many equal
    slices of the window instead of the window itself.
    """
    if not (window.is_bounded and spec.gdistance.is_polynomial):
        # Nothing to bound — and the engine refuses both; let it.
        everything = [(oid, None) for oid, _ in db.all_items()]
        return Plan(len(everything), [Slice(window.lo, window.hi, everything, 0)])
    # A whole-history read and ``curve_store.curve`` are ``read`` and
    # ``tail`` from ``-inf``: called straight, one call less per object.
    read, tail = curve_store.read, curve_store.tail
    gdistance, lo, hi = spec.gdistance, window.lo, window.hi
    reads = []
    for oid, trajectory in db.all_items():
        domain = trajectory._domain  # the property, without its call
        if domain.hi < lo or domain.lo > hi:
            continue
        reads.append((oid, read(gdistance, oid, trajectory, -math.inf), trajectory))
    cuts = [window.lo + i * window.length / _slices for i in range(_slices)]
    cuts.append(window.hi)
    slices: List[Slice] = []
    k = spec.maintained_k
    for a, b in zip(cuts, cuts[1:]):
        piece, _ = _classify(k, reads, a, b)
        # A candidate's engine orders its curve: built now, in the shared store.
        piece = piece._replace(items=[
            (oid, tail(gdistance, oid, t, -math.inf) if type(f) is ClosedForm else f)
            for oid, f, t in piece.items
        ])
        for leaf in _halve(k, piece):
            last = slices[-1] if slices else None
            if last is not None and last.candidates == leaf.candidates:
                slices[-1] = last._replace(
                    hi=leaf.hi,
                    overlap_pairs=last.overlap_pairs + leaf.overlap_pairs,
                )
            else:
                slices.append(leaf)
    return Plan(len(reads), slices)

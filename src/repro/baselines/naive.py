"""The no-sweep exact baseline.

Evaluates FO(f) queries by brute force: build every object's g-distance
curve, enumerate *all* pairwise crossing times (``O(N^2)`` pairs instead
of the sweep's neighbors-only discipline), cut the query interval at
every crossing and lifetime boundary, and evaluate the answer once per
segment.  Exact for any query; used as ground truth in tests and as the
comparison strawman in benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.geometry.intervals import Interval, IntervalSet
from repro.geometry.piecewise import PiecewiseFunction
from repro.gdist.base import GDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ObjectId
from repro.query.answers import SnapshotAnswer
from repro.query.query import Query

#: Interior probe fraction: irrational, so symmetric workloads (whose
#: curves can tie exactly at rational midpoints) do not fool the
#: per-segment rank probe.
_PROBE = 0.41421356237309515


def _probe_point(lo: float, hi: float) -> float:
    return lo + (hi - lo) * _PROBE


def _collect_curves(
    db: MovingObjectDatabase, gdistance: GDistance, interval: Interval
) -> Dict[ObjectId, PiecewiseFunction]:
    curves: Dict[ObjectId, PiecewiseFunction] = {}
    for oid, traj in db.all_items():
        if traj.domain.hi < interval.lo or traj.domain.lo > interval.hi:
            continue
        curves[oid] = gdistance(traj)
    return curves


def _segment_bounds(
    curves: Dict[ObjectId, PiecewiseFunction], interval: Interval
) -> List[float]:
    cuts: Set[float] = set()
    items = list(curves.items())
    for idx, (_, f) in enumerate(items):
        dom = f.domain
        for bound in (dom.lo, dom.hi):
            if interval.lo < bound < interval.hi:
                cuts.add(bound)
        for _, g in items[idx + 1 :]:
            if f.domain.intersect(g.domain) is None:
                continue
            for t in f.crossings_with(g, within=interval):
                if interval.lo < t < interval.hi:
                    cuts.add(t)
    return [interval.lo, *sorted(cuts), interval.hi]


def _alive(curves: Dict[ObjectId, PiecewiseFunction], t: float) -> List[ObjectId]:
    """Objects defined at ``t``, in database insertion order (the order
    ``_collect_curves`` met them in)."""
    return [oid for oid, f in curves.items() if f.domain.contains(t)]


def naive_knn_answer(
    db: MovingObjectDatabase,
    gdistance: GDistance,
    interval: Interval,
    k: int,
) -> SnapshotAnswer:
    """Exact k-NN snapshot answer by per-segment full sorting."""
    curves = _collect_curves(db, gdistance, interval)
    bounds = _segment_bounds(curves, interval)
    per_object: Dict[ObjectId, List[Interval]] = {}
    segments = (
        [(interval.lo, interval.hi)]
        if interval.is_point
        else list(zip(bounds, bounds[1:]))
    )
    for lo, hi in segments:
        probe = _probe_point(lo, hi)
        alive = _alive(curves, probe)
        # Stable: exact ties (identical curves) rank in database
        # insertion order, as a sweep engine breaks them.
        ranked = sorted(alive, key=lambda oid: curves[oid](probe))
        for oid in ranked[:k]:
            per_object.setdefault(oid, []).append(Interval(lo, hi))
    return SnapshotAnswer(
        {oid: IntervalSet(ivs) for oid, ivs in per_object.items()}, interval
    )


def naive_within_answer(
    db: MovingObjectDatabase,
    gdistance: GDistance,
    interval: Interval,
    threshold: float,
) -> SnapshotAnswer:
    """Exact within-range snapshot answer.

    The threshold is a constant curve, so segment bounds must also cut
    at each object's crossings with the constant.
    """
    curves = _collect_curves(db, gdistance, interval)
    sentinel = PiecewiseFunction.constant(float(threshold), Interval.all_time())
    cuts: Set[float] = set()
    for f in curves.values():
        dom = f.domain
        for bound in (dom.lo, dom.hi):
            if interval.lo < bound < interval.hi:
                cuts.add(bound)
        for t in f.crossings_with(sentinel, within=interval):
            if interval.lo < t < interval.hi:
                cuts.add(t)
    bounds = [interval.lo, *sorted(cuts), interval.hi]
    per_object: Dict[ObjectId, List[Interval]] = {}
    for lo, hi in zip(bounds, bounds[1:]):
        probe = _probe_point(lo, hi)
        for oid in _alive(curves, probe):
            if curves[oid](probe) <= threshold:
                per_object.setdefault(oid, []).append(Interval(lo, hi))
    return SnapshotAnswer(
        {oid: IntervalSet(ivs) for oid, ivs in per_object.items()}, interval
    )


def naive_query_answer(
    db: MovingObjectDatabase,
    gdistance: GDistance,
    query: Query,
    interval: Optional[Interval] = None,
) -> SnapshotAnswer:
    """Exact snapshot answer of an arbitrary FO(f) query.

    Supports multiple time terms: one curve per (object, time term),
    crossings among all of them (and lifetime bounds) cut the interval.
    """
    interval = interval if interval is not None else query.interval
    base_curves = _collect_curves(db, gdistance, interval)
    term_curves: Dict[Tuple[ObjectId, int], PiecewiseFunction] = {}
    for oid, base in base_curves.items():
        for j, term in enumerate(query.time_terms):
            if j == 0:
                term_curves[(oid, 0)] = base
            else:
                term_curves[(oid, j)] = base.compose_polynomial(term, interval)
    all_curves: List[PiecewiseFunction] = list(term_curves.values())
    all_curves.extend(
        PiecewiseFunction.constant(c, Interval.all_time())
        for c in query.constants
    )
    cuts: Set[float] = set()
    for idx, f in enumerate(all_curves):
        dom = f.domain
        for bound in (dom.lo, dom.hi):
            if interval.lo < bound < interval.hi:
                cuts.add(bound)
        for g in all_curves[idx + 1 :]:
            if f.domain.intersect(g.domain) is None:
                continue
            for t in f.crossings_with(g, within=interval):
                if interval.lo < t < interval.hi:
                    cuts.add(t)
    bounds = [interval.lo, *sorted(cuts), interval.hi]
    per_object: Dict[ObjectId, List[Interval]] = {}
    segments = (
        [(interval.lo, interval.hi)]
        if interval.is_point
        else list(zip(bounds, bounds[1:]))
    )
    for lo, hi in segments:
        probe = _probe_point(lo, hi)
        alive = [
            oid
            for oid in sorted(base_curves, key=str)
            if base_curves[oid].domain.contains(probe)
        ]

        def values(oid: ObjectId, tt_index: int) -> float:
            return term_curves[(oid, tt_index)](probe)

        for oid in alive:
            if query.formula.holds({query.var: oid}, alive, values):
                per_object.setdefault(oid, []).append(Interval(lo, hi))
    return SnapshotAnswer(
        {oid: IntervalSet(ivs) for oid, ivs in per_object.items()}, interval
    )

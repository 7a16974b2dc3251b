"""The exact generic FO(f) evaluator driven by support changes.

Lemma 8: if the precedence relations (extended to all instantiated real
terms) at two instants coincide, the supports — hence the answers —
coincide.  Between consecutive support changes the order is constant,
so the answer is constant; it therefore suffices to evaluate the
formula once per *segment* between changes.

:class:`GenericFOEvaluator` subscribes to a sweep engine, records every
support-change time, and — at finalization — evaluates the query
formula at one interior probe point per segment, using the final curves
(correct for past instants too, because trajectory updates never rewrite
the past).  This is exact for *any* FO(f) formula at cost
``O(segments * N^(q+1))`` for ``q`` quantifiers; the optimized k-NN and
within views answer their fragments in ``O(log N)`` per event instead,
which is exactly the division of labor the paper intends.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.geometry.intervals import Interval, IntervalSet
from repro.mod.updates import ObjectId
from repro.query.answers import SnapshotAnswer
from repro.query.query import Query
from repro.obs.instrument import NULL_INSTRUMENTATION
from repro.sweep.curves import CurveEntry
from repro.sweep.engine import SweepEngine


class GenericFOEvaluator:
    """Segment-wise exact evaluation of an FO(f) query over a sweep."""

    def __init__(self, engine: SweepEngine, query: Query) -> None:
        if not engine.interval.is_bounded:
            raise ValueError("the generic evaluator needs a bounded interval")
        self._engine = engine
        self._query = query
        self._change_times: List[float] = []
        self._gdistance_replaced = False
        self._result: Optional[SnapshotAnswer] = None
        metrics = (engine.observe or NULL_INSTRUMENTATION).metrics
        self._c_change = metrics.counter(
            "view_support_changes_total",
            "Answer-set support changes emitted by continuous views "
            "(Lemma 8: answers change only at support changes).",
            labels=("view", "kind"),
        ).labels(view="generic", kind="change")
        self._c_segments = metrics.counter(
            "evaluator_segments_total",
            "Constant-order segments the generic FO(f) evaluator "
            "probed (one formula evaluation each, Lemma 8).",
        )
        engine.add_listener(self)

    # -- listener protocol -------------------------------------------------
    def on_swap(self, time: float, lower: CurveEntry, upper: CurveEntry) -> None:
        self._change_times.append(time)
        self._c_change.inc()

    def on_insert(self, time: float, entry: CurveEntry) -> None:
        self._change_times.append(time)
        self._c_change.inc()

    def on_remove(self, time: float, entry: CurveEntry) -> None:
        self._change_times.append(time)
        self._c_change.inc()

    def on_gdistance_replaced(self, time: float) -> None:
        # Final curves would misreport values before the replacement.
        self._gdistance_replaced = True

    def on_finalize(self, time: float) -> None:
        self._result = self._evaluate_segments(time)

    # -- evaluation --------------------------------------------------------------
    def _evaluate_segments(self, end_time: float) -> SnapshotAnswer:
        if self._gdistance_replaced:
            raise RuntimeError(
                "the g-distance was replaced mid-sweep; the generic "
                "evaluator cannot reconstruct pre-replacement values"
            )
        interval = self._engine.interval
        lo = interval.lo
        hi = min(interval.hi, end_time)
        cuts = sorted({t for t in self._change_times if lo < t < hi})
        bounds = [lo, *cuts, hi]
        entries = [e for e in self._engine.all_entries() if e.is_object]
        per_object: Dict[ObjectId, List[Interval]] = {}
        # Irrational probe fraction: symmetric workloads can tie exactly
        # at rational midpoints, which would corrupt the rank probe.
        fraction = 0.41421356237309515
        for seg_lo, seg_hi in zip(bounds, bounds[1:]):
            probe = seg_lo + (seg_hi - seg_lo) * fraction
            self._c_segments.inc()
            answer = self._answer_at(probe, entries)
            for oid in answer:
                per_object.setdefault(oid, []).append(Interval(seg_lo, seg_hi))
        if not cuts and lo == hi:
            answer = self._answer_at(lo, entries)
            for oid in answer:
                per_object.setdefault(oid, []).append(Interval.point(lo))
        return SnapshotAnswer(
            {oid: IntervalSet(ivs) for oid, ivs in per_object.items()}, interval
        )

    def _answer_at(self, t: float, entries: List[CurveEntry]) -> Set[ObjectId]:
        curves: Dict[ObjectId, Dict[int, CurveEntry]] = {}
        for entry in entries:
            if entry.curve.domain.contains(t):
                curves.setdefault(entry.oid, {})[entry.time_term_index] = entry
        oids = sorted(curves, key=str)

        def values(oid: ObjectId, tt_index: int) -> float:
            entry = curves[oid].get(tt_index)
            if entry is None:
                raise KeyError(
                    f"object {oid!r} has no curve for time term {tt_index}"
                )
            return entry.value(t)

        answer: Set[ObjectId] = set()
        formula = self._query.formula
        var = self._query.var
        for oid in oids:
            if formula.holds({var: oid}, oids, values):
                answer.add(oid)
        return answer

    # -- results -------------------------------------------------------------------
    def answer(self) -> SnapshotAnswer:
        """The snapshot answer (after finalization)."""
        if self._result is None:
            raise RuntimeError(
                "the sweep has not been finalized; call engine.run_to_end()"
            )
        return self._result

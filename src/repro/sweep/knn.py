"""The rank-boundary views: continuous k-NN (Example 6 / Example 12).

The answer to k-NN at any instant is the set of objects whose curves
are the ``k`` lowest — the first ``k`` entries of the precedence
relation.  Because every order change is an adjacent transposition,
membership changes only when the transposition straddles the rank-k
boundary, detectable in O(1) via the current membership set; inserts
and removals use one O(log N) ``at_rank`` probe to find the displaced
or promoted entry.

Several ``k`` at once is the same boundary drawn more than once over
the one order, so the bookkeeping lives once, in :class:`RankView`:
:class:`ContinuousKNN` is its one-k reading and
:class:`~repro.sweep.multiknn.MultiKNN` its several-k reading.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.geometry.intervals import Interval
from repro.mod.updates import ObjectId
from repro.obs.instrument import NULL_INSTRUMENTATION
from repro.query.answers import AnswerTimeline, SnapshotAnswer
from repro.sweep.curves import CurveEntry
from repro.sweep.engine import SweepEngine


def bind_support_counters(engine: SweepEngine, view: str):
    """Bind (enter, leave) support-change counters for one view.

    Shared by every continuous view: when the engine carries an
    ``observe=`` instrumentation, each answer-set entry/exit increments
    ``view_support_changes_total{view=...,kind=enter|leave}``; otherwise
    both slots are the null bundle's no-op counter.
    """
    family = (engine.observe or NULL_INSTRUMENTATION).metrics.counter(
        "view_support_changes_total",
        "Answer-set support changes emitted by continuous views "
        "(Lemma 8: answers change only at support changes).",
        labels=("view", "kind"),
    )
    return (
        family.labels(view=view, kind="enter"),
        family.labels(view=view, kind="leave"),
    )


class RankView:
    """Rank boundaries ``ks`` (ascending) drawn over one sweep: per
    boundary, the set of objects currently ranked below it and the
    timeline of their memberships.

    Requires an engine with no constant sentinels and a single time
    term, so that full-order ranks coincide with object ranks.  The
    public readings validate their own ``k`` / ``ks`` first.
    """

    def __init__(
        self,
        engine: SweepEngine,
        ks: Tuple[int, ...],
        label: str,
        advice: str = "",
    ) -> None:
        if engine.object_count != len(engine.order):
            raise ValueError(
                f"{type(self).__name__} requires an engine without "
                f"constant sentinels{advice}"
            )
        self._engine = engine
        self._ks = ks
        #: Only ranks ``< max(ks)`` are read: an engine all of whose
        #: listeners say so may order no more curves than that (the
        #: other curves sit in its kinetic tournament and no event of
        #: theirs reaches a view; see ``SweepEngine.add_listener``).
        self.ranks_read = ks[-1]
        self._members: Dict[int, Set[ObjectId]] = {k: set() for k in ks}
        # The (k, member set) pairs as a tuple: what the per-swap loop
        # walks, without a dict view per event.
        self._boundaries = tuple(self._members.items())
        # The reading starts where it attaches: a view attached to a
        # running engine answers from the engine's clock on.
        window = Interval(engine.current_time, engine.interval.hi)
        self._timelines: Dict[int, AnswerTimeline] = {
            k: AnswerTimeline(window) for k in ks
        }
        self._results: Dict[int, SnapshotAnswer] = {}
        self._c_enter, self._c_leave = bind_support_counters(engine, label)
        engine.add_listener(self)
        t = engine.current_time
        for rank, entry in enumerate(engine.order):
            if rank >= ks[-1]:
                break
            for k in ks:
                if rank < k:
                    self._enter(k, entry.oid, t)

    # -- listener protocol -----------------------------------------------------
    def on_swap(self, time: float, lower: CurveEntry, upper: CurveEntry) -> None:
        # lower just moved below upper.  Membership changes only where
        # the pair straddles a boundary, i.e. exactly one is a member;
        # the member was at rank k-1 and they exchanged ranks.
        for k, members in self._boundaries:
            if upper.oid in members and lower.oid not in members:
                self._leave(k, upper.oid, time)
                self._enter(k, lower.oid, time)

    def on_insert(self, time: float, entry: CurveEntry) -> None:
        # A capped engine reports an arrival below rank K before rank K
        # leaves its order, so ``at_rank(k)`` still names the displaced.
        rank = self._engine.rank_of(entry)
        order = self._engine.order
        for k, members in self._boundaries:
            if rank >= k:
                continue
            if len(order) > k:
                displaced = order.at_rank(k)
                if displaced.oid in members:
                    self._leave(k, displaced.oid, time)
            self._enter(k, entry.oid, time)

    def on_remove(self, time: float, entry: CurveEntry) -> None:
        # ... and a departure after rank K was promoted into it.
        order = self._engine.order
        for k, members in self._boundaries:
            if entry.oid not in members:
                continue
            self._leave(k, entry.oid, time)
            if len(order) >= k:
                self._enter(k, order.at_rank(k - 1).oid, time)

    def on_finalize(self, time: float) -> None:
        for k, timeline in self._timelines.items():
            timeline.finalize(time)
            self._results[k] = timeline.result()

    # -- membership bookkeeping ---------------------------------------------------
    def _enter(self, k: int, oid: ObjectId, time: float) -> None:
        self._members[k].add(oid)
        self._timelines[k].open(oid, time)
        self._c_enter.inc()

    def _leave(self, k: int, oid: ObjectId, time: float) -> None:
        self._members[k].discard(oid)
        self._timelines[k].close(oid, time)
        self._c_leave.inc()


class ContinuousKNN(RankView):
    """Maintain the k nearest objects (by g-distance) over the sweep.

    Requires an engine with no constant sentinels and a single time
    term, so that full-order ranks coincide with object ranks.
    """

    def __init__(self, engine: SweepEngine, k: int) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        super().__init__(
            engine,
            (k,),
            "knn",
            "; use the generic evaluator for mixed queries",
        )
        self._k = k

    # -- current answer ----------------------------------------------------
    @property
    def k(self) -> int:
        """The k in k-NN."""
        return self._k

    @property
    def members(self) -> Set[ObjectId]:
        """The current k-NN answer set."""
        return set(self._members[self._k])

    def members_in_order(self) -> List[ObjectId]:
        """The current answer, nearest first."""
        members = self._members[self._k]
        out: List[ObjectId] = []
        for entry in self._engine.order:
            if entry.oid in members:
                out.append(entry.oid)
            if len(out) == len(members):
                break
        return out

    # -- results ---------------------------------------------------------------
    def answer(self) -> SnapshotAnswer:
        """The snapshot answer (after the engine has been finalized)."""
        if not self._results:
            raise RuntimeError(
                "the sweep has not been finalized; call engine.run_to_end()"
                " or engine.finalize() first"
            )
        return self._results[self._k]

    def partial_answer(self, time: float) -> SnapshotAnswer:
        """The answer accumulated up to ``time``, without finalizing.

        The engine must already have been advanced to ``time``.  Open
        memberships are closed virtually, so the sweep — and this view —
        can keep running; the answer cache uses this to snapshot a
        continuation engine it will extend later.
        """
        return self._timelines[self._k].snapshot(time)

"""Shared-sweep evaluation of several k-NN queries at once.

A single precedence relation supports any number of rank-threshold
views simultaneously: the engine's events are processed once, and each
``k`` only needs its own boundary bookkeeping.  This amortizes the
dominant cost — intersection detection — across queries, a practical
extension the paper's architecture makes natural (all k-NN queries
share the same support).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.mod.updates import ObjectId
from repro.query.answers import SnapshotAnswer
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import RankView


class MultiKNN(RankView):
    """Maintain k-NN answers for several values of k over one sweep.

    Requires an engine with no constant sentinels and a single time
    term (same contract as :class:`~repro.sweep.knn.ContinuousKNN`).
    """

    def __init__(self, engine: SweepEngine, ks: Sequence[int]) -> None:
        values = tuple(sorted(set(int(k) for k in ks)))
        if not values:
            raise ValueError("need at least one k")
        if values[0] < 1:
            raise ValueError("every k must be positive")
        super().__init__(engine, values, "multiknn")

    @property
    def ks(self) -> List[int]:
        """The maintained k values, ascending."""
        return list(self._ks)

    def members(self, k: int) -> Set[ObjectId]:
        """The current k-NN answer for one maintained k."""
        return set(self._members[k])

    # -- results ------------------------------------------------------------------
    def answer(self, k: int) -> SnapshotAnswer:
        """The snapshot answer for one maintained k (after finalize)."""
        if k not in self._results:
            if k not in self._members:
                raise KeyError(f"k={k} was not maintained")
            raise RuntimeError(
                "the sweep has not been finalized; call engine.run_to_end()"
            )
        return self._results[k]

    def answers(self) -> Dict[int, SnapshotAnswer]:
        """All maintained answers keyed by k (after finalize)."""
        if len(self._results) != len(self._ks):
            raise RuntimeError(
                "the sweep has not been finalized; call engine.run_to_end()"
            )
        return dict(self._results)

    def partial_answers(self, time: float) -> Dict[int, SnapshotAnswer]:
        """Per-k answers accumulated up to ``time``, without finalizing
        (see :meth:`ContinuousKNN.partial_answer`)."""
        return {k: self._timelines[k].snapshot(time) for k in self._ks}

"""The one module that knows what a query kind is.

Section 5 has a single evaluation technique — Theorem 5
initialization plus per-update maintenance of one precedence order —
and k-NN and multi-k are *readings* of that order, within-range
(``f_o(t) <= c``) a reading of each curve on its own.
:class:`QuerySpec` is that reading as a value: every front door
(one-shot ``evaluate_*``, the session classes, the query server, the
wire ``open`` verb, EXPLAIN) builds one and
hands it down, so the layers below never re-decide how a threshold is
squared, which view class answers, or what the cache and the journal
call the parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.gdist.base import GDistance
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.query.answers import Answer, Members
from repro.sweep.knn import ContinuousKNN
from repro.sweep.multiknn import MultiKNN
from repro.trajectory.trajectory import Trajectory

__all__ = ["KNN", "MULTIKNN", "WITHIN", "Answer", "QueryLike", "QuerySpec"]

KNN = "knn"
WITHIN = "within"
MULTIKNN = "multiknn"
KINDS = (KNN, WITHIN, MULTIKNN)
# The one field each kind is parameterised by.
_PARAM = {KNN: "k", WITHIN: "threshold", MULTIKNN: "ks"}

QueryLike = Union[Trajectory, Sequence[float], GDistance]


def _as_gdistance(query: QueryLike) -> GDistance:
    if isinstance(query, GDistance):
        return query
    return SquaredEuclideanDistance(query)


@dataclass(frozen=True)
class QuerySpec:
    """One continuous query: a g-distance, a kind, the kind's parameter
    and — once placed on the time line with :meth:`over` — its window.

    Build one with :meth:`knn`, :meth:`within` or :meth:`multiknn`
    (what a caller states), or directly from ``(gdistance, kind,
    **params)`` (what the journal and the wire carry).  Picklable
    whenever the g-distance is.
    """

    gdistance: GDistance
    kind: str
    k: Optional[int] = None
    ks: Optional[Tuple[int, ...]] = None
    threshold: Optional[float] = None
    lo: Optional[float] = None
    hi: float = math.inf

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown query kind {self.kind!r}; expected one of {KINDS}"
            )
        name = _PARAM[self.kind]
        value = getattr(self, name)
        if value is None:
            raise ValueError(f"{self.kind} queries need {name!r}")
        if self.kind == KNN:
            value = int(value)
            if value < 1:
                raise ValueError("knn queries need a positive k")
        elif self.kind == WITHIN:
            value = float(value)
        else:
            value = tuple(sorted({int(k) for k in value}))
            if not value:
                raise ValueError("need at least one k")
        object.__setattr__(self, name, value)

    # -- what a caller states ----------------------------------------------
    @classmethod
    def knn(cls, query: QueryLike, k: int = 1) -> "QuerySpec":
        """The ``k`` nearest objects to ``query``."""
        return cls(_as_gdistance(query), KNN, k=k)

    @classmethod
    def within(cls, query: QueryLike, distance: float) -> "QuerySpec":
        """Objects within ``distance`` of ``query``.

        A trajectory or point ranks by *squared* Euclidean distance, so
        its radius is squared here; a custom g-distance is compared
        against ``distance`` as-is.
        """
        threshold = float(distance)
        if not isinstance(query, GDistance):
            threshold = threshold * threshold
        return cls(_as_gdistance(query), WITHIN, threshold=threshold)

    @classmethod
    def multiknn(cls, query: QueryLike, ks: Sequence[int]) -> "QuerySpec":
        """k-NN answers for several k values from one sweep."""
        return cls(_as_gdistance(query), MULTIKNN, ks=ks)

    def over(self, lo: float, hi: float = math.inf) -> "QuerySpec":
        """This query swept over ``[lo, hi]``."""
        return replace(self, lo=lo, hi=hi)

    # -- what the layers below read ------------------------------------------
    @property
    def params(self) -> dict:
        """The kind's parameter as the cache / journal / wire dict
        (``{"k": 2}``, ``{"threshold": 25.0}``, ``{"ks": [1, 3]}``):
        JSON-clean, and ``QuerySpec(gdistance, kind, **params)`` reads
        it back."""
        name = _PARAM[self.kind]
        value = getattr(self, name)
        return {name: list(value) if self.multi else value}

    @property
    def view_key(self) -> Tuple:
        """Specs with equal keys over one engine read the very same
        view timelines (the server's shared-view key)."""
        return (self.kind, getattr(self, _PARAM[self.kind]))

    @property
    def constants(self) -> Tuple[float, ...]:
        """Sentinel constant curves the sweep engine must carry."""
        return (self.threshold,) if self.kind == WITHIN else ()

    @property
    def multi(self) -> bool:
        """Whether answers and member sets are per-k dicts."""
        return self.kind == MULTIKNN

    @property
    def ranks(self) -> Tuple[int, ...]:
        """The rank boundaries this query reads, ascending (a range
        reading has none)."""
        return (self.k,) if self.kind == KNN else self.ks or ()

    @property
    def maintained_k(self) -> int:
        """The largest rank a view of this query keeps current."""
        return self.ranks[-1]

    @property
    def fingerprint(self) -> Tuple:
        """The cache key: kind, g-distance value fingerprint and the
        normalized parameter — never the window (the answer cache
        matches spans separately)."""
        kind, value = self.view_key
        return (kind, self.gdistance.cache_fingerprint(), value)

    def shaped(self, per_k: Dict[int, Any]):
        """Per-k values as this query reads them: the dict itself for
        multiknn, its single value for knn."""
        return per_k if self.multi else per_k[self.k]

    def widest(self, reading):
        """Of a members / answer reading, the part at the widest rank
        (a one-reading query: the reading itself)."""
        return reading[self.maintained_k] if self.multi else reading

    def view(self, engine):
        """Attach this rank query's answer view to ``engine`` (a range
        query is read off its own host,
        :class:`~repro.sweep.within.RangeSweep`)."""
        if self.kind == KNN:
            return ContinuousKNN(engine, self.k)
        return MultiKNN(engine, self.ks)

    def members(self, view) -> Members:
        """A view's current answer set (per k for multiknn)."""
        if self.multi:
            return {k: view.members(k) for k in self.ks}
        return view.members

    def answer(self, view) -> Answer:
        """The finalized answer of a view."""
        return view.answers() if self.multi else view.answer()

    def partial(self, view, time: float) -> Answer:
        """A view's answer up to ``time``, read non-destructively."""
        if self.multi:
            return view.partial_answers(time)
        return view.partial_answer(time)

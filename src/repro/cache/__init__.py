"""Incremental result caching for moving-object queries.

A sweep pays an ``O(N log N)`` initialization (Theorem 5) before its
event loop (Theorem 4); this package makes what both produce reusable
across queries, and holds results only — never an engine:

- :class:`CurveStore` memoizes the per-object g-distance curves the
  initialization builds, keyed by g-distance fingerprint and validated
  by trajectory identity — an update invalidates exactly the touched
  object's curves;
- :class:`AnswerCache` memoizes whole snapshot answers per query
  fingerprint and interval, serving sub-intervals by restriction and
  the covered prefix of a longer interval, so the caller sweeps only
  the gap and stores the union (Section 4's finite representation);
- :class:`QueryCache` bundles both behind one object that the query
  API accepts as ``cache=`` and that subscribes itself to the database
  for fine-grained update-driven invalidation.

See ``docs/paper_mapping.md`` ("Result caching") for the mapping onto
Theorems 4 and 5 and Section 4.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.geometry.intervals import Interval
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import Update

from repro.cache.answer_cache import AnswerCache, Payload
from repro.cache.curve_store import CurveStore
from repro.cache.fingerprint import (
    gdistance_fingerprint,
    is_identity_fingerprint,
    knn_fingerprint,
    multiknn_fingerprint,
    query_fingerprint,
    within_fingerprint,
)

__all__ = [
    "AnswerCache",
    "CurveStore",
    "QueryCache",
    "gdistance_fingerprint",
    "knn_fingerprint",
    "multiknn_fingerprint",
    "query_fingerprint",
    "within_fingerprint",
]


class QueryCache:
    """One cache object serving a whole query workload over one MOD.

    Pass it as ``cache=`` to :func:`repro.core.api.evaluate_knn` /
    ``evaluate_within`` / ``evaluate_multiknn``, to the
    :class:`~repro.core.api.ContinuousQuerySession` constructors (and
    so the supervised session's) and to a query server; it
    binds to the database on first use and keeps itself consistent
    through every subsequent update.  ``max_bytes`` is a combined LRU
    budget, split between curves and answers; ``observe=`` exports all
    ``cache_*`` metrics.
    """

    def __init__(
        self,
        max_bytes: Optional[int] = None,
        observe=None,
        max_entries_per_query: int = 8,
    ) -> None:
        curve_budget = answer_budget = None
        if max_bytes is not None:
            if max_bytes <= 0:
                raise ValueError("max_bytes must be positive (or None)")
            curve_budget = max(1, max_bytes // 2)
            answer_budget = max(1, max_bytes - curve_budget)
        self.curves = CurveStore(max_bytes=curve_budget, observe=observe)
        self.answers = AnswerCache(
            max_bytes=answer_budget,
            max_entries_per_query=max_entries_per_query,
            observe=observe,
        )
        self._db: Optional[MovingObjectDatabase] = None
        self._pinned = {}

    # -- database binding ---------------------------------------------------
    @property
    def db(self) -> Optional[MovingObjectDatabase]:
        """The database this cache is bound to (None before first use)."""
        return self._db

    def bind(self, db: MovingObjectDatabase) -> None:
        """Subscribe to ``db`` for update-driven invalidation.

        Idempotent for the same database; a cache cannot serve two
        databases (their answers would cross-contaminate).
        """
        if self._db is db:
            return
        if self._db is not None:
            raise ValueError(
                "cache is already bound to a different database; use one "
                "QueryCache per MOD"
            )
        self._db = db
        db.subscribe(self.on_update)

    def unbind(self) -> None:
        """Detach from the database (entries survive but go stale-safe:
        no further invalidation arrives, so also :meth:`clear`)."""
        if self._db is not None:
            self._db.unsubscribe(self.on_update)
            self._db = None
            self.clear()

    def on_update(self, update: Update) -> None:
        """Forward one update's invalidation to the answer cache.

        Curves need no call: the store validates by trajectory
        identity, and the database just replaced the touched object's
        trajectory.
        """
        self.answers.on_update(update)

    # -- lookups ------------------------------------------------------------
    def lookup(
        self,
        kind: str,
        gdistance,
        interval: Interval,
        profile=None,
        **params,
    ) -> Optional[Payload]:
        """The cached answer for one query over ``interval``, or None.

        ``profile`` (a :class:`~repro.obs.profile.QueryProfile`)
        attributes the restriction clip to the owning query's stage
        tree.
        """
        fp = query_fingerprint(kind, gdistance, **params)
        return self.answers.get(fp, interval, profile=profile)

    def prefix(
        self,
        kind: str,
        gdistance,
        interval: Interval,
        profile=None,
        **params,
    ) -> Optional[Tuple[float, Payload]]:
        """``(c, cached answer over [interval.lo, c])`` for the longest
        covered prefix of ``interval``, or None
        (:meth:`AnswerCache.prefix`); :meth:`lookup` is its
        ``c == interval.hi`` case."""
        fp = query_fingerprint(kind, gdistance, **params)
        return self.answers.prefix(fp, interval, profile=profile)

    def store(
        self,
        kind: str,
        gdistance,
        interval: Interval,
        payload: Payload,
        **params,
    ) -> Tuple:
        """Cache one query's answer; returns the fingerprint used.

        Id-fingerprinted g-distances are pinned (strong reference) so
        their identity key cannot be recycled while the entry lives.
        """
        fp = query_fingerprint(kind, gdistance, **params)
        if is_identity_fingerprint(gdistance.cache_fingerprint()):
            self._pinned[fp] = gdistance
        self.answers.put(fp, interval, payload)
        return fp

    def deposit(self, spec, interval: Interval, payload: Payload) -> None:
        """Store ``payload`` as the answer of ``spec`` (a
        :class:`~repro.core.spec.QuerySpec`) over ``interval`` — the
        one rule for a one-shot's answer and a closed session's: only a
        finite window is stored."""
        if interval.is_bounded:
            self.store(spec.kind, spec.gdistance, interval, payload, **spec.params)

    # -- bookkeeping --------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Combined answer+curve hit rate."""
        hits = self.answers.hits + self.curves.hits
        total = hits + self.answers.misses + self.curves.misses
        return hits / total if total else 0.0

    def stats(self) -> dict:
        """A plain-dict snapshot of all counters (benchmarks, tests)."""
        return {
            "answer_hits": self.answers.hits,
            "answer_misses": self.answers.misses,
            "answer_hit_rate": self.answers.hit_rate,
            "answer_entries": len(self.answers),
            "answer_bytes": self.answers.nbytes,
            "answer_evictions": self.answers.evictions,
            "answer_invalidations": self.answers.invalidations,
            "curve_hits": self.curves.hits,
            "curve_misses": self.curves.misses,
            "curve_hit_rate": self.curves.hit_rate,
            "curve_entries": len(self.curves),
            "curve_bytes": self.curves.nbytes,
            "curve_evictions": self.curves.evictions,
        }

    def clear(self) -> None:
        """Drop all cached curves and answers."""
        self.curves.clear()
        self.answers.clear()
        self._pinned.clear()

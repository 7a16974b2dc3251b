"""Memoized per-object g-distance curve construction.

Building an object's curve — evaluating the g-distance on its
trajectory — is the per-object unit of work in the Theorem 5
initialization: a fresh engine pays it for all ``N`` objects.  The
store memoizes curves keyed by ``(g-distance fingerprint, oid)`` and
validates hits by *trajectory identity*: trajectories are immutable
values that the database replaces wholesale on ``chdir``/``terminate``,
so an update naturally invalidates only the touched object's entry —
every other object re-hits, and a rebuild touches exactly the changed
curves instead of all ``N``.

One entry per object holds either the trajectory's whole history (what
a past query sweeps, :meth:`CurveStore.curve`) or its *tail* from some
instant on (what a live engine at that instant orders,
:meth:`CurveStore.tail`): a live open never builds the pieces behind
its clock, a whole-history entry serves every tail, and a whole-history
request rebuilds over a tail.

Entries are LRU-evicted against an optional byte budget (sizes are
estimated from piece counts).  ``observe=`` exports
``cache_curve_{hits,misses,evictions}_total`` counters and entry/byte
gauges through the standard instrumentation hook.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.gdist.base import GDistance
from repro.geometry.piecewise import PiecewiseFunction
from repro.mod.updates import ObjectId
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation
from repro.trajectory.trajectory import Trajectory

from repro.cache.fingerprint import (
    gdistance_fingerprint,
    is_identity_fingerprint,
)

__all__ = ["CurveStore"]


def _curve_nbytes(curve: PiecewiseFunction) -> int:
    """Rough resident size of one cached curve.

    Each piece carries an interval and a polynomial (a handful of
    boxed floats plus object headers); the constant is a measured
    ballpark, good enough to make the byte budget meaningful.
    """
    return 96 + 160 * curve.piece_count


class CurveStore:
    """An LRU map ``(g-distance fingerprint, oid) -> curve``.

    Pass one instance to any number of :class:`~repro.sweep.engine.
    SweepEngine` constructions (``curve_store=``): engines over the
    same database share curve work across re-initializations, sharded
    merge layers, and recovery rebuilds.  Correctness never depends on
    invalidation calls — a stale entry simply misses the identity check
    and is rebuilt.
    """

    def __init__(self, max_bytes: Optional[int] = None, observe=None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        self._max_bytes = max_bytes
        self._entries: "OrderedDict[Tuple, Tuple[Trajectory, PiecewiseFunction, int, float]]" = (
            OrderedDict()
        )
        self._by_oid: Dict[ObjectId, List[Tuple]] = {}
        # Strong references for id-fingerprinted g-distances: the id is
        # only unique while the instance is alive.
        self._pinned: Dict[Tuple, GDistance] = {}
        self._nbytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        metrics = (as_instrumentation(observe) or NULL_INSTRUMENTATION).metrics
        self._c_hits = metrics.counter(
            "cache_curve_hits_total",
            "Curve constructions served from the store.",
        )
        self._c_misses = metrics.counter(
            "cache_curve_misses_total",
            "Curve constructions that had to run the g-distance.",
        )
        self._c_evictions = metrics.counter(
            "cache_curve_evictions_total",
            "Curves evicted by the LRU byte budget.",
        )
        metrics.gauge(
            "cache_curve_entries", "Curves currently stored."
        ).set_function(lambda: len(self._entries))
        metrics.gauge(
            "cache_curve_bytes", "Estimated resident curve bytes."
        ).set_function(lambda: self._nbytes)

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Estimated resident size of all stored curves."""
        return self._nbytes

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- the lookup ---------------------------------------------------------
    def curve(
        self, gdistance: GDistance, oid: ObjectId, trajectory: Trajectory
    ) -> PiecewiseFunction:
        """The image ``gdistance(trajectory)`` over the trajectory's
        whole history, memoized (what a past query sweeps)."""
        return self.tail(gdistance, oid, trajectory, -math.inf)

    def tail(
        self,
        gdistance: GDistance,
        oid: ObjectId,
        trajectory: Trajectory,
        since: float,
    ) -> PiecewiseFunction:
        """The image of ``trajectory`` from ``since`` on, memoized:
        what a live engine at ``since`` orders (it never looks before
        its own clock, so the turns behind it need no curve pieces).

        A hit requires the cached entry to hold the *same trajectory
        instance* — the database replaces an object's trajectory on
        every structural update, so a changed object can never serve a
        stale curve — and to reach back at least to ``since``: a
        whole-history curve serves every tail, a tail serves the later
        ones.  The returned curve may start before ``since``.
        """
        fp = gdistance_fingerprint(gdistance)
        key = (fp, oid)
        entries = self._entries
        entry = entries.get(key)
        if entry is not None and entry[0] is trajectory and entry[3] <= since:
            entries.move_to_end(key)
            self.hits += 1
            self._c_hits.inc()
            return entry[1]
        self.misses += 1
        self._c_misses.inc()
        pieces = trajectory.pieces
        first = len(pieces) - 1
        while first and (
            pieces[first - 1].interval.hi > since
            or pieces[first].interval.is_point  # owns no stretch of the curve
        ):
            first -= 1
        if first:
            # The pieces that end at or before ``since`` are dropped (of
            # a trajectory that ended by then, all but the last); the
            # first one kept is not cut (a curve may start earlier).
            curve = gdistance(Trajectory._trusted(pieces[first:]))
        else:  # nothing behind ``since`` to drop
            since = -math.inf
            curve = gdistance(trajectory)
        nbytes = _curve_nbytes(curve)
        if entry is not None:
            self._nbytes -= entry[2]
            entries.move_to_end(key)
        else:
            self._by_oid.setdefault(oid, []).append(key)
        entries[key] = (trajectory, curve, nbytes, since)
        self._nbytes += nbytes
        if is_identity_fingerprint(fp):
            self._pinned[fp] = gdistance
        if self._max_bytes is not None:
            self._evict()
        return curve

    # -- invalidation -------------------------------------------------------
    def invalidate(self, oid: ObjectId) -> int:
        """Drop every curve of one object; returns how many.

        Optional (identity validation already guarantees freshness) —
        useful to release memory for objects known to be gone.
        """
        keys = self._by_oid.pop(oid, [])
        dropped = 0
        for key in keys:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._nbytes -= entry[2]
                dropped += 1
        return dropped

    def clear(self) -> None:
        """Drop everything."""
        self._entries.clear()
        self._by_oid.clear()
        self._pinned.clear()
        self._nbytes = 0

    def _evict(self) -> None:
        if self._max_bytes is None:
            return
        while self._nbytes > self._max_bytes and len(self._entries) > 1:
            key, (_, _, nbytes, _) = self._entries.popitem(last=False)
            self._nbytes -= nbytes
            self.evictions += 1
            self._c_evictions.inc()
            fp, oid = key
            keys = self._by_oid.get(oid)
            if keys is not None:
                try:
                    keys.remove(key)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not keys:
                    del self._by_oid[oid]

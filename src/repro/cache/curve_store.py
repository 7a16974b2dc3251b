"""Memoized per-object g-distance curve construction.

Building an object's curve — evaluating the g-distance on its
trajectory — is the per-object unit of work in the Theorem 5
initialization; a pass over all ``N`` objects (a plan, a range host's
records, a rank host's bar) pays it only for the curves its bounds
cannot decide, and reads the rest through :meth:`CurveStore.read` — a
held curve, else the g-distance's closed form.  The store memoizes
curves keyed by ``(g-distance fingerprint, oid)`` and
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
from typing import Dict, Optional, Tuple

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

#: Rough resident size of one cached curve: each piece carries an
#: interval and a polynomial (a handful of boxed floats plus object
#: headers); the constants are a measured ballpark, good enough to make
#: the byte budget meaningful.
_ENTRY_BYTES = 96
_PIECE_BYTES = 160

#: One stored curve: the trajectory it was built from, the curve, and
#: the instant it reaches back to (``-inf``: the whole history).
_Entry = Tuple[Trajectory, PiecewiseFunction, float]


class CurveStore:
    """An LRU map ``(g-distance fingerprint, oid) -> curve``.

    Pass one instance to any number of :class:`~repro.sweep.engine.
    SweepEngine` constructions (``curve_store=``): engines over the
    same database share curve work across re-initializations, one-shot
    slices, and recovery rebuilds.  Correctness never depends on
    invalidation calls — a stale entry simply misses the identity check
    and is rebuilt.

    The map is one table ``oid -> (trajectory, curve, since)`` per
    fingerprint.  A plan asks for every curve of one g-distance in a
    row, so the table of the instance asked last is kept at hand: a
    lookup hashes its oid, not the fingerprint (a nested tuple whose
    hash Python never caches).  Recency is only kept, and the counters
    only fed, where something reads them — a byte budget, an
    ``observe=`` bundle.
    """

    def __init__(self, max_bytes: Optional[int] = None, observe=None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        self._max_bytes = max_bytes
        self._tables: Dict[Tuple, Dict[ObjectId, _Entry]] = {}
        # The table of the g-distance instance looked up last.
        self._gdistance: Optional[GDistance] = None
        self._fingerprint: Tuple = ()
        self._table: Dict[ObjectId, _Entry] = {}
        # ``(fingerprint, oid)``, least recently used first: budget only.
        self._recency: Optional["OrderedDict[Tuple, None]"] = (
            None if max_bytes is None else OrderedDict()
        )
        # Strong references for id-fingerprinted g-distances: the id is
        # only unique while the instance is alive.
        self._pinned: Dict[Tuple, GDistance] = {}
        self._nbytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        instrumentation = as_instrumentation(observe)
        # Whether a lookup has anything to book beyond ``hits`` /
        # ``misses``: recency for the budget, counters for ``observe``.
        self._books = max_bytes is not None or instrumentation is not None
        metrics = (instrumentation or NULL_INSTRUMENTATION).metrics
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
        ).set_function(self.__len__)
        metrics.gauge(
            "cache_curve_bytes", "Estimated resident curve bytes."
        ).set_function(lambda: self._nbytes)

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

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
        if gdistance is self._gdistance:
            table = self._table
        else:
            table = self._select(gdistance)
        entry = table.get(oid)
        if entry is not None and entry[0] is trajectory and entry[2] <= since:
            self.hits += 1
            if self._books:
                self._book(oid, self._c_hits)
            return entry[1]
        self.misses += 1
        pieces = trajectory._pieces
        first = _first_kept(pieces, since) if len(pieces) > 1 else 0
        if first:
            # Of a trajectory that ended by then, all but the last piece
            # go; the first one kept is not cut (a curve may start
            # earlier).
            curve = gdistance(Trajectory._trusted(pieces[first:]))
        else:  # nothing behind ``since`` to drop
            since = -math.inf
            curve = gdistance(trajectory)
        nbytes = _PIECE_BYTES * len(curve._pieces)
        if entry is None:
            nbytes += _ENTRY_BYTES
        else:
            nbytes -= _PIECE_BYTES * len(entry[1]._pieces)
        self._nbytes += nbytes
        table[oid] = (trajectory, curve, since)
        if self._books:
            self._book(oid, self._c_misses)
        return curve

    def read(self, gdistance: GDistance, oid: ObjectId, trajectory: Trajectory, since: float):
        """What to read ``tail(gdistance, oid, trajectory, since)``'s
        ``domain``, ``bounds``, ``floor`` and ``forward_taylor`` off: the
        curve where the store holds it, else the g-distance's
        :class:`~repro.geometry.piecewise.ClosedForm` of the pieces it
        would be built from (bit for bit the same reads), else the
        curve, built now.  The one place a closed form is chosen over a
        curve; a read books nothing."""
        if gdistance is self._gdistance:
            table = self._table
        else:
            table = self._select(gdistance)
        entry = table.get(oid)
        if entry is not None and entry[0] is trajectory and entry[2] <= since:
            return entry[1]
        pieces = trajectory._pieces
        if len(pieces) > 1:
            pieces = pieces[_first_kept(pieces, since):]
        form = gdistance.closed_form(pieces)
        if form is None:
            return self.tail(gdistance, oid, trajectory, since)
        return form

    def _select(self, gdistance: GDistance) -> Dict[ObjectId, _Entry]:
        """Make ``gdistance``'s table the one at hand."""
        fp = gdistance_fingerprint(gdistance)
        table = self._tables.get(fp)
        if table is None:
            table = self._tables[fp] = {}
            if is_identity_fingerprint(fp):
                self._pinned[fp] = gdistance
        self._gdistance, self._fingerprint, self._table = gdistance, fp, table
        return table

    def _book(self, oid: ObjectId, counter) -> None:
        """A lookup of ``oid`` in the table at hand, for the metrics and
        the byte budget."""
        counter.inc()
        recency = self._recency
        if recency is not None:
            key = (self._fingerprint, oid)
            if key in recency:
                recency.move_to_end(key)
            else:
                recency[key] = None
            self._evict()

    # -- invalidation -------------------------------------------------------
    def invalidate(self, oid: ObjectId) -> int:
        """Drop every curve of one object; returns how many.

        Optional (identity validation already guarantees freshness) —
        useful to release memory for objects known to be gone.
        """
        dropped = 0
        for fp, table in self._tables.items():
            if self._drop(fp, table, oid):
                dropped += 1
        return dropped

    def clear(self) -> None:
        """Drop everything."""
        self._tables = {}
        self._gdistance, self._fingerprint, self._table = None, (), {}
        if self._recency is not None:
            self._recency.clear()
        self._pinned.clear()
        self._nbytes = 0

    def _drop(self, fp: Tuple, table: Dict[ObjectId, _Entry], oid: ObjectId) -> bool:
        entry = table.pop(oid, None)
        if entry is None:
            return False
        self._nbytes -= _ENTRY_BYTES + _PIECE_BYTES * len(entry[1]._pieces)
        if self._recency is not None:
            self._recency.pop((fp, oid), None)
        return True

    def _evict(self) -> None:
        recency = self._recency
        while self._nbytes > self._max_bytes and len(recency) > 1:
            fp, oid = next(iter(recency))
            self._drop(fp, self._tables[fp], oid)
            self.evictions += 1
            self._c_evictions.inc()


def _first_kept(pieces: Tuple, since: float) -> int:
    """The first of ``pieces`` a tail from ``since`` keeps: those that
    end by ``since`` go, and a piece of no length owns no stretch."""
    first = len(pieces) - 1
    while first:
        iv = pieces[first].interval
        if not (pieces[first - 1].interval.hi > since or iv.lo == iv.hi):
            break
        first -= 1
    return first

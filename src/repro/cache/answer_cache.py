"""Interval-indexed snapshot-answer cache: a span -> answer store.

An entry maps ``(query fingerprint, [lo, hi])`` to the query's
:class:`~repro.query.answers.SnapshotAnswer` over that span (a dict of
answers per k in multiknn mode) and nothing else: a sweep's state
lives with whoever runs the sweep, never here.  The one lookup,
:meth:`AnswerCache.prefix`, returns the cached answer over the longest
covered prefix ``[lo, c]`` of the requested interval, restricted by
interval-set intersection (Section 4's finite representation makes
this exact):

- **exact hit** — ``c == hi``: a cached span contains the interval
  (:meth:`AnswerCache.get` is this case alone);
- **extension hit** — ``lo < c < hi``: the caller sweeps only the gap
  ``[c, hi]`` (Theorem 4 over the gap), unions it onto the prefix and
  :meth:`put`\\ s the longer span back.  Every entry extends this way,
  whoever deposited it — a one-shot sweep or a closed session;
- **miss** — nothing covers ``lo``: the caller sweeps the whole
  interval and :meth:`put`\\ s the result.

Update-driven invalidation is fine-grained: an update at time ``t``
*preserves* every cached answer whose span ends at or before ``t``,
*clips* (does not drop) answers straddling ``t`` back to ``[lo, t]``,
and only drops answers lying entirely after ``t``.  A clipped span is
extended from ``t`` like any other.

Entries are LRU-evicted against an optional byte budget.  ``observe=``
exports ``cache_answer_*`` counters (hits by kind, misses,
invalidations by kind, evictions) and entry/byte gauges.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.geometry.intervals import Interval
from repro.geometry.tolerance import DEFAULT_ATOL
from repro.mod.updates import Update
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation
from repro.obs.profile import _stage
from repro.query.answers import Answer as Payload
from repro.query.answers import SnapshotAnswer, per_k

__all__ = ["AnswerCache", "clip_payload", "restrict_payload"]


def restrict_payload(
    payload: Payload, interval: Interval, atol: float = DEFAULT_ATOL
) -> Payload:
    """Restrict a cached answer (or per-k dict of answers) to a
    sub-interval of its span — the exact-hit path."""
    return per_k(lambda answer: answer.restrict(interval, atol), payload)


def clip_payload(payload: Payload, lo: float, hi: float) -> Payload:
    """Clip a cached answer to ``[lo, hi]`` (an inverted window
    collapses to ``[lo, lo]``) — the straddling-update invalidation
    path."""
    return restrict_payload(payload, Interval(lo, max(lo, hi)))


def _payload_nbytes(payload: Payload) -> int:
    answers: List[SnapshotAnswer] = []
    per_k(answers.append, payload)
    return 128 + sum(
        72 * len(a.objects) + 48 * a.segment_count() for a in answers
    )


class _Entry:
    """One cached span and its answer."""

    __slots__ = ("fingerprint", "lo", "hi", "payload", "nbytes")

    def __init__(self, fingerprint, lo, hi, payload) -> None:
        self.fingerprint = fingerprint
        self.lo = float(lo)
        self.hi = float(hi)
        self.payload = payload
        self.nbytes = _payload_nbytes(payload)


class AnswerCache:
    """LRU cache of snapshot answers, extendable span by span.

    Not bound to a database by itself: feed updates through
    :meth:`on_update` (the :class:`~repro.cache.QueryCache` facade
    subscribes it for you).  ``max_entries_per_query`` bounds how many
    disjoint spans one query fingerprint may hold.
    """

    def __init__(
        self,
        max_bytes: Optional[int] = None,
        max_entries_per_query: int = 8,
        atol: float = DEFAULT_ATOL,
        observe=None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        if max_entries_per_query < 1:
            raise ValueError("max_entries_per_query must be positive")
        self._max_bytes = max_bytes
        self._max_per_query = max_entries_per_query
        self._atol = atol
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self._next_id = 0
        self._nbytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        metrics = (as_instrumentation(observe) or NULL_INSTRUMENTATION).metrics
        hits = metrics.counter(
            "cache_answer_hits_total",
            "Answer-cache hits, by kind (exact restriction vs a "
            "covered prefix the caller extends by sweeping the gap).",
            labels=("kind",),
        )
        self._c_hit_exact = hits.labels(kind="exact")
        self._c_hit_extension = hits.labels(kind="extension")
        self._c_misses = metrics.counter(
            "cache_answer_misses_total",
            "Answer-cache lookups that fell through to a cold sweep.",
        )
        invalidations = metrics.counter(
            "cache_answer_invalidations_total",
            "Update-driven invalidations, by kind (clip keeps the "
            "prefix; drop removes the entry).",
            labels=("kind",),
        )
        self._c_inv_clip = invalidations.labels(kind="clip")
        self._c_inv_drop = invalidations.labels(kind="drop")
        self._c_evictions = metrics.counter(
            "cache_answer_evictions_total",
            "Entries evicted by the LRU byte budget.",
        )
        metrics.gauge(
            "cache_answer_entries", "Answer spans currently cached."
        ).set_function(lambda: len(self._entries))
        metrics.gauge(
            "cache_answer_bytes", "Estimated resident answer bytes."
        ).set_function(lambda: self._nbytes)

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Estimated resident size of all cached entries."""
        return self._nbytes

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def spans(self, fingerprint) -> List[Interval]:
        """The cached spans of one query fingerprint (tests, debugging)."""
        return [
            Interval(e.lo, e.hi)
            for e in self._entries.values()
            if e.fingerprint == fingerprint
        ]

    # -- lookups ------------------------------------------------------------
    def prefix(
        self, fingerprint, interval: Interval, profile=None
    ) -> Optional[Tuple[float, Payload]]:
        """``(c, answer over [interval.lo, c])`` for the longest prefix
        of ``interval`` a cached span covers, or None on a miss.

        ``c == interval.hi`` is an exact hit; a shorter prefix is an
        extension hit — the caller owes the gap ``[c, interval.hi]``.
        ``profile`` (a :class:`~repro.obs.profile.QueryProfile`)
        attributes the restriction clip to its stage.
        """
        return self._serve(fingerprint, interval, profile, partial=True)

    def get(
        self, fingerprint, interval: Interval, profile=None
    ) -> Optional[Payload]:
        """The answer over ``interval``, or None on a miss: the
        full-coverage case of :meth:`prefix` (a span that ends short
        of ``interval.hi`` is a miss here)."""
        covered = self._serve(fingerprint, interval, profile, partial=False)
        return None if covered is None else covered[1]

    def _serve(self, fingerprint, interval: Interval, profile, partial: bool):
        """The one scan: the most recent span of ``fingerprint``
        containing ``interval``, else — when ``partial`` cover counts
        as a hit — the one reaching furthest into it from its start."""
        atol = self._atol
        best, reach = None, interval.lo
        for key in reversed(self._entries):
            entry = self._entries[key]
            if entry.fingerprint != fingerprint or entry.lo - atol > interval.lo:
                continue
            if entry.hi + atol >= interval.hi:
                best, reach = key, interval.hi
                break
            if partial and entry.hi > reach:
                best, reach = key, entry.hi
        if best is None:
            self.misses += 1
            self._c_misses.inc()
            return None
        self._entries.move_to_end(best)
        self.hits += 1
        if reach == interval.hi:
            self._c_hit_exact.inc()
        else:
            self._c_hit_extension.inc()
        with _stage(profile, "clip"):
            return reach, restrict_payload(
                self._entries[best].payload, Interval(interval.lo, reach), atol
            )

    # -- insertion ----------------------------------------------------------
    def put(
        self,
        fingerprint,
        interval: Interval,
        payload: Payload,
    ) -> None:
        """Cache an answer over ``interval``.  Spans of the same
        fingerprint contained in the new one are superseded."""
        atol = self._atol
        for key in [
            k
            for k, e in self._entries.items()
            if e.fingerprint == fingerprint
            and interval.lo - atol <= e.lo
            and e.hi <= interval.hi + atol
        ]:
            self._drop(key)
        same = [
            k
            for k, e in self._entries.items()
            if e.fingerprint == fingerprint
        ]
        while len(same) >= self._max_per_query:
            self._drop(same.pop(0))
            self.evictions += 1
            self._c_evictions.inc()
        entry = _Entry(fingerprint, interval.lo, interval.hi, payload)
        key = self._next_id
        self._next_id += 1
        self._entries[key] = entry
        self._nbytes += entry.nbytes
        self._evict()

    # -- update-driven invalidation -----------------------------------------
    def on_update(self, update: Update) -> None:
        """Apply one database update's invalidation semantics.

        An update at ``t`` changes trajectories only from ``t`` onward
        (Definition 3), so a cached span ending at or before ``t`` is
        untouched; a span straddling ``t`` keeps its valid prefix
        ``[lo, t]``; a span starting after ``t`` is dropped.
        """
        t = update.time
        atol = self._atol
        for key in list(self._entries):
            entry = self._entries[key]
            if entry.hi <= t + atol:
                continue
            if t <= entry.lo + atol:
                self._drop(key)
                self.invalidations += 1
                self._c_inv_drop.inc()
                continue
            clipped = _Entry(
                entry.fingerprint,
                entry.lo,
                t,
                clip_payload(entry.payload, entry.lo, t),
            )
            self._nbytes += clipped.nbytes - entry.nbytes
            self._entries[key] = clipped
            self.invalidations += 1
            self._c_inv_clip.inc()

    # -- bookkeeping ----------------------------------------------------------
    def clear(self) -> None:
        """Drop everything."""
        self._entries.clear()
        self._nbytes = 0

    def _drop(self, key: int) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._nbytes -= entry.nbytes

    def _evict(self) -> None:
        if self._max_bytes is None:
            return
        while self._nbytes > self._max_bytes and len(self._entries) > 1:
            key = next(iter(self._entries))
            self._drop(key)
            self.evictions += 1
            self._c_evictions.inc()

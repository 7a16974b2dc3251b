"""Interval-indexed snapshot-answer cache with incremental extension.

An entry maps ``(query fingerprint, [lo, hi])`` to the query's
:class:`~repro.query.answers.SnapshotAnswer` over that span (a dict of
answers per k in multiknn mode), optionally together with the live
sweep engine + view that produced it.  Three ways a lookup is served:

- **exact sub-interval hit** — a cached span contains the requested
  interval; the answer is restricted by interval-set intersection
  (Section 4's finite representation makes this exact);
- **extension hit** — the cached span starts at (or before) the
  requested start but ends short, and the entry still holds its
  engine: pending updates are replayed and the sweep *continues* from
  ``hi`` to the requested end — Theorem 5's incremental maintenance —
  instead of a fresh ``O(N log N)`` initialization;
- **miss** — the caller evaluates from scratch and :meth:`put`\\ s the
  result back.

Update-driven invalidation is fine-grained (the tentpole's bugfix
semantics): an update at time ``t`` *preserves* every cached answer
whose span ends at or before ``t``, *clips* (does not drop) answers
straddling ``t`` back to ``[lo, t]``, and only drops answers lying
entirely after ``t``.  Entries whose engine has already swept past
``t`` keep the engine by buffering the update for replay-on-extension;
otherwise the engine is stale (a sweep cannot rewind) and only the
clipped answer survives.

Entries are LRU-evicted against an optional byte budget.  ``observe=``
exports ``cache_answer_*`` counters (hits by kind, misses,
invalidations by kind, evictions, replayed updates) and entry/byte
gauges.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

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
    """One cached span, with optional continuation state."""

    __slots__ = (
        "fingerprint",
        "lo",
        "hi",
        "payload",
        "engine",
        "view",
        "pending",
        "nbytes",
    )

    def __init__(self, fingerprint, lo, hi, payload, engine, view) -> None:
        self.fingerprint = fingerprint
        self.lo = float(lo)
        self.hi = float(hi)
        self.payload = payload
        self.engine = engine
        self.view = view
        self.pending: List[Update] = []
        self.nbytes = 0
        self.recount()

    def recount(self) -> None:
        nbytes = _payload_nbytes(self.payload)
        if self.engine is not None:
            nbytes += 1024 + 256 * len(self.engine.all_entries())
        self.nbytes = nbytes

    def drop_engine(self) -> None:
        self.engine = None
        self.view = None
        self.pending = []
        self.recount()

    def snapshot(self, time: float) -> Payload:
        if hasattr(self.view, "partial_answers"):
            return self.view.partial_answers(time)
        return self.view.partial_answer(time)


class AnswerCache:
    """LRU cache of snapshot answers with Theorem 5 continuation.

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
        self.replayed_updates = 0
        metrics = (as_instrumentation(observe) or NULL_INSTRUMENTATION).metrics
        hits = metrics.counter(
            "cache_answer_hits_total",
            "Answer-cache hits, by kind (exact restriction vs "
            "Theorem 5 sweep continuation).",
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
        self._c_replayed = metrics.counter(
            "cache_answer_replayed_updates_total",
            "Buffered updates replayed into continuation engines.",
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
    def get(
        self, fingerprint, interval: Interval, profile=None
    ) -> Optional[Payload]:
        """The answer over ``interval``, or None on a miss.

        Serves exact sub-interval hits by restriction and forward
        extensions by sweep continuation; either way the returned
        payload covers exactly ``interval``.  ``profile`` (a
        :class:`~repro.obs.profile.QueryProfile`) attributes the
        restriction clip and any sweep continuation to their stages.
        """
        atol = self._atol
        best_ext: Optional[_Entry] = None
        for key in reversed(self._entries):
            entry = self._entries[key]
            if entry.fingerprint != fingerprint:
                continue
            if (
                entry.lo - atol <= interval.lo
                and interval.hi <= entry.hi + atol
            ):
                self._entries.move_to_end(key)
                self.hits += 1
                self._c_hit_exact.inc()
                with _stage(profile, "clip"):
                    return restrict_payload(entry.payload, interval, atol)
            if (
                entry.engine is not None
                and entry.lo - atol <= interval.lo
                and interval.hi > entry.hi
                and best_ext is None
            ):
                best_ext = entry
        if best_ext is not None:
            engine = best_ext.engine
            with _stage(profile, "cache.extend") as st:
                ops_before = engine.primitive_ops()
                payload = self._extend(best_ext, interval.hi)
                st.annotate(ops=engine.primitive_ops() - ops_before)
            self.hits += 1
            self._c_hit_extension.inc()
            with _stage(profile, "clip"):
                return restrict_payload(payload, interval, atol)
        self.misses += 1
        self._c_misses.inc()
        return None

    def _extend(self, entry: _Entry, target: float) -> Payload:
        """Continue the entry's sweep to ``target`` (Theorem 5's
        incremental step: replay buffered updates, then advance)."""
        engine = entry.engine
        replayed = len(entry.pending)
        for update in entry.pending:
            engine.on_update(update)
        entry.pending = []
        if replayed:
            self.replayed_updates += replayed
            self._c_replayed.inc(replayed)
        if engine.current_time < target:
            engine.advance_to(target)
        new_hi = max(target, engine.current_time)
        entry.payload = entry.snapshot(new_hi)
        entry.hi = new_hi
        self._nbytes -= entry.nbytes
        entry.recount()
        self._nbytes += entry.nbytes
        self._evict()
        return entry.payload

    # -- insertion ----------------------------------------------------------
    def put(
        self,
        fingerprint,
        interval: Interval,
        payload: Payload,
        engine=None,
        view=None,
    ) -> None:
        """Cache an answer over ``interval``.

        Pass the (still-live, un-finalized) ``engine`` and ``view``
        that produced it to enable extension hits; without them the
        entry serves sub-interval restrictions only.  Spans of the same
        fingerprint contained in the new one (and holding no engine)
        are superseded.
        """
        if engine is not None and view is None:
            raise ValueError("an engine needs its view for continuation")
        atol = self._atol
        for key in [
            k
            for k, e in self._entries.items()
            if e.fingerprint == fingerprint
            and e.engine is None
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
        entry = _Entry(
            fingerprint, interval.lo, interval.hi, payload, engine, view
        )
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
        ``[lo, t]``; a span starting after ``t`` is dropped.  A live
        continuation engine that has not yet swept past ``t`` keeps
        working by buffering the update for replay; one that has is
        stale (sweeps cannot rewind) and is released.
        """
        t = update.time
        atol = self._atol
        for key in list(self._entries):
            entry = self._entries[key]
            if entry.engine is not None and t >= entry.engine.current_time:
                entry.pending.append(update)
                continue
            if entry.engine is not None:
                # The engine swept past t (probe/extension race): the
                # answer prefix survives, the engine cannot.
                entry.drop_engine()
            if entry.hi <= t + atol:
                continue
            if t <= entry.lo + atol:
                self._drop(key)
                self.invalidations += 1
                self._c_inv_drop.inc()
                continue
            self._nbytes -= entry.nbytes
            entry.payload = clip_payload(entry.payload, entry.lo, t)
            entry.hi = t
            entry.recount()
            self._nbytes += entry.nbytes
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

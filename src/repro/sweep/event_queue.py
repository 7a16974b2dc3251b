"""The event queue ``E`` (Lemma 9).

A plain heap is insufficient because processing ``terminate`` or
``chdir`` must *delete* all events related to one object.  The paper's
fix is twofold: (a) keep only the earliest future intersection per
*current* neighbor pair — so the queue length never exceeds the number
of adjacent pairs, at most N — and (b) use a structure supporting
keyed deletion (they suggest a height-biased leftist tree or
bidirectional pointers).  We implement the equivalent *indexed binary
heap*: a position map from pair keys to heap slots gives O(log n)
``remove`` alongside O(log n) ``push``/``pop``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

PairKey = Tuple[int, int]

_EVENT_SEQ = itertools.count()


def pair_key(seq_a: int, seq_b: int) -> PairKey:
    """Canonical unordered key for a neighbor pair of entry seqs."""
    return (seq_a, seq_b) if seq_a <= seq_b else (seq_b, seq_a)


@dataclass(frozen=True)
class IntersectionEvent:
    """A scheduled order flip of two currently-adjacent curves."""

    time: float
    key: PairKey
    #: Monotone tiebreak so equal-time events pop deterministically in
    #: scheduling order.
    order: int = field(default_factory=lambda: next(_EVENT_SEQ))
    #: ``(time, order)``, the heap order.  Stored once: every sift step
    #: compares two of these.
    sort_key: Tuple[float, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sort_key", (self.time, self.order))


class IndexedEventQueue:
    """A binary min-heap of :class:`IntersectionEvent` with keyed deletion.

    At most one event per pair key may be present; pushing a key that is
    already queued is an error (the engine's invariant is that a pair's
    event is removed before the pair is rescheduled).
    """

    def __init__(self) -> None:
        self._heap: List[IntersectionEvent] = []
        self._position: Dict[PairKey, int] = {}
        #: High-water mark, recorded for Lemma 9's queue-length claim.
        #: Updated inside every ``push`` (and ``heapify``), so it is the
        #: true maximum, not a sample at event boundaries.
        self.max_length = 0
        #: Primitive operation counters (the quantities Theorems 4/5
        #: and Corollary 6 actually bound: each push/pop/remove costs
        #: O(log n) sift steps).  Plain ints, always on — same
        #: philosophy as ``SweepStats``.
        self.pushes = 0
        self.pops = 0
        self.removes = 0
        self.sift_steps = 0

    def operation_counts(self) -> Dict[str, int]:
        """Snapshot of the queue's primitive operation counters."""
        return {
            "queue_pushes": self.pushes,
            "queue_pops": self.pops,
            "queue_removes": self.removes,
            "queue_sift_steps": self.sift_steps,
        }

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, key: PairKey) -> bool:
        return key in self._position

    @property
    def is_empty(self) -> bool:
        """True when no events are queued."""
        return not self._heap

    def push(self, event: IntersectionEvent) -> None:
        """Add an event for a pair not currently queued."""
        if event.key in self._position:
            raise ValueError(f"pair {event.key} already queued")
        self._heap.append(event)
        self._position[event.key] = len(self._heap) - 1
        self._sift_up(len(self._heap) - 1)
        self.pushes += 1
        if len(self._heap) > self.max_length:
            self.max_length = len(self._heap)

    def remove(self, key: PairKey) -> Optional[IntersectionEvent]:
        """Remove and return the event for ``key``; None if absent."""
        idx = self._position.get(key)
        if idx is None:
            return None
        event = self._heap[idx]
        self._delete_at(idx)
        self.removes += 1
        return event

    def pop(self) -> IntersectionEvent:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        event = self._heap[0]
        self._delete_at(0)
        self.pops += 1
        return event

    def peek(self) -> Optional[IntersectionEvent]:
        """The earliest event without removing it; None when empty."""
        return self._heap[0] if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest event; None when empty."""
        return self._heap[0].time if self._heap else None

    def clear(self) -> None:
        """Drop all events."""
        self._heap.clear()
        self._position.clear()

    def heapify(self, events: List[IntersectionEvent]) -> None:
        """Replace the contents with ``events`` in O(n).

        Used by Theorem 10's query-trajectory ``chdir``, which rebuilds
        every pair event at once and must stay within O(N).
        """
        self.clear()
        self._heap = list(events)
        keys = set()
        for event in self._heap:
            if event.key in keys:
                raise ValueError(f"duplicate pair {event.key}")
            keys.add(event.key)
        for idx in range(len(self._heap) // 2 - 1, -1, -1):
            self._sift_down(idx)
        self._position = {e.key: i for i, e in enumerate(self._heap)}
        self.max_length = max(self.max_length, len(self._heap))

    # -- internals -----------------------------------------------------
    def _delete_at(self, idx: int) -> None:
        key = self._heap[idx].key
        last = self._heap.pop()
        del self._position[key]
        if idx < len(self._heap):
            self._heap[idx] = last
            self._position[last.key] = idx
            self._sift_down(idx)
            self._sift_up(idx)

    def _sift_up(self, idx: int) -> None:
        heap = self._heap
        event = heap[idx]
        steps = 0
        while idx > 0:
            parent = (idx - 1) // 2
            steps += 1
            if heap[parent].sort_key <= event.sort_key:
                break
            heap[idx] = heap[parent]
            self._position[heap[idx].key] = idx
            idx = parent
        heap[idx] = event
        self._position[event.key] = idx
        self.sift_steps += steps

    def _sift_down(self, idx: int) -> None:
        heap = self._heap
        size = len(heap)
        event = heap[idx]
        steps = 0
        while True:
            child = 2 * idx + 1
            if child >= size:
                break
            steps += 1
            right = child + 1
            if right < size and heap[right].sort_key < heap[child].sort_key:
                child = right
            if heap[child].sort_key >= event.sort_key:
                break
            heap[idx] = heap[child]
            self._position[heap[idx].key] = idx
            idx = child
        heap[idx] = event
        self._position[event.key] = idx
        self.sift_steps += steps

    def _check_invariants(self) -> None:
        """Test hook: verify heap order and position-map consistency."""
        for idx in range(1, len(self._heap)):
            parent = (idx - 1) // 2
            assert self._heap[parent].sort_key <= self._heap[idx].sort_key
        assert len(self._position) == len(self._heap)
        for key, idx in self._position.items():
            assert self._heap[idx].key == key

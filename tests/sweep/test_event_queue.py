"""Tests for the indexed event queue (Lemma 9's deletable heap)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep.event_queue import IndexedEventQueue, IntersectionEvent, pair_key


def ev(time, a, b):
    return IntersectionEvent(time, pair_key(a, b))


class TestPairKey:
    def test_canonical_order(self):
        assert pair_key(3, 7) == (3, 7)
        assert pair_key(7, 3) == (3, 7)


class TestEventOrder:
    def test_sort_key_is_time_then_scheduling_order(self):
        first, second = ev(2.0, 1, 2), ev(2.0, 3, 4)
        assert first.sort_key == (2.0, first.order)
        assert first.sort_key < second.sort_key
        assert ev(1.0, 5, 6).sort_key < first.sort_key

    def test_sort_key_is_not_part_of_identity(self):
        event = IntersectionEvent(1.0, pair_key(1, 2), order=7)
        assert event == IntersectionEvent(1.0, pair_key(1, 2), order=7)
        assert "sort_key" not in repr(event)


class TestBasicOperations:
    def test_push_pop_ordered(self):
        q = IndexedEventQueue()
        q.push(ev(5.0, 1, 2))
        q.push(ev(1.0, 3, 4))
        q.push(ev(3.0, 5, 6))
        assert [q.pop().time for _ in range(3)] == [1.0, 3.0, 5.0]

    def test_peek(self):
        q = IndexedEventQueue()
        assert q.peek() is None
        assert q.peek_time() is None
        q.push(ev(2.0, 1, 2))
        assert q.peek_time() == 2.0
        assert len(q) == 1  # peek does not remove

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            IndexedEventQueue().pop()

    def test_duplicate_pair_rejected(self):
        q = IndexedEventQueue()
        q.push(ev(1.0, 1, 2))
        with pytest.raises(ValueError):
            q.push(ev(2.0, 2, 1))

    def test_contains(self):
        q = IndexedEventQueue()
        q.push(ev(1.0, 1, 2))
        assert pair_key(2, 1) in q
        assert pair_key(1, 3) not in q

    def test_remove(self):
        q = IndexedEventQueue()
        q.push(ev(1.0, 1, 2))
        q.push(ev(2.0, 3, 4))
        removed = q.remove(pair_key(1, 2))
        assert removed.time == 1.0
        assert q.pop().key == pair_key(3, 4)

    def test_remove_absent_returns_none(self):
        assert IndexedEventQueue().remove(pair_key(1, 2)) is None

    def test_remove_then_repush_allowed(self):
        q = IndexedEventQueue()
        q.push(ev(1.0, 1, 2))
        q.remove(pair_key(1, 2))
        q.push(ev(5.0, 1, 2))
        assert q.peek_time() == 5.0

    def test_equal_times_pop_in_schedule_order(self):
        q = IndexedEventQueue()
        first = ev(1.0, 1, 2)
        second = ev(1.0, 3, 4)
        q.push(first)
        q.push(second)
        assert q.pop() is first
        assert q.pop() is second

    def test_clear(self):
        q = IndexedEventQueue()
        q.push(ev(1.0, 1, 2))
        q.clear()
        assert q.is_empty

    def test_max_length_tracked(self):
        q = IndexedEventQueue()
        for i in range(5):
            q.push(ev(float(i), i, i + 100))
        for _ in range(5):
            q.pop()
        assert q.max_length == 5


class TestHeapify:
    def test_bulk_replace(self):
        q = IndexedEventQueue()
        q.push(ev(99.0, 7, 8))
        events = [ev(float(i), i, i + 100) for i in (5, 1, 3, 2, 4)]
        q.heapify(events)
        assert pair_key(7, 8) not in q
        assert [q.pop().time for _ in range(5)] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_heapify_duplicate_rejected(self):
        q = IndexedEventQueue()
        with pytest.raises(ValueError):
            q.heapify([ev(1.0, 1, 2), ev(2.0, 2, 1)])

    def test_heapify_empty(self):
        q = IndexedEventQueue()
        q.push(ev(1.0, 1, 2))
        q.heapify([])
        assert q.is_empty


class TestRandomized:
    @given(st.lists(st.tuples(st.floats(0, 100, allow_nan=False), st.integers(0, 50)), min_size=1, max_size=60))
    @settings(max_examples=40)
    def test_pops_sorted(self, items):
        q = IndexedEventQueue()
        seen = set()
        times = []
        for t, i in items:
            key = pair_key(i, i + 1000)
            if key in seen:
                continue
            seen.add(key)
            q.push(IntersectionEvent(t, key))
            times.append(t)
        q._check_invariants()
        popped = [q.pop().time for _ in range(len(q))]
        assert popped == sorted(times)

    def test_interleaved_push_remove_pop(self):
        rng = random.Random(42)
        q = IndexedEventQueue()
        live = {}
        last_popped = -1.0
        for step in range(2000):
            action = rng.random()
            if action < 0.5 or not live:
                key = pair_key(rng.randrange(1000), 1000 + rng.randrange(1000))
                if key not in live:
                    t = rng.uniform(0, 1000)
                    q.push(IntersectionEvent(t, key))
                    live[key] = t
            elif action < 0.75:
                key = rng.choice(list(live))
                q.remove(key)
                del live[key]
            else:
                event = q.pop()
                assert event.time == min(live.values())
                del live[event.key]
            if step % 200 == 0:
                q._check_invariants()
        q._check_invariants()

"""Unit tests for the g-distance curve store."""

import pytest

from repro.cache import CurveStore
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.vectors import Vector
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New
from repro.obs.instrument import Instrumentation


def make_db(n=4):
    db = MovingObjectDatabase(initial_time=0.0)
    for i in range(n):
        db.apply(
            New(
                f"o{i}",
                0.001 * (i + 1),
                velocity=Vector.of(1.0 + i, -0.5 * i),
                position=Vector.of(float(i), float(-i)),
            )
        )
    return db


class TestHitsAndMisses:
    def test_repeat_lookup_hits(self):
        db = make_db()
        gd = SquaredEuclideanDistance([0.0, 0.0])
        store = CurveStore()
        first = store.curve(gd, "o0", db.trajectory("o0"))
        second = store.curve(gd, "o0", db.trajectory("o0"))
        assert first is second
        assert store.hits == 1 and store.misses == 1
        assert store.hit_rate == 0.5

    def test_equal_but_distinct_gdistances_share_entries(self):
        db = make_db()
        store = CurveStore()
        store.curve(SquaredEuclideanDistance([1.0, 2.0]), "o1", db.trajectory("o1"))
        store.curve(SquaredEuclideanDistance([1.0, 2.0]), "o1", db.trajectory("o1"))
        assert store.hits == 1 and len(store) == 1

    def test_distinct_queries_do_not_collide(self):
        db = make_db()
        store = CurveStore()
        a = store.curve(SquaredEuclideanDistance([0.0, 0.0]), "o1", db.trajectory("o1"))
        b = store.curve(SquaredEuclideanDistance([9.0, 9.0]), "o1", db.trajectory("o1"))
        assert store.misses == 2
        assert a(1.0) != b(1.0)

    def test_curve_value_matches_direct_construction(self):
        db = make_db()
        gd = SquaredEuclideanDistance([3.0, -2.0])
        store = CurveStore()
        cached = store.curve(gd, "o2", db.trajectory("o2"))
        direct = gd(db.trajectory("o2"))
        for t in (0.1, 0.7, 2.5):
            assert cached(t) == pytest.approx(direct(t))


class TestInvalidation:
    def test_update_invalidates_only_touched_object(self):
        db = make_db()
        gd = SquaredEuclideanDistance([0.0, 0.0])
        store = CurveStore()
        for oid in db.object_ids:
            store.curve(gd, oid, db.trajectory(oid))
        db.apply(ChangeDirection("o1", 1.0, Vector.of(0.0, 0.0)))
        # Identity validation: the replaced trajectory misses, the
        # untouched ones still hit.
        store.curve(gd, "o1", db.trajectory("o1"))
        assert store.misses == len(db.object_ids) + 1
        store.curve(gd, "o0", db.trajectory("o0"))
        assert store.hits == 1

    def test_stale_entry_is_replaced_not_duplicated(self):
        db = make_db()
        gd = SquaredEuclideanDistance([0.0, 0.0])
        store = CurveStore()
        store.curve(gd, "o1", db.trajectory("o1"))
        db.apply(ChangeDirection("o1", 1.0, Vector.of(2.0, 2.0)))
        store.curve(gd, "o1", db.trajectory("o1"))
        assert len(store) == 1

    def test_explicit_invalidate_drops_all_curves_of_object(self):
        db = make_db()
        store = CurveStore()
        store.curve(SquaredEuclideanDistance([0.0, 0.0]), "o1", db.trajectory("o1"))
        store.curve(SquaredEuclideanDistance([5.0, 5.0]), "o1", db.trajectory("o1"))
        store.curve(SquaredEuclideanDistance([0.0, 0.0]), "o2", db.trajectory("o2"))
        assert store.invalidate("o1") == 2
        assert len(store) == 1
        assert store.invalidate("missing") == 0


class TestEviction:
    def test_lru_eviction_respects_budget(self):
        db = make_db(8)
        gd = SquaredEuclideanDistance([0.0, 0.0])
        one = CurveStore()
        one.curve(gd, "o0", db.trajectory("o0"))
        budget = one.nbytes * 3 + 1
        store = CurveStore(max_bytes=budget)
        for oid in db.object_ids:
            store.curve(gd, oid, db.trajectory(oid))
        assert store.nbytes <= budget
        assert store.evictions > 0
        # Most recent entries survive; the oldest were evicted.
        store.curve(gd, "o7", db.trajectory("o7"))
        assert store.hits == 1
        store.curve(gd, "o0", db.trajectory("o0"))
        assert store.misses == len(db.object_ids) + 1

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            CurveStore(max_bytes=0)


class TestMetrics:
    def test_counters_and_gauges_export(self):
        db = make_db()
        obs = Instrumentation()
        gd = SquaredEuclideanDistance([0.0, 0.0])
        store = CurveStore(observe=obs)
        store.curve(gd, "o0", db.trajectory("o0"))
        store.curve(gd, "o0", db.trajectory("o0"))
        snap = obs.snapshot()
        assert snap["cache_curve_hits_total"] == 1
        assert snap["cache_curve_misses_total"] == 1
        assert snap["cache_curve_entries"] == 1
        assert snap["cache_curve_bytes"] == store.nbytes


class TestTails:
    """A live engine's curves start at its clock (DESIGN decision 17):
    one entry per object, whole-history or a tail."""

    def turned(self):
        db = make_db(1)
        for i in range(1, 6):
            db.apply(ChangeDirection("o0", float(i), Vector.of(1.0, float(i))))
        return db, SquaredEuclideanDistance([0.0, 0.0])

    def test_a_tail_drops_the_pieces_behind_it_and_only_those(self):
        db, gd = self.turned()
        trajectory = db.trajectory("o0")
        store = CurveStore()
        tail = store.tail(gd, "o0", trajectory, 3.5)
        whole = gd(trajectory)
        assert whole.piece_count == 6 and tail.piece_count == 3
        assert tail.domain.lo == 3.0, "the first piece kept is not cut"
        assert tail.pieces == whole.pieces[3:], "bitwise the same polynomials"
        assert CurveStore().tail(gd, "o0", trajectory, 5.0).piece_count == 1
        assert CurveStore().tail(gd, "o0", trajectory, 0.0005) == whole

    def test_an_earlier_entry_serves_every_later_tail(self):
        db, gd = self.turned()
        trajectory = db.trajectory("o0")
        store = CurveStore()
        first = store.tail(gd, "o0", trajectory, 2.5)
        assert store.tail(gd, "o0", trajectory, 4.5) is first
        assert store.tail(gd, "o0", trajectory, 2.5) is first
        assert (store.hits, store.misses, len(store)) == (2, 1, 1)
        earlier = store.tail(gd, "o0", trajectory, 1.5)  # reaches further back
        assert earlier is not first and earlier.piece_count == 5
        assert (store.misses, len(store)) == (2, 1), "rebuilt in place"

    def test_whole_history_serves_tails_and_is_never_served_by_one(self):
        db, gd = self.turned()
        trajectory = db.trajectory("o0")
        store = CurveStore()
        tail = store.tail(gd, "o0", trajectory, 4.5)
        whole = store.curve(gd, "o0", trajectory)  # a past query's curve
        assert whole is not tail and whole.piece_count == 6
        assert store.tail(gd, "o0", trajectory, 4.5) is whole
        assert store.curve(gd, "o0", trajectory) is whole
        assert (store.hits, store.misses, len(store)) == (2, 2, 1)

    def test_a_replaced_trajectory_misses(self):
        db, gd = self.turned()
        store = CurveStore()
        before = store.tail(gd, "o0", db.trajectory("o0"), 5.5)
        db.apply(ChangeDirection("o0", 6.0, Vector.of(0.0, 0.0)))
        after = store.tail(gd, "o0", db.trajectory("o0"), 6.0)
        assert after is not before and after.piece_count == 1

    def test_nothing_to_drop_is_the_whole_curve(self):
        db = make_db(1)
        gd = SquaredEuclideanDistance([0.0, 0.0])
        store = CurveStore()
        tail = store.tail(gd, "o0", db.trajectory("o0"), 7.0)
        assert store.curve(gd, "o0", db.trajectory("o0")) is tail
        db.terminate("o0", 8.0)  # ended before the clock: no tail to cut
        ended = db.trajectory("o0")
        assert store.tail(gd, "o0", ended, 9.0) is store.curve(gd, "o0", ended)

    def test_an_ended_trajectory_needs_its_last_piece_only(self):
        db, gd = self.turned()
        db.terminate("o0", 5.5)
        ended = db.trajectory("o0")
        assert len(ended.pieces) == 6 and ended.domain.hi == 5.5
        whole = gd(ended)
        for since in (5.5, 9.0):  # a clock at its end, or past it
            store = CurveStore()
            tail = store.tail(gd, "o0", ended, since)
            assert tail.piece_count == 1, "not its whole history"
            assert tail.pieces == whole.pieces[-1:]
            assert store.tail(gd, "o0", ended, since + 1.0) is tail
            assert store.curve(gd, "o0", ended).piece_count == 6

    def test_an_end_of_no_length_is_read_off_the_piece_before_it(self):
        # Cut at its last turn, a trajectory ends on a piece [5, 5]; the
        # curve's value there belongs to the piece that reaches it.
        db, gd = self.turned()
        ended = db.trajectory("o0").truncated_at(5.0)
        assert ended.pieces[-1].interval.is_point
        tail = CurveStore().tail(gd, "o0", ended, 5.0)
        assert tail.pieces == gd(ended).pieces[-1:]
        assert tail.domain.lo == 4.0

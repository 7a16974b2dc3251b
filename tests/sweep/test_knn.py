"""Tests for the continuous k-NN view, cross-checked against the naive
O(N^2) baseline on randomized workloads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_knn_answer
from repro.geometry.intervals import Interval
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.mod.database import MovingObjectDatabase
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.trajectory.builder import from_waypoints, linear_from, stationary
from repro.workloads.generator import UpdateStream, random_linear_mod, random_piecewise_mod


def origin_distance():
    return SquaredEuclideanDistance([0.0, 0.0])


def run_knn(db, gdist, interval, k):
    eng = SweepEngine(db, gdist, interval)
    view = ContinuousKNN(eng, k)
    eng.run_to_end()
    return view.answer()


class TestBasics:
    def test_k_must_be_positive(self):
        db = random_linear_mod(3)
        eng = SweepEngine(db, origin_distance(), Interval(0, 10))
        with pytest.raises(ValueError):
            ContinuousKNN(eng, 0)

    def test_rejects_engine_with_constants(self):
        db = random_linear_mod(3)
        eng = SweepEngine(db, origin_distance(), Interval(0, 10), constants=[1.0])
        with pytest.raises(ValueError):
            ContinuousKNN(eng, 1)

    def test_answer_before_finalize_rejected(self):
        db = random_linear_mod(3)
        eng = SweepEngine(db, origin_distance(), Interval(0, 10))
        view = ContinuousKNN(eng, 1)
        with pytest.raises(RuntimeError):
            view.answer()

    def test_members_in_order(self):
        db = MovingObjectDatabase()
        db.install("far", stationary([10.0, 0.0]))
        db.install("near", stationary([1.0, 0.0]))
        db.install("mid", stationary([5.0, 0.0]))
        eng = SweepEngine(db, origin_distance(), Interval(0, 10))
        view = ContinuousKNN(eng, 2)
        assert view.members_in_order() == ["near", "mid"]
        assert view.members == {"near", "mid"}
        assert view.k == 2

    def test_k_larger_than_population(self):
        db = MovingObjectDatabase()
        db.install("a", stationary([1.0, 0.0]))
        answer = run_knn(db, origin_distance(), Interval(0, 10), k=5)
        assert answer.objects == {"a"}
        assert answer.intervals_for("a").covers(Interval(0, 10))


class TestSingleCrossing:
    def test_two_objects_swap(self):
        db = MovingObjectDatabase()
        db.install("approach", linear_from(0.0, [10.0, 0.0], [-1.0, 0.0]))
        db.install("fixed", stationary([5.0, 0.0]))
        answer = run_knn(db, origin_distance(), Interval(0.0, 10.0), k=1)
        # approach passes distance 5 at t=5.
        assert answer.intervals_for("fixed").approx_equals(
            __import__("repro.geometry.intervals", fromlist=["IntervalSet"]).IntervalSet([Interval(0.0, 5.0)])
        )
        assert answer.holds_at("approach", 7.0)
        assert not answer.holds_at("approach", 3.0)

    def test_membership_change_only_at_boundary(self):
        """Swaps away from the k boundary do not alter the answer."""
        db = MovingObjectDatabase()
        db.install("a", stationary([1.0, 0.0]))
        db.install("b", stationary([2.0, 0.0]))
        # c and d swap with each other far above the k=2 boundary... and
        # e crosses nothing.
        db.install("c", from_waypoints([(0, [8.0, 0.0]), (10, [12.0, 0.0])]))
        db.install("d", from_waypoints([(0, [10.0, 0.0]), (10, [7.0, 0.0])]))
        eng = SweepEngine(db, origin_distance(), Interval(0.0, 10.0))
        view = ContinuousKNN(eng, 2)
        eng.run_to_end()
        assert eng.stats.swaps >= 1
        answer = view.answer()
        assert answer.objects == {"a", "b"}


class TestBirthDeathMembership:
    def test_new_object_displaces_member(self):
        db = MovingObjectDatabase()
        db.install("a", stationary([2.0, 0.0]))
        db.install("b", stationary([4.0, 0.0]))
        eng = SweepEngine(db, origin_distance(), Interval(0.0, 20.0))
        view = ContinuousKNN(eng, 2)
        eng.subscribe_to(db)
        db.create("c", 10.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
        eng.run_to_end()
        answer = view.answer()
        assert answer.holds_at("b", 5.0)
        assert not answer.holds_at("b", 15.0)
        assert answer.holds_at("c", 15.0)
        assert answer.intervals_for("a").covers(Interval(0, 20))

    def test_termination_promotes_next(self):
        db = MovingObjectDatabase()
        db.install("a", stationary([2.0, 0.0]))
        db.install("b", stationary([4.0, 0.0]))
        db.install("c", stationary([6.0, 0.0]))
        eng = SweepEngine(db, origin_distance(), Interval(0.0, 20.0))
        view = ContinuousKNN(eng, 2)
        eng.subscribe_to(db)
        db.terminate("a", 8.0)
        eng.run_to_end()
        answer = view.answer()
        assert not answer.holds_at("c", 5.0)
        assert answer.holds_at("c", 10.0)
        assert answer.intervals_for("a").approx_equals(
            __import__("repro.geometry.intervals", fromlist=["IntervalSet"]).IntervalSet([Interval(0.0, 8.0)])
        )

    def test_population_drops_below_k(self):
        db = MovingObjectDatabase()
        db.install("a", stationary([2.0, 0.0]))
        db.install("b", stationary([4.0, 0.0]))
        eng = SweepEngine(db, origin_distance(), Interval(0.0, 20.0))
        view = ContinuousKNN(eng, 2)
        eng.subscribe_to(db)
        db.terminate("a", 8.0)
        eng.run_to_end()
        answer = view.answer()
        assert answer.intervals_for("b").covers(Interval(0, 20))


class TestAgainstNaive:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_random_linear_workloads(self, seed, k):
        db = random_linear_mod(10, seed=seed, extent=30.0, speed=6.0)
        gd = origin_distance()
        sweep = run_knn(db, gd, Interval(0.0, 25.0), k)
        naive = naive_knn_answer(db, gd, Interval(0.0, 25.0), k)
        assert sweep.approx_equals(naive, atol=1e-6), f"{sweep} != {naive}"

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_piecewise_histories(self, seed):
        db = random_piecewise_mod(8, seed=seed, end_time=40.0, turns=3)
        gd = origin_distance()
        sweep = run_knn(db, gd, Interval(0.0, 40.0), 2)
        naive = naive_knn_answer(db, gd, Interval(0.0, 40.0), 2)
        assert sweep.approx_equals(naive, atol=1e-6)

    def test_moving_query_trajectory(self):
        db = random_linear_mod(8, seed=21, extent=30.0, speed=4.0)
        q = from_waypoints([(0, [-20.0, -20.0]), (30, [20.0, 20.0])])
        gd = SquaredEuclideanDistance(q)
        sweep = run_knn(db, gd, Interval(0.0, 30.0), 3)
        naive = naive_knn_answer(db, gd, Interval(0.0, 30.0), 3)
        assert sweep.approx_equals(naive, atol=1e-6)

    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_with_update_stream(self, seed):
        db = random_linear_mod(8, seed=seed, extent=40.0, speed=5.0)
        gd = origin_distance()
        eng = SweepEngine(db, gd, Interval(0.0, 60.0))
        view = ContinuousKNN(eng, 2)
        eng.subscribe_to(db)
        stream = UpdateStream(db, seed=seed + 100, mean_gap=3.0, extent=40.0, speed=5.0)
        stream.run(15)
        eng.run_to_end()
        naive = naive_knn_answer(db, gd, Interval(0.0, 60.0), 2)
        assert view.answer().approx_equals(naive, atol=1e-6)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
    @settings(max_examples=15)
    def test_property_random_seeds(self, seed, k):
        db = random_linear_mod(6, seed=seed, extent=25.0, speed=7.0)
        gd = origin_distance()
        sweep = run_knn(db, gd, Interval(0.0, 15.0), k)
        naive = naive_knn_answer(db, gd, Interval(0.0, 15.0), k)
        assert sweep.approx_equals(naive, atol=1e-6)


class TestAnswerSemantics:
    def test_accumulative_and_persevering(self):
        db = MovingObjectDatabase()
        db.install("always", stationary([1.0, 0.0]))
        db.install("sometimes", from_waypoints([(0, [3.0, 0.0]), (10, [30.0, 0.0])]))
        db.install("other", stationary([9.0, 0.0]))
        answer = run_knn(db, origin_distance(), Interval(0.0, 10.0), k=2)
        assert answer.accumulative() == {"always", "sometimes", "other"}
        assert answer.persevering() == {"always"}

"""Tests for the shared-sweep multi-k view."""

import pytest

from repro.baselines.naive import naive_knn_answer
from repro.geometry.intervals import Interval
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.sweep.multiknn import MultiKNN
from repro.workloads.generator import UpdateStream, random_linear_mod


def gd():
    return SquaredEuclideanDistance([0.0, 0.0])


def run_multi(db, interval, ks):
    engine = SweepEngine(db, gd(), interval)
    view = MultiKNN(engine, ks)
    engine.run_to_end()
    return engine, view


class TestValidation:
    def test_needs_at_least_one_k(self):
        db = random_linear_mod(3)
        engine = SweepEngine(db, gd(), Interval(0, 10))
        with pytest.raises(ValueError):
            MultiKNN(engine, [])

    def test_positive_k_required(self):
        db = random_linear_mod(3)
        engine = SweepEngine(db, gd(), Interval(0, 10))
        with pytest.raises(ValueError):
            MultiKNN(engine, [0, 2])

    def test_rejects_constants(self):
        db = random_linear_mod(3)
        engine = SweepEngine(db, gd(), Interval(0, 10), constants=[1.0])
        with pytest.raises(ValueError):
            MultiKNN(engine, [1])

    def test_duplicate_ks_deduped(self):
        db = random_linear_mod(3)
        engine = SweepEngine(db, gd(), Interval(0, 10))
        view = MultiKNN(engine, [2, 2, 1])
        assert view.ks == [1, 2]

    def test_answer_for_unmaintained_k(self):
        db = random_linear_mod(3)
        engine = SweepEngine(db, gd(), Interval(0, 10))
        view = MultiKNN(engine, [1])
        engine.run_to_end()
        with pytest.raises(KeyError):
            view.answer(7)

    def test_answers_before_finalize_rejected(self):
        db = random_linear_mod(3)
        engine = SweepEngine(db, gd(), Interval(0, 10))
        view = MultiKNN(engine, [1, 2])
        with pytest.raises(RuntimeError):
            view.answers()
        with pytest.raises(RuntimeError):
            view.answer(1)


class TestAgreesWithSingleK:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_individual_views(self, seed):
        db = random_linear_mod(9, seed=seed, extent=35.0, speed=6.0)
        interval = Interval(0.0, 20.0)
        _, multi = run_multi(db, interval, [1, 3, 5])
        for k in (1, 3, 5):
            engine = SweepEngine(db, gd(), interval)
            single = ContinuousKNN(engine, k)
            engine.run_to_end()
            assert multi.answer(k).approx_equals(single.answer(), atol=1e-6)

    def test_matches_naive(self):
        db = random_linear_mod(8, seed=5, extent=30.0, speed=5.0)
        interval = Interval(0.0, 15.0)
        _, multi = run_multi(db, interval, [2, 4])
        for k in (2, 4):
            naive = naive_knn_answer(db, gd(), interval, k)
            assert multi.answer(k).approx_equals(naive, atol=1e-6)

    def test_with_updates(self):
        db = random_linear_mod(7, seed=8, extent=35.0, speed=5.0)
        interval = Interval(0.0, 50.0)
        engine = SweepEngine(db, gd(), interval)
        view = MultiKNN(engine, [1, 2, 3])
        engine.subscribe_to(db)
        UpdateStream(db, seed=9, mean_gap=3.0, extent=35.0, speed=5.0).run(12)
        engine.run_to_end()
        for k in (1, 2, 3):
            naive = naive_knn_answer(db, gd(), interval, k)
            assert view.answer(k).approx_equals(naive, atol=1e-6)

    def test_nesting_invariant(self):
        """k-NN answers are nested: the (k)-set contains the (k-1)-set
        at every instant."""
        db = random_linear_mod(8, seed=12, extent=30.0, speed=6.0)
        interval = Interval(0.0, 15.0)
        _, multi = run_multi(db, interval, [1, 2, 4])
        answers = multi.answers()
        for t in interval.sample_points(31):
            a1 = answers[1].at(t)
            a2 = answers[2].at(t)
            a4 = answers[4].at(t)
            assert a1 <= a2 <= a4

    def test_shared_sweep_processes_events_once(self):
        # Both engines order their five lowest curves (the widest k).
        db = random_linear_mod(10, seed=15, extent=30.0, speed=7.0)
        interval = Interval(0.0, 20.0)
        engine, _ = run_multi(db, interval, [1, 2, 3, 4, 5])
        events_multi = engine.stats.intersections_processed
        solo = SweepEngine(db, gd(), interval)
        ContinuousKNN(solo, 5)
        solo.run_to_end()
        assert events_multi == solo.stats.intersections_processed

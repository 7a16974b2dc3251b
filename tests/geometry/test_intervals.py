"""Tests for closed/unbounded intervals and interval sets."""

import copy
import math
import pickle

import pytest

from repro.geometry.intervals import Interval, IntervalSet, interval_set_from_pairs
from repro.geometry.piecewise import PiecewiseFunction
from repro.geometry.poly import Polynomial


class TestIntervalConstruction:
    def test_basic(self):
        iv = Interval(1.0, 3.0)
        assert iv.lo == 1.0
        assert iv.hi == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(3.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_wrong_infinities_rejected(self):
        with pytest.raises(ValueError):
            Interval(math.inf, math.inf)
        with pytest.raises(ValueError):
            Interval(-math.inf, -math.inf)

    def test_all_time(self):
        iv = Interval.all_time()
        assert iv.contains(-1e18) and iv.contains(1e18)

    def test_rays(self):
        assert Interval.at_least(5.0).contains(1e9)
        assert not Interval.at_least(5.0).contains(4.999)
        assert Interval.at_most(5.0).contains(-1e9)
        assert not Interval.at_most(5.0).contains(5.001)

    def test_point(self):
        iv = Interval.point(2.0)
        assert iv.is_point
        assert iv.length == 0.0


class TestIntervalSlots:
    """``Interval`` is a frozen dataclass with hand-written slots;
    specs, curves and answers hold intervals and are picklable values,
    so they must survive pickling."""

    def test_no_instance_dict(self):
        iv = Interval(1.0, 2.0)
        assert not hasattr(iv, "__dict__")
        with pytest.raises(AttributeError):
            iv.lo = 0.0

    @pytest.mark.parametrize(
        "iv", [Interval(1.0, 2.5), Interval.point(3.0), Interval.all_time()]
    )
    def test_pickle_and_deepcopy_round_trip(self, iv):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(iv, protocol)) == iv
        assert copy.deepcopy(iv) == iv
        assert copy.copy(iv) == iv
        assert hash(copy.deepcopy(iv)) == hash(iv)

    def test_curve_round_trip_keeps_lookup_state(self):
        f = PiecewiseFunction(
            [
                (Interval(0.0, 2.0), Polynomial([1.0, 1.0])),
                (Interval(2.0, math.inf), Polynomial([3.0])),
            ]
        )
        for clone in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert clone == f
            assert clone.domain == f.domain
            assert clone.piece_at(2.5) == f.piece_at(2.5)
            assert clone.forward_taylor(2.0) == f.forward_taylor(2.0)


class TestIntervalPredicates:
    def test_contains_endpoints(self):
        iv = Interval(1.0, 3.0)
        assert iv.contains(1.0) and iv.contains(3.0)

    def test_contains_with_atol(self):
        iv = Interval(1.0, 3.0)
        assert not iv.contains(3.0 + 1e-10)
        assert iv.contains(3.0 + 1e-10, atol=1e-9)

    def test_contains_interval(self):
        assert Interval(0.0, 10.0).contains_interval(Interval(2.0, 5.0))
        assert not Interval(0.0, 10.0).contains_interval(Interval(5.0, 11.0))

    def test_overlaps_shared_endpoint(self):
        assert Interval(0.0, 1.0).overlaps(Interval(1.0, 2.0))

    def test_overlaps_disjoint(self):
        assert not Interval(0.0, 1.0).overlaps(Interval(1.5, 2.0))

    def test_is_bounded(self):
        assert Interval(0.0, 1.0).is_bounded
        assert not Interval.at_least(0.0).is_bounded

    def test_length_unbounded(self):
        assert Interval.at_least(0.0).length == math.inf


class TestIntervalAlgebra:
    def test_intersect(self):
        assert Interval(0.0, 5.0).intersect(Interval(3.0, 8.0)) == Interval(3.0, 5.0)

    def test_intersect_disjoint(self):
        assert Interval(0.0, 1.0).intersect(Interval(2.0, 3.0)) is None

    def test_intersect_touching(self):
        assert Interval(0.0, 1.0).intersect(Interval(1.0, 2.0)) == Interval.point(1.0)

    def test_hull(self):
        assert Interval(0.0, 1.0).hull(Interval(5.0, 6.0)) == Interval(0.0, 6.0)

    def test_shift(self):
        assert Interval(1.0, 2.0).shift(3.0) == Interval(4.0, 5.0)

    def test_shift_unbounded(self):
        shifted = Interval.at_least(1.0).shift(2.0)
        assert shifted.lo == 3.0 and math.isinf(shifted.hi)

    def test_clamp(self):
        iv = Interval(0.0, 10.0)
        assert iv.clamp(-5.0) == 0.0
        assert iv.clamp(5.0) == 5.0
        assert iv.clamp(15.0) == 10.0

    def test_sample_points_within(self):
        iv = Interval(2.0, 4.0)
        pts = iv.sample_points(5)
        assert len(pts) == 5
        assert all(iv.contains(p) for p in pts)
        assert pts[0] == 2.0 and pts[-1] == 4.0

    def test_sample_points_unbounded_stays_inside(self):
        iv = Interval.at_least(3.0)
        assert all(iv.contains(p) for p in iv.sample_points(4))


class TestIntervalSet:
    def test_normalization_merges_overlaps(self):
        s = interval_set_from_pairs([(0, 2), (1, 3), (5, 6)])
        assert s.intervals == (Interval(0, 3), Interval(5, 6))

    def test_normalization_merges_touching(self):
        s = interval_set_from_pairs([(0, 1), (1, 2)])
        assert s.intervals == (Interval(0, 2),)

    def test_empty(self):
        s = IntervalSet()
        assert s.is_empty
        assert not s
        assert len(s) == 0

    def test_contains(self):
        s = interval_set_from_pairs([(0, 1), (3, 4)])
        assert s.contains(0.5)
        assert not s.contains(2.0)
        assert s.contains(4.0)

    def test_union(self):
        a = interval_set_from_pairs([(0, 1)])
        b = interval_set_from_pairs([(0.5, 2), (5, 6)])
        assert a.union(b).intervals == (Interval(0, 2), Interval(5, 6))

    def test_intersect(self):
        a = interval_set_from_pairs([(0, 4), (6, 10)])
        b = interval_set_from_pairs([(3, 7)])
        assert a.intersect(b).intervals == (Interval(3, 4), Interval(6, 7))

    def test_intersect_empty_result(self):
        a = interval_set_from_pairs([(0, 1)])
        b = interval_set_from_pairs([(2, 3)])
        assert a.intersect(b).is_empty

    def test_difference(self):
        a = interval_set_from_pairs([(0, 10)])
        b = interval_set_from_pairs([(2, 3), (5, 6)])
        diff = a.difference(b)
        assert diff.intervals == (Interval(0, 2), Interval(3, 5), Interval(6, 10))

    def test_difference_total(self):
        a = interval_set_from_pairs([(0, 5)])
        assert a.difference(a).total_length == 0.0

    def test_covers(self):
        s = interval_set_from_pairs([(0, 3), (3, 7)])
        assert s.covers(Interval(1, 6))
        assert not s.covers(Interval(1, 8))

    def test_covers_ignores_degenerate_gaps(self):
        # Closing half-open differences can leave zero-width gaps.
        s = interval_set_from_pairs([(0, 3), (3 + 1e-12, 7)])
        assert s.covers(Interval(0, 7))

    def test_total_length(self):
        s = interval_set_from_pairs([(0, 1), (4, 6)])
        assert s.total_length == pytest.approx(3.0)

    def test_equality_and_hash(self):
        a = interval_set_from_pairs([(0, 1), (1, 2)])
        b = interval_set_from_pairs([(0, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_approx_equals(self):
        a = interval_set_from_pairs([(0, 1)])
        b = interval_set_from_pairs([(0, 1 + 1e-12)])
        assert a.approx_equals(b)

    def test_approx_equals_ignores_point_members(self):
        a = interval_set_from_pairs([(0, 1), (5, 5)])
        b = interval_set_from_pairs([(0, 1)])
        assert a.approx_equals(b)


class TestToleranceParameters:
    """Regression tests: predicates and algebra accept an explicit
    ``atol`` so near-miss geometry (accumulated float error at event
    times) can be absorbed instead of silently dropped."""

    def test_overlaps_within_atol(self):
        a = Interval(0.0, 1.0)
        b = Interval(1.0 + 1e-10, 2.0)
        assert not a.overlaps(b)
        assert a.overlaps(b, atol=1e-9)
        assert b.overlaps(a, atol=1e-9)

    def test_overlaps_beyond_atol_still_false(self):
        a = Interval(0.0, 1.0)
        b = Interval(1.01, 2.0)
        assert not a.overlaps(b, atol=1e-9)

    def test_contains_interval_within_atol(self):
        outer = Interval(0.0, 1.0)
        inner = Interval(-1e-10, 1.0 + 1e-10)
        assert not outer.contains_interval(inner)
        assert outer.contains_interval(inner, atol=1e-9)

    def test_intersect_recovers_sliver(self):
        a = Interval(0.0, 1.0)
        b = Interval(1.0 + 1e-10, 2.0)
        assert a.intersect(b) is None
        sliver = a.intersect(b, atol=1e-9)
        assert sliver is not None
        assert sliver.length == pytest.approx(0.0, abs=1e-9)

    def test_intersect_without_atol_unchanged(self):
        a = Interval(0.0, 2.0)
        b = Interval(1.0, 3.0)
        assert a.intersect(b) == Interval(1.0, 2.0)
        assert a.intersect(b, atol=1e-9) == Interval(1.0, 2.0)

    def test_interval_set_intersect_forwards_atol(self):
        a = interval_set_from_pairs([(0, 1)])
        b = interval_set_from_pairs([(1.0 + 1e-10, 2)])
        assert a.intersect(b).is_empty
        assert not a.intersect(b, atol=1e-9).is_empty


class TestSamplePointsValidation:
    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            Interval(0.0, 1.0).sample_points(0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Interval(0.0, 1.0).sample_points(-3)

    def test_count_one_still_works(self):
        pts = Interval(0.0, 1.0).sample_points(1)
        assert len(pts) == 1
        assert 0.0 <= pts[0] <= 1.0

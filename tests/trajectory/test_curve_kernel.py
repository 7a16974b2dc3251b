"""Differential tests of the curve-construction kernel.

``Trajectory.squared_distance_to`` computes each cell's coefficients on
component tuples and assembles the curve through trusted constructors;
``tests/_oracle.reference_squared_distance`` keeps the ``Vector`` /
``Polynomial`` / ``PiecewiseFunction`` composition it replaced.  The
two must agree *exactly* — intervals equal, coefficient tuples equal
bit for bit (a ``-0.0`` / ``0.0`` flip counts), the same exception with
the same message — because every event time the sweep schedules is a
root of a difference of these coefficients.

The suite-wide hypothesis profile is derandomized, so each property
states its own example budget.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CurveStore
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.geometry.piecewise import PiecewiseFunction
from repro.geometry.poly import Polynomial
from repro.geometry.vectors import Vector
from repro.trajectory.builder import from_waypoints, linear_from, stationary
from repro.trajectory.linearpiece import LinearPiece
from repro.trajectory.trajectory import Trajectory
from tests._oracle import reference_squared_distance

INF = math.inf

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
#: Breakpoints of both trajectories come from one small grid, so the two
#: share some boundaries and interleave the rest.
GRID = [-3.0, -1.5, 0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 7.0]

#: Few distinct velocities: relative velocity is often exactly zero and
#: the quadratic trims to a constant.
velocity_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)
position_parts = st.one_of(
    st.integers(-6, 6).map(float),
    st.sampled_from([0.0, -0.0, 0.25, -0.75, 1e-7, 1e200]),
    st.floats(-50.0, 50.0, allow_nan=False),
)


def vectors(dimension, parts):
    return st.lists(parts, min_size=dimension, max_size=dimension).map(Vector)


@st.composite
def trajectories(draw, dimension, like=None):
    """1-6 pieces on grid breakpoints: unbounded or bounded at either
    end, a repeated breakpoint now and then (a piece of no length, as
    two ``chdir`` at one instant leave), or a single instant.  ``like``
    offers another trajectory's velocities back."""
    shape = draw(st.integers(0, 11))
    if shape == 0:
        t = draw(st.sampled_from(GRID))
        return Trajectory(
            [
                LinearPiece(
                    draw(vectors(dimension, velocity_parts)),
                    draw(vectors(dimension, position_parts)),
                    Interval.point(t),
                )
            ]
        )
    count = draw(st.integers(1, 6))
    cuts = sorted(
        draw(
            st.lists(
                st.sampled_from(GRID),
                min_size=count + 1,
                max_size=count + 1,
                unique=shape > 2,
            )
        )
    )
    if draw(st.booleans()):
        cuts[0] = -INF
    if draw(st.booleans()):
        cuts[-1] = INF
    velocities = vectors(dimension, velocity_parts)
    if like is not None:
        velocities = st.one_of(
            velocities, st.sampled_from([p.velocity for p in like.pieces])
        )
    # Anchor each piece where the one before it left off.
    anchor_time = next((c for c in cuts if math.isfinite(c)), 0.0)
    position = draw(vectors(dimension, position_parts))
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        velocity = draw(velocities)
        piece = LinearPiece.anchored(
            velocity, position, anchor_time, Interval(lo, hi)
        )
        pieces.append(piece)
        if math.isfinite(hi):
            anchor_time, position = hi, piece.position_unchecked(hi)
    return Trajectory(pieces)


@st.composite
def queries(draw, dimension, of):
    """What a curve is measured against: a fixed point (all time, or
    from a grid instant on), the object itself, a twin beside it, or
    another moving object."""
    choice = draw(st.integers(0, 7))
    if choice <= 2:
        point = draw(vectors(dimension, position_parts))
        if choice == 0:
            return stationary(point, since=draw(st.sampled_from(GRID)))
        return stationary(point)
    if choice == 3:
        return of
    if choice == 4:
        shift = draw(vectors(dimension, position_parts))
        return Trajectory(
            [
                LinearPiece(p.velocity, p.offset + shift, p.interval)
                for p in of.pieces
            ]
        )
    return draw(trajectories(dimension, like=of))


@st.composite
def pairs(draw):
    dimension = draw(st.integers(1, 3))
    a = draw(trajectories(dimension))
    if draw(st.integers(0, 19)) == 0:
        other = dimension % 3 + 1
        return a, draw(trajectories(other))
    return a, draw(queries(dimension, a))


def bits(coeffs):
    return [struct.pack("d", c) for c in coeffs]


def outcome(build, *args):
    try:
        return build(*args), None
    except Exception as exc:  # compared, not handled
        return None, (type(exc), str(exc))


def assert_same_curve(fast, reference):
    assert len(fast.pieces) == len(reference.pieces)
    for (fast_iv, fast_poly), (ref_iv, ref_poly) in zip(
        fast.pieces, reference.pieces
    ):
        assert fast_iv == ref_iv
        assert bits(fast_poly.coeffs) == bits(ref_poly.coeffs)
    # What the piece lookups read.
    assert fast.domain == reference.domain
    assert fast._his == reference._his
    assert fast._cuts == reference._cuts


def assert_kernel_equals_oracle(a, b):
    fast, fast_error = outcome(a.squared_distance_to, b)
    reference, reference_error = outcome(reference_squared_distance, a, b)
    assert fast_error == reference_error, (a, b)
    if reference is not None:
        assert_same_curve(fast, reference)
    return fast


# ---------------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------------
class TestCurveKernelDifferential:
    @given(pairs())
    @settings(max_examples=3000)
    def test_kernel_equals_reference(self, pair):
        a, b = pair
        assert_kernel_equals_oracle(a, b)
        assert_kernel_equals_oracle(b, a)

    @given(st.data())
    @settings(max_examples=1000)
    def test_a_tail_is_the_curve_from_since_on(self, data):
        dimension = data.draw(st.integers(1, 3))
        trajectory = data.draw(trajectories(dimension))
        query = data.draw(queries(dimension, trajectory))
        marks = sorted(
            {
                b
                for p in trajectory.pieces
                for b in (p.interval.lo, p.interval.hi)
                if math.isfinite(b)
            }
        )
        since = data.draw(
            st.one_of(
                st.sampled_from(marks + GRID),
                st.floats(-5.0, 9.0, allow_nan=False),
                st.just(-INF),
            )
        )
        if query.domain.hi <= since:
            return  # no engine's clock stands at or past its query's end
        gd = SquaredEuclideanDistance(query)
        whole, _ = outcome(gd, trajectory)
        if whole is None:
            return
        store = CurveStore()
        tail = store.tail(gd, "o", trajectory, since)
        dropped = whole.piece_count - tail.piece_count
        assert_same_curve(tail, PiecewiseFunction(whole.pieces[dropped:]))
        # Nothing a clock at ``since`` can still see went.
        assert all(iv.hi <= since for iv, _ in whole.pieces[:dropped])
        assert store.tail(gd, "o", trajectory, since) is tail
        assert (store.hits, store.misses) == (1, 1)


# ---------------------------------------------------------------------------
# The shapes the strategies aim at, pinned one by one
# ---------------------------------------------------------------------------
def turning(*waypoints, extend=True):
    return from_waypoints(list(waypoints), extend=extend)


class TestCurveKernelCases:
    def test_one_cell_reuses_the_pieces_interval(self):
        a = linear_from(0.0, [1.0, 2.0], [0.5, -1.0])
        curve = assert_kernel_equals_oracle(a, stationary([0.5, -0.25]))
        assert curve.pieces[0][0] is a.pieces[0].interval
        assert curve.domain is a.domain

    def test_every_cell_against_a_fixed_point_is_a_piece_interval(self):
        a = turning((0.0, [0.0, 0.0]), (1.0, [1.0, 0.0]), (2.0, [1.0, 1.0]))
        curve = assert_kernel_equals_oracle(a, stationary([3.0, 3.0]))
        assert [iv for iv, _ in curve.pieces] == [p.interval for p in a.pieces]
        assert all(
            iv is p.interval for (iv, _), p in zip(curve.pieces, a.pieces)
        )

    def test_interleaved_and_shared_breakpoints(self):
        a = turning(
            (0.0, [0.0, 0.0]), (1.0, [1.0, 0.0]), (2.0, [1.0, 1.0]), (3.0, [0.0, 1.0])
        )
        b = turning(
            (0.5, [5.0, 0.0]), (1.0, [4.0, 0.0]), (1.5, [4.0, 1.0]), (3.0, [3.0, 1.0])
        )
        curve = assert_kernel_equals_oracle(a, b)
        assert [iv.lo for iv, _ in curve.pieces] == [0.5, 1.0, 1.5, 2.0]
        assert curve.domain == Interval(0.5, INF)
        assert_kernel_equals_oracle(b, a)

    def test_zero_relative_velocity_trims_to_a_constant(self):
        a = linear_from(0.0, [1.0, 2.0], [0.5, -1.0])
        b = linear_from(-1.0, [4.0, 6.0], [0.5, -1.0])
        curve = assert_kernel_equals_oracle(a, b)
        assert curve.pieces[0][1].degree == 0

    def test_a_twin_is_at_distance_zero(self):
        a = turning((0.0, [0.0, 0.0]), (1.0, [1.0, 0.0]), (2.0, [1.0, 1.0]))
        curve = assert_kernel_equals_oracle(a, a)
        assert all(poly.is_zero for _, poly in curve.pieces)

    def test_a_negative_zero_product_does_not_survive_the_sum(self):
        # dv . dp = (-1 * 0) + (0 * 1): ``sum()`` starts from int 0.
        a = Trajectory(
            [LinearPiece(Vector.of(-1.0, 0.0), Vector.of(0.0, 1.0), Interval.all_time())]
        )
        curve = assert_kernel_equals_oracle(a, stationary([0.0, 0.0]))
        assert bits(curve.pieces[0][1].coeffs) == bits((1.0, 0.0, 1.0))

    def test_a_piece_of_no_length_owns_no_cell(self):
        a = linear_from(0.0, [0.0, 0.0], [1.0, 0.0])
        a = a.with_direction_change(2.0, Vector.of(0.0, 1.0))
        a = a.with_direction_change(2.0, Vector.of(0.0, -1.0))
        assert [p.interval.length for p in a.pieces] == [2.0, 0.0, INF]
        curve = assert_kernel_equals_oracle(a, stationary([1.0, 1.0]))
        assert curve.piece_count == 2

    def test_point_domains(self):
        a = turning((0.0, [0.0, 0.0]), (2.0, [2.0, 0.0]), extend=False)
        b = linear_from(2.0, [2.0, 3.0], [1.0, 1.0])
        curve = assert_kernel_equals_oracle(a, b)
        assert curve.domain == Interval.point(2.0) and curve(2.0) == 9.0
        assert_kernel_equals_oracle(b, a)
        instant = a.truncated_at(0.0)
        assert instant.domain.is_point
        assert_kernel_equals_oracle(instant, stationary([1.0, 1.0]))

    def test_query_that_starts_mid_piece(self):
        a = turning((0.0, [0.0, 0.0]), (1.0, [1.0, 0.0]), (2.0, [1.0, 1.0]))
        curve = assert_kernel_equals_oracle(a, stationary([0.0, 0.0], since=0.5))
        assert [iv for iv, _ in curve.pieces] == [
            Interval(0.5, 1.0),
            Interval(1.0, INF),
        ]
        assert curve.pieces[1][0] is a.pieces[1].interval

    def test_inexact_joint_is_the_same_function_without_the_sliver(self):
        # Pieces may meet within the constructor's tolerance; the
        # composition cut a cell [2, 2 + 1e-10] there, the walk does not.
        a = Trajectory(
            [
                LinearPiece(Vector.of(1.0), Vector.of(0.0), Interval(0.0, 2.0)),
                LinearPiece(Vector.of(-1.0), Vector.of(4.0), Interval(2.0 + 1e-10, 5.0)),
            ]
        )
        fast = a.squared_distance_to(stationary([0.0]))
        reference = reference_squared_distance(a, stationary([0.0]))
        assert (fast.piece_count, reference.piece_count) == (2, 3)
        assert fast.domain == reference.domain
        assert fast.approx_equals(reference, atol=1e-9)


class TestChecksThatCanStillFail:
    """The fast path keeps every check that can fail on validated
    trajectories, with the message the object pipeline gave."""

    def test_overflowing_coordinates_are_not_finite(self):
        far = linear_from(0.0, [1e200, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="^polynomial coefficients must be finite$"):
            SquaredEuclideanDistance([0.0, 0.0])(far)
        with pytest.raises(ValueError, match="^polynomial coefficients must be finite$"):
            CurveStore().tail(SquaredEuclideanDistance([0.0, 0.0]), "o", far, 1.0)
        assert_kernel_equals_oracle(far, stationary([0.0, 0.0]))
        # Through the multi-cell walk too.
        turned = far.with_direction_change(1.0, Vector.of(0.0, 1.0))
        assert_kernel_equals_oracle(turned, stationary([0.0, 0.0]))
        with pytest.raises(ValueError, match="coefficients must be finite"):
            turned.squared_distance_to(stationary([0.0, 0.0]))

    def test_infinite_coordinates_cancel_to_nan(self):
        a = stationary([INF, 0.0])
        with pytest.raises(ValueError, match="^vector components must not be NaN$"):
            a.squared_distance_to(stationary([INF, 1.0]))
        assert_kernel_equals_oracle(a, stationary([INF, 1.0]))
        assert_kernel_equals_oracle(a, stationary([0.0, 1.0]))
        three = stationary([INF, 0.0, 1.0])
        assert_kernel_equals_oracle(three, stationary([INF, 1.0, 1.0]))

    def test_dimension_mismatch(self):
        a = linear_from(0.0, [1.0, 2.0], [0.5, -1.0])
        with pytest.raises(ValueError, match="^trajectories must share a dimension$"):
            a.squared_distance_to(stationary([0.0, 0.0, 0.0]))
        assert_kernel_equals_oracle(a, stationary([0.0, 0.0, 0.0]))

    def test_disjoint_domains(self):
        a = turning((0.0, [0.0, 0.0]), (2.0, [2.0, 0.0]), extend=False)
        b = linear_from(3.0, [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="do not overlap"):
            a.squared_distance_to(b)
        assert_kernel_equals_oracle(a, b)
        assert_kernel_equals_oracle(b, a)

    def test_public_constructors_still_validate(self):
        with pytest.raises(ValueError, match="finite"):
            Polynomial((1.0, INF))
        assert Polynomial((1, 2)).coeffs == (1.0, 2.0)  # still coerces
        with pytest.raises(ValueError, match="contiguous"):
            PiecewiseFunction(
                [
                    (Interval(0.0, 1.0), Polynomial([1.0])),
                    (Interval(2.0, 3.0), Polynomial([1.0])),
                ]
            )
        assert PiecewiseFunction([(Interval(0.0, 1.0), 2.0)])(0.5) == 2.0
        jump = [
            LinearPiece(Vector.of(1.0), Vector.of(0.0), Interval(0.0, 1.0)),
            LinearPiece(Vector.of(1.0), Vector.of(5.0), Interval(1.0, 2.0)),
        ]
        with pytest.raises(ValueError, match="discontinuity"):
            Trajectory(jump)


class TestTailsAgainstTheCurve:
    """``CurveStore.tail`` slices an already-validated trajectory: the
    curve it builds is the whole curve's end, bit for bit."""

    def setup_method(self):
        self.trajectory = turning(
            (0.0, [0.0, 0.0]), (1.0, [1.0, 0.0]), (2.0, [1.0, 1.0]), (3.0, [0.0, 1.0])
        )
        self.gd = SquaredEuclideanDistance([0.5, -0.25])
        self.whole = self.gd(self.trajectory)

    @pytest.mark.parametrize(
        "since, kept",
        [(-1.0, 3), (0.0, 3), (0.5, 3), (1.0, 2), (1.5, 2), (2.0, 1), (9.0, 1)],
    )
    def test_since_before_on_between_and_after_the_breakpoints(self, since, kept):
        store = CurveStore()
        tail = store.tail(self.gd, "o", self.trajectory, since)
        assert tail.piece_count == kept
        assert_same_curve(
            tail,
            PiecewiseFunction(self.whole.pieces[3 - kept :]),
        )
        for t in (since + 0.25, since + 7.0):
            if tail.domain.contains(t):
                assert tail(t) == self.whole(t)
        assert store.tail(self.gd, "o", self.trajectory, since) is tail

    def test_the_slice_is_not_revalidated_but_equal(self):
        pieces = self.trajectory.pieces[1:]
        assert Trajectory._trusted(pieces) == Trajectory(pieces)
        assert Trajectory._trusted(pieces).domain == Interval(1.0, INF)
        assert self.trajectory.domain is self.trajectory.domain

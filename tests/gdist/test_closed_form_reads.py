"""The closed-form reads of a squared-distance curve equal the curve's.

A plan, a range record and a rank host's bar read an object's curve
before they know they need it: its domain, ``bounds``, ``floor`` and
the value just after an instant (``forward_taylor``).  For a query
trajectory of any piece count — a fixed point or a moving query object
— :meth:`SquaredEuclideanDistance.closed_form` answers those reads from
both trajectories' pieces, through the curve kernel's own cell walk,
and :meth:`CurveStore.read` hands out that closed form where it holds
no curve.  Every decision the sweep
takes from a read is a strict float comparison, so the closed form
must read the curve *bit for bit* — a ``-0.0`` against a ``0.0``
counts — and raise the same exception with the same message.

The strategies are the curve kernel's (``tests/trajectory/
test_curve_kernel.py``): multi-piece trajectories — objects and
queries — on a shared grid of breakpoints, zero relative velocity now and then, ``-0.0`` and
``1e200`` coordinates.  The suite-wide hypothesis profile is
derandomized, so each property states its own example budget.
"""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CurveStore
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.geometry.piecewise import ClosedForm
from repro.geometry.vectors import Vector
from repro.trajectory.builder import from_waypoints, linear_from, stationary
from repro.trajectory.linearpiece import LinearPiece
from repro.trajectory.trajectory import Trajectory
from tests.trajectory.test_curve_kernel import (
    GRID,
    outcome,
    position_parts,
    trajectories,
    vectors,
)

INF = math.inf


def frozen(value):
    """``value`` with every float replaced by its IEEE-754 bits."""
    if isinstance(value, float):
        return struct.pack(">d", value)
    if isinstance(value, tuple):
        return tuple(frozen(v) for v in value)
    return value


def read(fn, *args):
    """``fn(*args)`` frozen, or the exception it raised."""
    value, error = outcome(fn, *args)
    return frozen(value), error


def marks(trajectory, query):
    """The instants a reading turns on: breakpoints and domain ends of
    both, and the grid."""
    out = set(GRID)
    for piece in (*trajectory.pieces, *query.pieces):
        out.update((piece.interval.lo, piece.interval.hi))
    return sorted(t for t in out if math.isfinite(t))


def windows(trajectory, query):
    """Read windows: inside the domain, clipped to it, degenerate
    ``[t, t]``, on a breakpoint, before birth or after death, and
    unbounded at either end."""
    points = marks(trajectory, query)
    instant = st.one_of(
        st.sampled_from(points),
        st.floats(-6.0, 10.0, allow_nan=False),
        st.sampled_from([-INF, INF, -0.0]),
    )
    return st.tuples(instant, instant).map(sorted).map(tuple)


def assert_reads_equal(form, curve, lo, hi):
    assert form.domain == curve.domain
    assert read(form.bounds, lo, hi) == read(curve.bounds, lo, hi)
    assert read(form.floor, lo) == read(curve.floor, lo)
    for t in (lo, hi):
        for terms in (0, 1, 3, 8):
            assert read(form.forward_taylor, t, terms) == read(
                curve.forward_taylor, t, terms
            )


@st.composite
def point_queries(draw, dimension):
    """A fixed point, for all time or from a grid instant on."""
    point = draw(vectors(dimension, position_parts))
    if draw(st.booleans()):
        return stationary(point, since=draw(st.sampled_from(GRID)))
    return stationary(point)


@st.composite
def cases(draw):
    """An object against a fixed point or a moving query of 1-6 pieces
    (which may offer the object's velocities back)."""
    dimension = draw(st.integers(1, 3))
    trajectory = draw(trajectories(dimension))
    if draw(st.booleans()):
        query = draw(point_queries(dimension))
    else:
        query = draw(trajectories(dimension, like=trajectory))
    return trajectory, query


class TestClosedFormReadsTheCurve:
    @given(cases(), st.data())
    @settings(max_examples=2500)
    def test_every_read_is_the_curves(self, case, data):
        trajectory, query = case
        gd = SquaredEuclideanDistance(query)
        lo, hi = data.draw(windows(trajectory, query))
        since = data.draw(
            st.one_of(st.just(-INF), st.sampled_from(marks(trajectory, query)))
        )
        if query.domain.hi <= since:
            return
        # What a reading is handed, against what the eager path built.
        given_, given_error = outcome(CurveStore().read, gd, "o", trajectory, since)
        curve, curve_error = outcome(CurveStore().tail, gd, "o", trajectory, since)
        assert given_error == curve_error
        if curve is None:
            return
        assert_reads_equal(given_, curve, lo, hi)
        # The closed form of the whole trajectory, straight.
        form = gd.closed_form(trajectory.pieces)
        if form is not None:
            assert_reads_equal(form, gd(trajectory), lo, hi)


# ---------------------------------------------------------------------------
# The shapes the strategies aim at, pinned one by one
# ---------------------------------------------------------------------------
def reads_everywhere(trajectory, query, closed=True):
    """Every window over the instants of ``trajectory`` and ``query``,
    and whether the closed form answered (``closed``)."""
    gd = SquaredEuclideanDistance(query)
    form = gd.closed_form(trajectory.pieces)
    assert (form is not None) == closed
    if form is None:
        return
    curve = gd(trajectory)
    points = [-INF, *marks(trajectory, query), INF]
    for lo in points:
        for hi in points:
            if lo <= hi:
                assert_reads_equal(form, curve, lo, hi)


class TestClosedFormCases:
    def test_a_turning_object_against_a_point(self):
        a = from_waypoints(
            [(0.0, [0.0, 0.0]), (1.0, [1.0, 0.0]), (2.0, [1.0, 1.0]), (3.0, [0.0, 1.0])]
        )
        reads_everywhere(a, stationary([0.5, 0.25]))

    def test_a_query_that_starts_mid_piece(self):
        a = from_waypoints([(0.0, [0.0, 0.0]), (1.0, [1.0, 0.0]), (2.0, [1.0, 1.0])])
        reads_everywhere(a, stationary([3.0, -1.0], since=0.5))

    def test_a_bounded_life(self):
        a = from_waypoints(
            [(0.0, [0.0, 0.0]), (1.0, [4.0, 0.0]), (2.5, [1.0, 2.0])], extend=False
        )
        reads_everywhere(a, stationary([1.0, 1.0]))

    def test_a_piece_of_no_length_owns_no_cell(self):
        a = linear_from(0.0, [0.0, 0.0], [1.0, 0.0])
        a = a.with_direction_change(2.0, Vector.of(0.0, 1.0))
        a = a.with_direction_change(2.0, Vector.of(0.0, -1.0))
        assert [p.interval.length for p in a.pieces] == [2.0, 0.0, INF]
        reads_everywhere(a, stationary([1.0, 1.0]))

    def test_an_inexact_joint(self):
        # Pieces that meet within the constructor's tolerance: the
        # kernel's cell runs from where the one before it ended.
        first = LinearPiece(Vector.of(1.0, 0.0), Vector.of(0.0, 0.0), Interval(0.0, 1.0))
        second = LinearPiece(
            Vector.of(0.0, 1.0), Vector.of(1.0, -1.0 - 1e-10), Interval(1.0 + 1e-10, INF)
        )
        reads_everywhere(Trajectory([first, second]), stationary([2.0, 0.5]))

    def test_negative_zeros(self):
        a = Trajectory(
            [LinearPiece(Vector.of(-1.0, -0.0), Vector.of(-0.0, 1.0), Interval(-0.0, INF))]
        )
        reads_everywhere(a, stationary([-0.0, 0.0]))

    def test_zero_relative_velocity_is_the_curve(self):
        # A stationary object: the curve trims to a constant.
        reads_everywhere(stationary([1.0, 2.0]), stationary([0.0, 0.0]), closed=False)
        gd = SquaredEuclideanDistance([0.0, 0.0])
        store = CurveStore()
        assert store.read(gd, "o", stationary([1.0, 2.0]), -INF).piece_count == 1
        assert store.misses == 1

    def test_huge_coordinates_raise_as_the_curve_does(self):
        a = linear_from(0.0, [1e200, 0.0], [1.0, 0.0])
        gd = SquaredEuclideanDistance([0.0, 0.0])
        assert gd.closed_form(a.pieces) is None
        read_error = outcome(CurveStore().read, gd, "o", a, -INF)[1]
        assert read_error is not None
        assert read_error == outcome(gd, a)[1]

    def test_a_moving_query_of_more_than_one_piece_is_read(self):
        query = from_waypoints([(0.0, [0.0, 0.0]), (1.0, [1.0, 1.0]), (2.0, [0.0, 2.0])])
        assert len(query.pieces) > 1
        a = linear_from(0.0, [3.0, 0.0], [0.0, 1.0])
        reads_everywhere(a, query)

    def test_two_turning_trajectories_interleave_their_cells(self):
        # Breakpoints of both, none shared: three cells, none of them
        # either trajectory's piece.
        query = from_waypoints(
            [(0.0, [0.0, 0.0]), (1.0, [1.0, 1.0]), (2.5, [0.0, 2.0]), (4.0, [2.0, 2.0])]
        )
        a = from_waypoints(
            [(-0.5, [3.0, 0.0]), (0.5, [3.0, 2.0]), (2.0, [1.0, 2.0])], extend=False
        )
        reads_everywhere(a, query)
        assert len(SquaredEuclideanDistance(query).closed_form(a.pieces)._cells) == 3
        reads_everywhere(query, a)

    def test_a_one_piece_moving_query_is_read(self):
        query = Trajectory(
            [LinearPiece(Vector.of(1.0, 1.0), Vector.of(0.0, 0.0), Interval.all_time())]
        )
        reads_everywhere(linear_from(0.0, [3.0, 0.0], [0.0, 1.0]), query)

    def test_domains_that_meet_in_one_instant_or_none(self):
        a = from_waypoints([(0.0, [0.0, 0.0]), (2.0, [2.0, 0.0])], extend=False)
        reads_everywhere(a, stationary([1.0, 1.0], since=2.0), closed=False)
        gd = SquaredEuclideanDistance(stationary([1.0, 1.0], since=3.0))
        assert gd.closed_form(a.pieces) is None
        assert outcome(CurveStore().read, gd, "o", a, -INF)[1] == outcome(gd, a)[1]

    def test_a_store_that_holds_the_curve_hands_it_out(self):
        gd = SquaredEuclideanDistance([0.0, 0.0])
        a = from_waypoints([(0.0, [0.0, 0.0]), (1.0, [1.0, 0.0]), (2.0, [1.0, 1.0])])
        store = CurveStore()
        assert isinstance(store.read(gd, "o", a, 1.0), ClosedForm)
        whole = store.curve(gd, "o", a)
        # A held curve serves every later tail: it is what is read.
        assert store.read(gd, "o", a, 1.0) is whole
        assert (store.hits, store.misses) == (0, 1)

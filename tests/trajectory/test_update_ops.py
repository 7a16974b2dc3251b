"""Differential tests of the update operations (Definition 3).

``Trajectory.truncated_at`` and ``with_direction_change`` find the cut
by binary search, reuse the pieces before it and assemble through the
trusted constructor, proving only the one joint a ``chdir`` creates;
``tests/_oracle.reference_truncated_at`` /
``reference_with_direction_change`` keep the walk over every piece
through the validating constructor they replaced.  The two must agree
*exactly* — the same pieces (intervals, velocities, offsets), the same
fingerprint, the same exception with the same message — because the
MOD, every engine group's private clone and the journal's replay all
derive their trajectories through these two methods and are compared
with ``==``.

The suite-wide hypothesis profile is derandomized, so each property
states its own example budget.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.intervals import Interval
from repro.geometry.tolerance import DEFAULT_ATOL
from repro.geometry.vectors import Vector
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New, Terminate
from repro.trajectory.builder import from_waypoints, linear_from
from repro.trajectory.linearpiece import LinearPiece
from repro.trajectory.trajectory import Trajectory
from tests._oracle import (
    reference_truncated_at,
    reference_with_direction_change,
)

INF = math.inf

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
#: Breakpoints and most update times come from one grid, so an update
#: often lands exactly on a breakpoint.
GRID = [-3.0, -1.5, 0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 7.0, 7.5, 9.0, 12.0, 20.0]

velocity_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)
position_parts = st.one_of(
    st.integers(-6, 6).map(float),
    st.sampled_from([0.0, -0.0, 0.25, -0.75, 1e-7]),
    st.floats(-50.0, 50.0, allow_nan=False),
)


def vectors(dimension, parts):
    return st.lists(parts, min_size=dimension, max_size=dimension).map(Vector)


@st.composite
def trajectories(draw, dimension):
    """1-12 pieces meeting exactly on grid breakpoints (what the update
    operations, the builders and the database produce): unbounded or
    bounded at either end, a repeated breakpoint now and then (the piece
    of no length a ``chdir`` on a breakpoint leaves), or one instant."""
    shape = draw(st.integers(0, 11))
    if shape == 0:
        return Trajectory(
            [
                LinearPiece(
                    draw(vectors(dimension, velocity_parts)),
                    draw(vectors(dimension, position_parts)),
                    Interval.point(draw(st.sampled_from(GRID))),
                )
            ]
        )
    count = draw(st.integers(1, 12))
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
    anchor_time = next((c for c in cuts if math.isfinite(c)), 0.0)
    position = draw(vectors(dimension, position_parts))
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        piece = LinearPiece.anchored(
            draw(vectors(dimension, velocity_parts)),
            position,
            anchor_time,
            Interval(lo, hi),
        )
        pieces.append(piece)
        if math.isfinite(hi):
            anchor_time, position = hi, piece.position_unchecked(hi)
    return Trajectory(pieces)


@st.composite
def update_times(draw, traj):
    """Before, on, between and after the breakpoints, and on either side
    of both domain ends by less and by more than ``defined_at``
    forgives."""
    ends = [
        p.interval.lo for p in traj.pieces if math.isfinite(p.interval.lo)
    ] + [p.interval.hi for p in traj.pieces if math.isfinite(p.interval.hi)]
    choice = draw(st.integers(0, 5))
    if choice == 0 or not ends:
        return draw(st.sampled_from(GRID))
    if choice == 1:
        return draw(st.sampled_from(ends))
    if choice == 2:
        a, b = draw(st.sampled_from(ends)), draw(st.sampled_from(ends))
        return (a + b) / 2.0
    if choice == 3:
        return draw(st.floats(-5.0, 25.0, allow_nan=False))
    edge = draw(st.sampled_from([min(ends), max(ends)]))
    nudge = draw(
        st.sampled_from([0.4, 0.9, 1.0, 1.1, 3.0]).map(lambda f: f * DEFAULT_ATOL)
    )
    return edge + nudge if draw(st.booleans()) else edge - nudge


@st.composite
def cases(draw):
    dimension = draw(st.integers(1, 3))
    traj = draw(trajectories(dimension))
    # Now and then a velocity of the wrong dimension.
    wrong = draw(st.integers(0, 15)) == 0
    velocity = draw(
        vectors(dimension % 3 + 1 if wrong else dimension, velocity_parts)
    )
    return traj, draw(update_times(traj)), velocity


def outcome(fn, *args):
    """``("ok", trajectory)`` or ``("raised", type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # compared, never swallowed
        return ("raised", type(exc), str(exc))


def assert_same(got, want, source, tau):
    assert got[0] == want[0], (got, want)
    if want[0] == "raised":
        assert got == want
        return
    got, want = got[1], want[1]
    assert got.pieces == want.pieces  # velocity, offset and interval each
    assert got.fingerprint() == want.fingerprint()
    assert got.domain == want.domain
    # The pieces that end at or before the cut are not rebuilt.
    for mine, old in zip(got.pieces, source.pieces):
        if old.interval.hi <= tau:
            assert mine is old


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------
@settings(max_examples=1500, deadline=None)
@given(cases())
def test_truncated_at_equals_the_reference(case):
    traj, tau, _ = case
    assert_same(
        outcome(traj.truncated_at, tau),
        outcome(reference_truncated_at, traj, tau),
        traj,
        tau,
    )


@settings(max_examples=1500, deadline=None)
@given(cases())
def test_with_direction_change_equals_the_reference(case):
    traj, tau, velocity = case
    assert_same(
        outcome(traj.with_direction_change, tau, velocity),
        outcome(reference_with_direction_change, traj, tau, velocity),
        traj,
        tau,
    )


@settings(max_examples=200, deadline=None)
@given(cases(), st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6))
def test_chains_of_updates_equal_the_reference(case, gaps):
    """Each operation's output is the next one's input."""
    mine, _, velocity = case
    ref = mine
    tau = mine.domain.lo if math.isfinite(mine.domain.lo) else 0.0
    for gap in gaps:
        tau += gap
        got = outcome(mine.with_direction_change, tau, velocity)
        want = outcome(reference_with_direction_change, ref, tau, velocity)
        assert_same(got, want, mine, tau)
        if want[0] == "raised":
            return
        mine, ref = got[1], want[1]
    assert_same(
        outcome(mine.truncated_at, tau + 1.0),
        outcome(reference_truncated_at, ref, tau + 1.0),
        mine,
        tau + 1.0,
    )


# ---------------------------------------------------------------------------
# Pinned cases
# ---------------------------------------------------------------------------
def two_pieces():
    """``[0, 1]`` east, then ``[1, inf)`` north."""
    return from_waypoints(
        [(0.0, [0.0, 0.0]), (1.0, [1.0, 0.0]), (2.0, [1.0, 1.0])]
    )


def test_a_chdir_on_a_breakpoint_leaves_a_piece_of_no_length():
    traj = two_pieces()
    at = 1.0
    assert [p.interval for p in traj.pieces] == [
        Interval(0.0, at),
        Interval.at_least(at),
    ]
    turned = traj.with_direction_change(at, Vector((0.0, -1.0)))
    assert turned == reference_with_direction_change(
        traj, at, Vector((0.0, -1.0))
    )
    assert [p.interval for p in turned.pieces] == [
        traj.pieces[0].interval,
        Interval.point(at),
        Interval.at_least(at),
    ]
    assert turned.pieces[0] is traj.pieces[0]
    assert turned.pieces[1].velocity == traj.pieces[1].velocity
    assert turned.position(at) == traj.position(at)


def test_the_prefix_is_shared_not_copied():
    traj = linear_from(0.0, [0.0, 0.0], [1.0, 0.0])
    for i in range(1, 40):
        traj = traj.with_direction_change(float(i), Vector((1.0, float(i % 3))))
    assert len(traj.pieces) == 40
    turned = traj.with_direction_change(100.0, Vector((0.0, 0.0)))
    assert all(a is b for a, b in zip(turned.pieces[:39], traj.pieces))
    cut = traj.truncated_at(20.5)
    assert all(a is b for a, b in zip(cut.pieces[:20], traj.pieces))
    assert cut.pieces[20].interval == Interval(20.0, 20.5)
    assert cut.domain == Interval(0.0, 20.5)
    # At or past the end nothing is cut.
    assert turned.truncated_at(turned.domain.hi) == turned
    bounded = traj.truncated_at(50.0)
    assert bounded.truncated_at(50.0 + 0.5 * DEFAULT_ATOL).pieces is bounded.pieces


def test_the_rounding_discontinuity_still_raises():
    """``position - velocity*tau + velocity*tau`` is off by more than
    the continuity tolerance: the one new joint is still checked."""
    traj = linear_from(0.0, (0.3, 0.7), (1.1e8, 0.0))
    velocity = Vector((-3.3e8, 1.0))
    with pytest.raises(ValueError, match=r"^discontinuity at t=12345\.678: "):
        traj.with_direction_change(12345.678, velocity)
    assert outcome(traj.with_direction_change, 12345.678, velocity) == outcome(
        reference_with_direction_change, traj, 12345.678, velocity
    )


def test_errors_keep_their_messages():
    traj = two_pieces().truncated_at(5.0)
    lo, hi = traj.domain.lo, traj.domain.hi
    with pytest.raises(ValueError, match=r"^cannot truncate at 9\.0: outside"):
        traj.truncated_at(9.0)
    with pytest.raises(ValueError, match=r"^trajectory undefined at chdir time 9\.0$"):
        traj.with_direction_change(9.0, Vector((0.0, 0.0)))
    with pytest.raises(ValueError, match=r"^velocity dimension mismatch$"):
        traj.with_direction_change(1.5, Vector((0.0, 0.0, 0.0)))
    # Just before the domain: ``defined_at`` forgives it, no piece meets it.
    before = lo - 0.5 * DEFAULT_ATOL
    for fn, ref, args in (
        (traj.truncated_at, reference_truncated_at, (before,)),
        (
            traj.with_direction_change,
            reference_with_direction_change,
            (before, Vector((1.0, 1.0))),
        ),
    ):
        got = outcome(fn, *args)
        assert got[0] == "raised" and "does not meet" in got[2]
        assert got == outcome(ref, traj, *args)
    # Just past a bounded end: the new piece starts there.
    after = hi + 0.5 * DEFAULT_ATOL
    turned = traj.with_direction_change(after, Vector((1.0, 1.0)))
    assert turned == reference_with_direction_change(
        traj, after, Vector((1.0, 1.0))
    )
    assert turned.pieces[:-1] == traj.pieces
    assert turned.pieces[-1].interval == Interval.at_least(after)


def test_laws_that_are_not_finite_raise_what_the_reference_raises():
    """``inf * 0`` and ``inf - inf`` on the way to the new piece: the
    same refusal at the same step (the position, then the cut, then the
    new offset, then the joint)."""

    def one(velocity, offset, lo=0.0):
        return Trajectory(
            [LinearPiece(Vector((velocity,)), Vector((offset,)), Interval(lo, 2.0))]
        )

    nan = "vector components must not be NaN"
    for traj, tau, velocity, message in (
        (one(INF, 0.0), 0.0, 1.0, nan),  # the position: inf * 0
        (one(INF, -INF), 1.0, 1.0, nan),  # the position: inf - inf
        (one(1.0, INF), 1.0, INF, nan),  # the new offset: inf - inf
        (one(INF, 0.0, lo=5e-10), 0.0, 1.0, nan),  # before the cut says no
        (one(1.0, 0.0, lo=5e-10), 0.0, INF, "does not meet"),  # and after
        (one(1.0, INF), 1.0, 1.0, "discontinuity at t=1.0: (inf) vs (inf)"),
    ):
        got = outcome(traj.with_direction_change, tau, Vector((velocity,)))
        assert got[0] == "raised" and message in got[2], got
        assert got == outcome(
            reference_with_direction_change, traj, tau, Vector((velocity,))
        )


def test_a_gap_between_hand_built_pieces_keeps_the_pieces_before_it():
    """Pieces that meet only within the constructor's tolerance: an
    instant inside the gap belongs to no piece."""
    a = LinearPiece(Vector((1.0,)), Vector((0.0,)), Interval(0.0, 1.0))
    b = LinearPiece(Vector((1.0,)), Vector((0.0,)), Interval(1.0 + 4e-10, 2.0))
    traj = Trajectory([a, b])
    tau = 1.0 + 2e-10
    assert traj.truncated_at(tau) == reference_truncated_at(traj, tau)
    assert traj.truncated_at(tau).pieces == (a,)


# ---------------------------------------------------------------------------
# Through the database
# ---------------------------------------------------------------------------
def test_200_updates_through_the_database_equal_the_reference():
    rng = random.Random(23)
    db = MovingObjectDatabase(initial_time=0.0)
    reference = {}
    live = []
    t = 0.0
    for step in range(200):
        t += rng.choice([0.25, 0.5, 1.0, rng.uniform(0.01, 2.0)])
        roll = rng.random()
        if roll < 0.15 or len(live) < 3:
            oid = f"o{step}"
            position = Vector((rng.uniform(-9, 9), rng.uniform(-9, 9)))
            velocity = Vector((rng.uniform(-2, 2), rng.uniform(-2, 2)))
            db.apply(New(oid, t, velocity, position))
            reference[oid] = linear_from(t, position, velocity)
            live.append(oid)
        elif roll < 0.25:
            oid = live.pop(rng.randrange(len(live)))
            db.apply(Terminate(oid, t))
            reference[oid] = reference_truncated_at(reference[oid], t)
        else:
            oid = rng.choice(live)
            velocity = Vector((rng.uniform(-2, 2), rng.uniform(-2, 2)))
            db.apply(ChangeDirection(oid, t, velocity))
            reference[oid] = reference_with_direction_change(
                reference[oid], t, velocity
            )
    held = dict(db.all_items())
    assert held.keys() == reference.keys()
    assert max(len(traj.pieces) for traj in held.values()) > 10
    for oid, traj in held.items():
        assert traj == reference[oid]
        assert traj.fingerprint() == reference[oid].fingerprint()

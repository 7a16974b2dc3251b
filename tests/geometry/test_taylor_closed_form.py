"""The closed forms are the loop, bit for bit.

``PiecewiseFunction.forward_taylor`` writes a degree-<= 2 cell's key out
(``z = 0.0 * t``, the derivatives ``(c1, 2 c2)`` and ``(2 c2,)``, zeros
after), and the curve path skips ``_trimmed`` where a cell's leading
coefficient clears ``_TRIM_EPS``.  Both claim the float operations of
what they replaced, so both are held to it exactly — same floats, the
sign of every zero included, the same exception where one is raised:
the key against ``tests/_oracle.reference_forward_taylor`` (successive
``Polynomial.derivative()`` objects), the curve against
``tests/_oracle.reference_squared_distance``.

The suite-wide hypothesis profile is derandomized, so each property
states its own example budget.
"""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.intervals import Interval
from repro.geometry.piecewise import PiecewiseFunction
from repro.geometry.poly import _TRIM_EPS, Polynomial
from repro.geometry.vectors import Vector
from repro.trajectory.builder import stationary
from repro.trajectory.linearpiece import LinearPiece
from repro.trajectory.trajectory import Trajectory
from tests._oracle import reference_forward_taylor, reference_squared_distance

INF = math.inf

#: Cell ends: a few near the origin, a few far out (|t| up to 1e6).
GRID = [-1e6, -250.5, -3.0, -1.5, 0.0, 0.5, 1.0, 2.0, 7.0, 1e3, 1e6]

#: Leading coefficients at, just above and below the trim threshold.
near_trim = st.sampled_from(
    [s * m * _TRIM_EPS for s in (1.0, -1.0) for m in (0.001, 0.1, 0.5, 1.0, 2.0, 10.0)]
)
coefficients = st.one_of(
    st.integers(-4, 4).map(float),
    st.sampled_from([0.0, -0.0, 1e-3, -1e-9, 1e-14, 0.25, 3e5]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def low_degree_polys(draw):
    """Degree 0-2 after trimming, the leading coefficient often at or
    below ``_TRIM_EPS`` (kept when the rest is small enough)."""
    degree = draw(st.integers(0, 2))
    coeffs = [draw(coefficients) for _ in range(degree)]
    coeffs.append(draw(st.one_of(near_trim, coefficients)))
    return Polynomial(coeffs)


@st.composite
def curves(draw):
    count = draw(st.integers(1, 4))
    cuts = sorted(
        draw(st.lists(st.sampled_from(GRID), min_size=count + 1, max_size=count + 1, unique=True))
    )
    if draw(st.booleans()):
        cuts[0] = -INF
    if draw(st.booleans()):
        cuts[-1] = INF
    return PiecewiseFunction(
        [(Interval(lo, hi), draw(low_degree_polys())) for lo, hi in zip(cuts, cuts[1:])]
    )


def signed_bits(values):
    return [struct.pack(">d", v) for v in values]


def outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # compared, not handled
        return None, (type(exc), str(exc))


class TestTaylorKeyIsTheLoop:
    @given(curves(), st.data())
    @settings(max_examples=3000)
    def test_forward_taylor_equals_reference(self, f, data):
        ends = sorted({b for iv, _ in f.pieces for b in (iv.lo, iv.hi) if math.isfinite(b)})
        t = data.draw(
            st.one_of(
                st.sampled_from(ends + GRID),  # cell ends and breakpoints
                st.floats(-1e6, 1e6, allow_nan=False),
            )
        )
        terms = data.draw(st.integers(0, 8))
        fast, fast_error = outcome(f.forward_taylor, t, terms)
        reference, reference_error = outcome(reference_forward_taylor, f, t, terms)
        assert fast_error == reference_error
        if reference is not None:
            assert signed_bits(fast) == signed_bits(reference), (f, t, terms)

    def test_every_closed_form_against_the_loop_by_hand(self):
        for coeffs in ([2.5], [-0.0], [1.0, -3.0], [0.0, -0.0], [4.0, -4.0, 1.0], [0.0, 0.0, 5e-13]):
            f = PiecewiseFunction.from_polynomial(Polynomial(coeffs))
            for t in (-1e6, -2.0, -0.0, 0.0, 0.5, 1e6):
                for terms in range(9):
                    assert signed_bits(f.forward_taylor(t, terms)) == signed_bits(
                        reference_forward_taylor(f, t, terms)
                    )

    def test_the_breakpoint_picks_the_forward_piece(self):
        f = PiecewiseFunction(
            [
                (Interval(0.0, 2.0), Polynomial([1.0, 1.0])),
                (Interval(2.0, 5.0), Polynomial([7.0, -2.0, 0.5])),
            ]
        )
        assert f.forward_taylor(2.0, 4) == (5.0, 0.0, 1.0, 0.0)
        assert f.forward_taylor(5.0, 2) == reference_forward_taylor(f, 5.0, 2)

    def test_outside_the_domain_raises_as_before(self):
        f = PiecewiseFunction([(Interval(0.0, 1.0), Polynomial([1.0, 2.0, 3.0]))])
        assert outcome(f.forward_taylor, 3.0, 3) == outcome(reference_forward_taylor, f, 3.0, 3)
        assert outcome(f.forward_taylor, 3.0, 3)[1][0] is ValueError

    def test_higher_degrees_keep_the_loop(self):
        f = PiecewiseFunction.from_polynomial(Polynomial([1.0, -2.0, 0.5, 1e-3, -4.0]))
        for t in (-3.0, 0.0, 2.5):
            assert signed_bits(f.forward_taylor(t)) == signed_bits(reference_forward_taylor(f, t))


# ---------------------------------------------------------------------------
# The curve path: ``Polynomial._trusted`` skips ``_trimmed`` only where it
# would return the tuple whole.
# ---------------------------------------------------------------------------
#: Relative speeds whose square straddles the trim threshold.
speeds = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-7, -3e-7, 1e-6, 7e-7, 2e-6, 1.0]),
    st.floats(-2e-6, 2e-6, allow_nan=False),
)
offsets = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, 1e-3, 0.5, 30.0]),
    st.floats(-50.0, 50.0, allow_nan=False),
)


@st.composite
def slow_trajectories(draw):
    count = draw(st.integers(1, 3))
    cuts = sorted(
        draw(st.lists(st.sampled_from(GRID[2:-2]), min_size=count + 1, max_size=count + 1, unique=True))
    )
    cuts[0] = draw(st.sampled_from([cuts[0], -INF]))
    cuts[-1] = draw(st.sampled_from([cuts[-1], INF]))
    anchor = next((c for c in cuts if math.isfinite(c)), 0.0)
    position = Vector([draw(offsets), draw(offsets)])
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        piece = LinearPiece.anchored(
            Vector([draw(speeds), draw(speeds)]), position, anchor, Interval(lo, hi)
        )
        pieces.append(piece)
        if math.isfinite(hi):
            anchor, position = hi, piece.position_unchecked(hi)
    return Trajectory(pieces)


class TestCurvePathIsTheComposition:
    @given(slow_trajectories(), st.tuples(offsets, offsets))
    @settings(max_examples=1500)
    def test_near_trim_curves_equal_reference(self, trajectory, point):
        query = stationary(list(point))
        fast, fast_error = outcome(trajectory.squared_distance_to, query)
        reference, reference_error = outcome(reference_squared_distance, trajectory, query)
        assert fast_error == reference_error
        if reference is None:
            return
        assert len(fast.pieces) == len(reference.pieces)
        for (fast_iv, fast_poly), (ref_iv, ref_poly) in zip(fast.pieces, reference.pieces):
            assert fast_iv == ref_iv
            assert signed_bits(fast_poly.coeffs) == signed_bits(ref_poly.coeffs)
        assert (fast.domain, fast._his, fast._cuts) == (
            reference.domain,
            reference._his,
            reference._cuts,
        )

    @given(st.tuples(coefficients, coefficients, st.one_of(near_trim, coefficients)))
    @settings(max_examples=1000)
    def test_trusted_polynomial_is_the_public_one(self, coeffs):
        assert signed_bits(Polynomial._trusted(coeffs).coeffs) == signed_bits(
            Polynomial(coeffs).coeffs
        )

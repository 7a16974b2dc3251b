"""Differential tests of the scalar kernels against the object pipeline.

``first_order_flip_after`` and ``PiecewiseFunction.forward_taylor`` run
on coefficient tuples; ``tests/_oracle.py`` keeps the compositions of
``PiecewiseFunction`` / ``Polynomial`` / ``Interval`` operations they
replaced.  The kernels must agree with them *exactly* — same float,
``None`` where the oracle says ``None`` — because every event time the
sweep schedules comes out of them.

The suite-wide hypothesis profile is derandomized, so each property
states its own example budget.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sweep.engine as engine_module
from repro.geometry.intervals import Interval
from repro.geometry.piecewise import PiecewiseFunction, first_order_flip_after
from repro.geometry.poly import Polynomial
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.sweep.engine import SweepEngine
from repro.workloads.generator import crossing_rich_mod
from tests._oracle import reference_flip_after, reference_forward_taylor

INF = math.inf

#: Every caller configuration of the flip test.
MODES = list(itertools.product((None, -1, 1), (False, True)))

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
#: Breakpoints and query times come from one small grid, so pieces of the
#: two curves share boundaries, ``t0`` lands on breakpoints and domain
#: ends, and roots of integer-ish polynomials land on all of them.
GRID = [-3.0, -1.5, 0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 7.0]

coefficients = st.one_of(
    st.integers(-4, 4).map(float),
    st.integers(-8, 8).map(lambda n: n / 4.0),
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([1e-12, -1e-12, 5e-13, -1e-13, 1e-15, 2e-12]),
    st.floats(-5.0, 5.0, allow_nan=False),
)

plain_polys = st.lists(coefficients, min_size=1, max_size=5).map(Polynomial)

#: ``s * (t - r)^2``: touches zero at a grid point without crossing.
tangent_polys = st.builds(
    lambda r, s: Polynomial([r * r, -2.0 * r, 1.0]).scaled(s),
    st.sampled_from(GRID),
    st.sampled_from([1.0, -1.0, 0.5]),
)

polys = st.one_of(plain_polys, plain_polys, tangent_polys)


@st.composite
def curves(draw, reuse=()):
    """A piecewise curve of 1-4 pieces of degree 0-4.

    ``reuse`` offers another curve's polynomials back, so the pair
    coincides on whole stretches and then separates in either order.
    """
    count = draw(st.integers(1, 4))
    cuts = sorted(
        draw(
            st.lists(
                st.sampled_from(GRID),
                min_size=count + 1,
                max_size=count + 1,
                unique=True,
            )
        )
    )
    if draw(st.booleans()):
        cuts[0] = -INF
    if draw(st.booleans()):
        cuts[-1] = INF
    source = st.one_of(polys, st.sampled_from(reuse)) if reuse else polys
    return PiecewiseFunction(
        [(Interval(lo, hi), draw(source)) for lo, hi in zip(cuts, cuts[1:])]
    )


@st.composite
def curve_pairs(draw):
    f = draw(curves())
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return f, f
    if choice <= 4:
        g = draw(curves(reuse=[p for _, p in f.pieces]))
        if choice == 1:
            # A tangential contact: ``g`` touches ``f``'s first piece.
            iv, poly = g.pieces[0]
            g = PiecewiseFunction(
                [(iv, f.pieces[0][1] + draw(tangent_polys)), *g.pieces[1:]]
            )
        return f, g
    return f, draw(curves())


def instants(f, g):
    """Breakpoints and domain ends of both curves, plus grid points."""
    marks = {b for c in (f, g) for iv, _ in c.pieces for b in (iv.lo, iv.hi)}
    marks.update(GRID)
    return st.sampled_from(sorted(m for m in marks if math.isfinite(m)))


@st.composite
def flip_cases(draw):
    f, g = draw(curve_pairs())
    t0 = draw(st.one_of(instants(f, g), st.floats(-4.0, 8.0, allow_nan=False)))
    horizon = draw(
        st.one_of(
            st.just(INF),
            st.just(t0),
            instants(f, g),
            st.floats(0.0, 6.0, allow_nan=False).map(lambda d: t0 + d),
        )
    )
    return f, g, t0, horizon


def flips_in_every_mode(f, g, t0, horizon=INF):
    """The kernel's answer under each of ``MODES``, each checked against
    the oracle's."""
    results = []
    for assume_sign, allow_immediate in MODES:
        kwargs = dict(
            horizon=horizon,
            assume_sign=assume_sign,
            allow_immediate=allow_immediate,
        )
        fast = first_order_flip_after(f, g, t0, **kwargs)
        reference = reference_flip_after(f, g, t0, **kwargs)
        assert fast == reference, (f, g, t0, kwargs)
        assert (fast is None) == (reference is None)
        results.append(fast)
    return results


# ---------------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------------
class TestFlipKernelDifferential:
    @given(flip_cases())
    @settings(max_examples=2000)
    def test_flip_equals_reference(self, case):
        flips_in_every_mode(*case)

    @given(curves(), st.data())
    @settings(max_examples=2000)
    def test_forward_taylor_equals_reference(self, f, data):
        t = data.draw(instants(f, f))
        if not f.domain.contains(t):
            t = f.domain.clamp(t)
        terms = data.draw(st.sampled_from([8, 8, 3, 1, 0]))
        fast = f.forward_taylor(t, terms=terms)
        reference = reference_forward_taylor(f, t, terms=terms)
        assert fast == reference
        assert [math.copysign(1.0, x) for x in fast] == [
            math.copysign(1.0, x) for x in reference
        ]


class TestFlipKernelCases:
    """The shapes the strategies aim at, pinned one by one."""

    def test_identical_object(self):
        f = PiecewiseFunction(
            [
                (Interval(0.0, 2.0), Polynomial([1.0, 2.0])),
                (Interval(2.0, INF), Polynomial([5.0])),
            ]
        )
        assert flips_in_every_mode(f, f, 0.0) == [None] * len(MODES)

    def test_tangency_is_not_a_flip(self):
        f = PiecewiseFunction.from_polynomial(Polynomial([4.0, -4.0, 1.0]))
        g = PiecewiseFunction.constant(0.0)
        assert first_order_flip_after(f, g, 0.0) is None
        flips_in_every_mode(f, g, 0.0)
        flips_in_every_mode(g, f, 0.0)

    @pytest.mark.parametrize("after", [1.0, -1.0])
    def test_coincidence_stretch_then_either_order(self, after):
        shared = Polynomial([1.0, 1.0])
        f = PiecewiseFunction(
            [
                (Interval(0.0, 3.0), shared),
                (Interval(3.0, 8.0), Polynomial([4.0 - 3.0 * after, after])),
            ]
        )
        g = PiecewiseFunction(
            [(Interval(0.0, 3.0), shared), (Interval(3.0, 8.0), Polynomial([4.0]))]
        )
        results = flips_in_every_mode(f, g, 0.0)
        # Against the belief opposite to what follows the stretch, the
        # flip is the stretch's end.
        believed = MODES.index((-1 if after > 0 else 1, False))
        assert results[believed] == 3.0

    def test_t0_on_breakpoints_and_domain_ends(self):
        f = PiecewiseFunction(
            [
                (Interval(0.0, 2.0), Polynomial([0.0, 1.0])),
                (Interval(2.0, 5.0), Polynomial([4.0, -1.0])),
            ]
        )
        g = PiecewiseFunction(
            [
                (Interval(-1.0, 1.0), Polynomial([0.5])),
                (Interval(1.0, 4.0), Polynomial([1.5])),
            ]
        )
        for t0 in (-1.0, 0.0, 1.0, 2.0, 4.0, 5.0):
            for horizon in (INF, t0, 1.0, 2.0, 4.0):
                flips_in_every_mode(f, g, t0, horizon)
                flips_in_every_mode(g, f, t0, horizon)

    def test_point_window_at_a_shared_breakpoint(self):
        f = PiecewiseFunction(
            [
                (Interval(0.0, 2.0), Polynomial([1.0])),
                (Interval(2.0, 4.0), Polynomial([-1.0])),
            ]
        )
        g = PiecewiseFunction.constant(0.0, Interval(0.0, 4.0))
        # The window [2, 2] lies on the boundary: the earlier piece speaks.
        assert first_order_flip_after(f, g, 1.0, horizon=2.0, assume_sign=-1) is None
        flips_in_every_mode(f, g, 2.0, horizon=2.0)
        flips_in_every_mode(f, g, 1.0, horizon=2.0)

    def test_higher_degree_takes_the_general_root_finder(self):
        f = PiecewiseFunction.from_polynomial(Polynomial.from_roots([1.0, 2.0, 3.0]))
        g = PiecewiseFunction.constant(0.0)
        assert flips_in_every_mode(f, g, 0.0)[MODES.index((-1, False))] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Engine level
# ---------------------------------------------------------------------------
def popped_events(monkeypatch, flip):
    """Run one seeded crossing-rich scenario with chdirs through a
    ``SweepEngine`` scheduling with ``flip``; the intersection events in
    the order they were processed, entries named by object."""
    monkeypatch.setattr(engine_module, "first_order_flip_after", flip)
    rng = random.Random(20)
    db = crossing_rich_mod(24, seed=3)
    engine = SweepEngine(db, SquaredEuclideanDistance([0.0, 0.0]), Interval(0.0, 12.0))
    seen = []
    process = engine._process_intersection

    def recording(event):
        names = tuple(engine._entries_by_seq[s].label for s in event.key)
        seen.append((event.time, names))
        process(event)

    monkeypatch.setattr(engine, "_process_intersection", recording)
    db.subscribe(engine.on_update)
    time = 0.0
    for _ in range(30):
        time += rng.uniform(0.05, 0.4)
        db.change_direction(
            rng.choice(db.object_ids), time, [rng.uniform(-3, 6), rng.uniform(-2, 2)]
        )
    engine.run_to_end()
    return seen, engine.stats.flip_computations


def test_engine_pops_the_same_events_with_the_oracle(monkeypatch):
    fast, fast_tests = popped_events(monkeypatch, first_order_flip_after)
    reference, reference_tests = popped_events(monkeypatch, reference_flip_after)
    assert len(fast) > 100
    assert fast == reference
    assert fast_tests == reference_tests

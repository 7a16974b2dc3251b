"""Piecewise-polynomial approximation of arbitrary g-distances.

Footnote 1 of the paper notes that intersection times (hence query
answers around them) may be *approximated* when exact roots are
unavailable.  We go one step further and polynomialize the whole curve:
any continuous g-distance (anything supporting pointwise evaluation)
becomes a piecewise Chebyshev interpolant, which the sweep engine can
then process exactly like a native polynomial g-distance.

Chebyshev nodes give near-minimax interpolation error that decays
geometrically with degree for analytic functions; the fastest-arrival
distance is analytic wherever it is finite, so modest degrees (6-10)
already reach errors far below any answer-relevant scale.  Tests
(`tests/gdist/test_approx.py`) quantify this.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

from repro.geometry.intervals import Interval
from repro.geometry.piecewise import PiecewiseFunction
from repro.geometry.poly import Polynomial
from repro.gdist.base import GDistance
from repro.trajectory.trajectory import Trajectory


def _chebyshev_fit(fn: Callable[[float], float], interval: Interval, degree: int) -> Polynomial:
    """Least-deviation polynomial interpolant on Chebyshev nodes."""
    import numpy as np  # here, not at import: most processes never fit

    lo, hi = interval.lo, interval.hi
    nodes = np.cos(np.pi * (2 * np.arange(degree + 1) + 1) / (2 * (degree + 1)))
    times = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    values = np.array([fn(float(t)) for t in times])
    if not np.all(np.isfinite(values)):
        raise ValueError(
            f"function not finite on {interval}; cannot polynomialize"
        )
    # Fit in the scaled variable for conditioning, then expand.
    cheb_coeffs = np.polynomial.chebyshev.chebfit(nodes, values, degree)
    power_scaled = np.polynomial.chebyshev.cheb2poly(cheb_coeffs)
    scaled = Polynomial(power_scaled.tolist())
    # t -> u = (2 t - (hi+lo)) / (hi-lo)
    u_of_t = Polynomial([-(hi + lo) / (hi - lo), 2.0 / (hi - lo)])
    return scaled.compose(u_of_t)


def approximate_on(
    fn: Callable[[float], float],
    domain: Interval,
    degree: int = 8,
    num_pieces: int = 8,
) -> PiecewiseFunction:
    """Approximate a scalar function by a piecewise polynomial.

    The domain must be bounded.  The result has ``num_pieces`` pieces of
    equal width, each a degree-``degree`` Chebyshev interpolant.
    """
    if not domain.is_bounded:
        raise ValueError("approximation requires a bounded domain")
    if degree < 1 or num_pieces < 1:
        raise ValueError("degree and num_pieces must be positive")
    width = (domain.hi - domain.lo) / num_pieces
    pieces: List[Tuple[Interval, Polynomial]] = []
    for i in range(num_pieces):
        lo = domain.lo + i * width
        hi = domain.hi if i == num_pieces - 1 else lo + width
        iv = Interval(lo, hi)
        pieces.append((iv, _chebyshev_fit(fn, iv, degree)))
    return PiecewiseFunction(pieces)


class PolynomialApproximation(GDistance):
    """Wrap a non-polynomial g-distance into a polynomial one.

    ``inner`` must expose ``evaluate_at(trajectory, t)`` (as
    :class:`~repro.gdist.arrival.ArrivalTimeGDistance` does).  Curves
    are built on ``domain`` (bounded — normally the query interval),
    intersected with each trajectory's own domain.
    """

    def __init__(
        self,
        inner,
        domain: Interval,
        degree: int = 8,
        num_pieces: int = 8,
    ) -> None:
        if not hasattr(inner, "evaluate_at"):
            raise TypeError("inner g-distance must support evaluate_at")
        if not domain.is_bounded:
            raise ValueError("approximation domain must be bounded")
        self._inner = inner
        self._domain = domain
        self._degree = degree
        self._num_pieces = num_pieces

    @property
    def inner(self):
        """The wrapped (exact) g-distance."""
        return self._inner

    def __call__(self, trajectory: Trajectory) -> PiecewiseFunction:
        domain = self._domain.intersect(trajectory.domain)
        if domain is None:
            raise ValueError(
                f"trajectory domain {trajectory.domain} does not meet "
                f"approximation domain {self._domain}"
            )
        if domain.is_point:
            value = self._inner.evaluate_at(trajectory, domain.lo)
            return PiecewiseFunction.constant(value, domain)
        return approximate_on(
            lambda t: self._inner.evaluate_at(trajectory, t),
            domain,
            degree=self._degree,
            num_pieces=self._num_pieces,
        )

    def max_error(self, trajectory: Trajectory, samples: int = 257) -> float:
        """Measured max |approx - exact| over the approximation domain."""
        curve = self(trajectory)
        worst = 0.0
        for t in curve.domain.sample_points(samples):
            exact = self._inner.evaluate_at(trajectory, t)
            if math.isfinite(exact):
                worst = max(worst, abs(curve(t) - exact))
        return worst

    def __repr__(self) -> str:
        return (
            f"PolynomialApproximation({self._inner!r}, degree={self._degree}, "
            f"pieces={self._num_pieces})"
        )

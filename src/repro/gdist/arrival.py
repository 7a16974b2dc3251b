"""The fastest-arrival g-distance (Example 7 / Example 9 / Figure 1).

For a query object ``q`` and a database object ``o``, both maintaining
their current *speeds*, with only ``o`` free to change direction at
time ``t``: the interception time ``t_D(t)`` is the least ``t_D >= 0``
such that redirecting ``o`` straight at the right point ``A`` reaches
``q``'s future position, i.e.

    | w(t) + v_q * t_D | = s_o * t_D,      w(t) = q(t) - o(t),

where ``v_q`` is the query velocity and ``s_o`` the object's scalar
speed.  Squaring gives the quadratic (in ``t_D``)

    (|v_q|^2 - s_o^2) t_D^2 + 2 (w . v_q) t_D + |w|^2 = 0.

``t_D(t)`` is continuous but **not** polynomial in ``t`` in general —
:class:`ArrivalTimeGDistance` therefore only supports exact pointwise
evaluation and must be wrapped in
:class:`~repro.gdist.approx.PolynomialApproximation` for the sweep
(footnote 1 of the paper licenses exactly this).

In the *perpendicular configuration* the paper sketches in Figure 1 —
``w(t)`` orthogonal to ``v_q`` at all times, which holds whenever the
initial separation is orthogonal to ``v_q`` and ``o`` matches ``q``'s
velocity component along ``v_q`` — the linear term vanishes and

    t_D(t)^2 = |w(t)|^2 / (s_o^2 - |v_q|^2)

is exactly quadratic: Example 9's claim ``t_D^2 = c2 t^2 + c1 t + c0``.
:class:`SquaredArrivalTimeGDistance` verifies the configuration and
returns that exact polynomial.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.geometry.intervals import Interval
from repro.geometry.piecewise import PiecewiseFunction
from repro.geometry.poly import Polynomial
from repro.geometry.vectors import Vector
from repro.gdist.base import GDistance
from repro.trajectory.trajectory import Trajectory

#: Tolerance on the perpendicularity condition for the exact quadratic.
_PERP_ATOL = 1e-7


def interception_time(w: Vector, query_velocity: Vector, speed: float) -> float:
    """Least nonnegative interception time for separation ``w``.

    Returns ``math.inf`` when the object cannot catch the query (slower
    and geometry unfavourable).
    """
    c = w.norm_squared()
    if c == 0.0:
        return 0.0
    if speed < 0:
        raise ValueError("speed must be nonnegative")
    a = query_velocity.norm_squared() - speed * speed
    b = 2.0 * w.dot(query_velocity)
    if a == 0.0:
        # Equal speeds: linear equation b*tD + c = 0.
        if b < 0.0:
            return -c / b
        return math.inf
    disc = b * b - 4.0 * a * c
    if a < 0.0:
        # Object strictly faster: exactly one nonnegative root.
        return (b + math.sqrt(disc)) / (-2.0 * a)
    # Object slower: reachable only when approaching and disc >= 0.
    if disc < 0.0 or b >= 0.0:
        return math.inf
    sq = math.sqrt(disc)
    return (-b - sq) / (2.0 * a)


class ArrivalTimeGDistance(GDistance):
    """Exact (non-polynomial) fastest-arrival time to a query trajectory.

    Supports only pointwise evaluation via :meth:`evaluate_at`; calling
    it as a g-distance raises, pointing to the approximation wrapper.
    """

    def __init__(self, query: Trajectory) -> None:
        self._query = query

    @property
    def is_polynomial(self) -> bool:
        return False

    @property
    def query_trajectory(self) -> Trajectory:
        """The query trajectory ``q``."""
        return self._query

    def evaluate_at(self, trajectory: Trajectory, t: float) -> float:
        """Exact interception time at time ``t``."""
        w = self._query.position(t) - trajectory.position(t)
        v_q = self._query.velocity(t)
        speed = trajectory.speed(t)
        return interception_time(w, v_q, speed)

    def reachable_throughout(self, trajectory: Trajectory, interval: Interval, samples: int = 33) -> bool:
        """Spot-check that interception is finite across an interval."""
        return all(
            math.isfinite(self.evaluate_at(trajectory, t))
            for t in interval.sample_points(samples)
        )

    def __call__(self, trajectory: Trajectory) -> PiecewiseFunction:
        raise TypeError(
            "ArrivalTimeGDistance is not polynomial; wrap it in "
            "PolynomialApproximation (repro.gdist.approx) to use it "
            "with the sweep engine, or use SquaredArrivalTimeGDistance "
            "in the perpendicular configuration"
        )


class SquaredArrivalTimeGDistance(GDistance):
    """Example 9's exact quadratic ``t_D^2`` in the perpendicular
    configuration.

    Validates, piece by piece, that the separation stays orthogonal to
    the query velocity (so the interception quadratic's linear term
    vanishes) and that the object is strictly faster than the query;
    then

        t_D(t)^2 = |w(t)|^2 / (s_o^2 - |v_q|^2)

    is returned as an exact piecewise quadratic.
    """

    def __init__(self, query: Trajectory) -> None:
        self._query = query

    @property
    def query_trajectory(self) -> Trajectory:
        """The query trajectory ``q``."""
        return self._query

    def __call__(self, trajectory: Trajectory) -> PiecewiseFunction:
        domain = trajectory.domain.intersect(self._query.domain)
        if domain is None:
            raise ValueError("trajectory and query domains do not overlap")
        cuts = sorted(
            {
                b
                for piece in (*trajectory.pieces, *self._query.pieces)
                for b in (piece.interval.lo, piece.interval.hi)
                if domain.lo < b < domain.hi and math.isfinite(b)
            }
        )
        bounds = [domain.lo, *cuts, domain.hi]
        pieces: List[Tuple[Interval, Polynomial]] = []
        for lo, hi in zip(bounds, bounds[1:]):
            probe = _probe(lo, hi)
            piece_o = trajectory.piece_at(probe)
            piece_q = self._query.piece_at(probe)
            v_q = piece_q.velocity
            v_o = piece_o.velocity
            speed_sq = v_o.norm_squared()
            gap = speed_sq - v_q.norm_squared()
            if gap <= 0.0:
                raise ValueError(
                    "perpendicular configuration requires the object to be "
                    f"strictly faster than the query on [{lo}, {hi}]"
                )
            w0 = piece_q.offset - piece_o.offset
            dv = piece_q.velocity - piece_o.velocity
            # w(t) . v_q must vanish identically: both the constant and
            # the linear coefficient of the dot product must be ~0.
            lin = dv.dot(v_q)
            const = w0.dot(v_q)
            scale = max(1.0, v_q.norm() * max(w0.norm(), dv.norm(), 1.0))
            if abs(lin) > _PERP_ATOL * scale or abs(const) > _PERP_ATOL * scale:
                raise ValueError(
                    "not in the perpendicular configuration on "
                    f"[{lo}, {hi}]: w(t).v_q does not vanish; use "
                    "PolynomialApproximation(ArrivalTimeGDistance(...))"
                )
            # |w(t)|^2 = |dv|^2 t^2 + 2 (w0 . dv) t + |w0|^2, scaled by 1/gap.
            poly = Polynomial(
                [
                    w0.norm_squared() / gap,
                    2.0 * w0.dot(dv) / gap,
                    dv.norm_squared() / gap,
                ]
            )
            pieces.append((Interval(lo, hi), poly))
        return PiecewiseFunction(pieces)

    def __repr__(self) -> str:
        return "SquaredArrivalTimeGDistance(...)"


def _probe(lo: float, hi: float) -> float:
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(lo):
        return hi - 1.0
    if math.isinf(hi):
        return lo + 1.0
    return (lo + hi) / 2.0

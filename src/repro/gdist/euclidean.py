"""Squared Euclidean distance to a query trajectory (Example 8).

For a query object moving along ``gamma`` and a database object ``o``,

    d_o(t) = len(x_o - x)^2

is quadratic on every common linear piece, hence a polynomial
g-distance.  The *squared* distance is used (as in the paper) because
the unsquared distance is not polynomial; squaring is monotone on
nonnegative values, so every order-based query (k-NN, within-range with
a squared threshold) is unaffected.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.geometry.intervals import INF, Interval
from repro.geometry.piecewise import ClosedForm, PiecewiseFunction
from repro.geometry.poly import _TRIM_EPS
from repro.gdist.base import GDistance
from repro.trajectory.builder import stationary
from repro.trajectory.linearpiece import LinearPiece
from repro.trajectory.trajectory import Trajectory, _gap_cells, _gap_coefficients


class SquaredEuclideanDistance(GDistance):
    """``f(gamma') = t -> |gamma'(t) - gamma(t)|^2`` for a fixed query
    trajectory ``gamma``.

    ``query`` may be a :class:`Trajectory` or a fixed point (sequence of
    coordinates), the latter being wrapped as a stationary trajectory.
    """

    def __init__(self, query: Union[Trajectory, Sequence[float]]) -> None:
        if isinstance(query, Trajectory):
            self._query = query
        else:
            self._query = stationary(query)
        self._fingerprint = None
        self._dimension = len(self._query._pieces[0].velocity._components)

    @property
    def query_trajectory(self) -> Trajectory:
        """The query trajectory ``gamma``."""
        return self._query

    def __call__(self, trajectory: Trajectory) -> PiecewiseFunction:
        return trajectory.squared_distance_to(self._query)

    def closed_form(self, pieces: Tuple[LinearPiece, ...]) -> Optional[ClosedForm]:
        """The curve kernel's cells — the walk :func:`~repro.trajectory.
        trajectory._gap_cells` of ``Trajectory.squared_distance_to`` — as
        coefficient tuples.  ``None``, the curve, for another dimension,
        domains meeting in one instant or none, and a cell whose
        coefficients are not all finite or whose leading one trims."""
        if len(pieces[0].velocity._components) != self._dimension:
            return None
        qs = self._query._pieces
        first, last, q_iv = pieces[0].interval, pieces[-1].interval, qs[0].interval
        if first is last and q_iv.lo <= first.lo and first.hi <= q_iv.hi:
            # One piece inside the query's first: one cell, the piece's interval.
            if not first.lo < first.hi:
                return None
            c0, c1, c2 = coeffs = _gap_coefficients(pieces[0], qs[0])
            if not (_TRIM_EPS < c2 < INF and -INF < c1 < INF and c0 < INF):
                return None
            return ClosedForm(first, ((first.lo, first.hi, coeffs),))
        theirs = self._query._domain
        lo = theirs.lo if theirs.lo > first.lo else first.lo
        hi = theirs.hi if theirs.hi < last.hi else last.hi
        if not lo < hi:
            return None
        cells = _gap_cells(pieces, qs, lo, hi, True)
        return None if cells is None else ClosedForm(Interval(lo, hi), cells)

    def cache_fingerprint(self) -> tuple:
        # The query never changes: built once, the same tuple per lookup.
        if self._fingerprint is None:
            self._fingerprint = ("sqeuclid", self._query.fingerprint())
        return self._fingerprint

    def with_query(self, query: Trajectory) -> "SquaredEuclideanDistance":
        """A copy measuring distance to a different query trajectory.

        Used by Theorem 10's extension, where a ``chdir`` on the query
        object replaces every object's curve at once.
        """
        return SquaredEuclideanDistance(query)

    def __repr__(self) -> str:
        return f"SquaredEuclideanDistance(query={self._query!r})"

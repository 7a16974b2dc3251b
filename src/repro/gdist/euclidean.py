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

import math
from typing import Optional, Sequence, Tuple, Union

from repro.geometry.intervals import Interval
from repro.geometry.piecewise import ClosedForm, PiecewiseFunction
from repro.geometry.poly import _TRIM_EPS
from repro.gdist.base import GDistance
from repro.trajectory.builder import stationary
from repro.trajectory.linearpiece import LinearPiece
from repro.trajectory.trajectory import Trajectory, _gap_coefficients

_INF = math.inf


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
        pieces = self._query.pieces
        # A point query, or one linear law: what :meth:`closed_form` reads.
        self._piece = pieces[0] if len(pieces) == 1 else None
        self._dimension = len(pieces[0].velocity._components)

    @property
    def query_trajectory(self) -> Trajectory:
        """The query trajectory ``gamma``."""
        return self._query

    def __call__(self, trajectory: Trajectory) -> PiecewiseFunction:
        return trajectory.squared_distance_to(self._query)

    def closed_form(self, pieces: Tuple[LinearPiece, ...]) -> Optional[ClosedForm]:
        """The curve kernel's cells against a one-piece query — the walk
        and :func:`~repro.trajectory.trajectory._gap_coefficients` of
        ``Trajectory.squared_distance_to`` — as coefficient tuples.
        ``None``, the curve, for another query or dimension, domains
        meeting in one instant or none, and a cell whose coefficients
        are not all finite or whose leading one trims."""
        q = self._piece
        if q is None or len(pieces[0].velocity._components) != self._dimension:
            return None
        first, last, q_iv = pieces[0].interval, pieces[-1].interval, q.interval
        if first is last and q_iv.lo <= first.lo and first.hi <= q_iv.hi:
            # One piece the query covers: one cell, the piece's interval.
            if not first.lo < first.hi:
                return None
            c0, c1, c2 = coeffs = _gap_coefficients(pieces[0], q)
            if not (_TRIM_EPS < c2 < _INF and -_INF < c1 < _INF and c0 < _INF):
                return None
            return ClosedForm(first, ((first.lo, first.hi, coeffs),))
        lo = q_iv.lo if q_iv.lo > first.lo else first.lo
        hi = q_iv.hi if q_iv.hi < last.hi else last.hi
        if not lo < hi:
            return None
        cells = []
        a = lo
        for p in pieces:
            b = p.interval.hi
            if b <= a:  # behind the cell, or of no length
                continue
            if b > hi:
                b = hi
            c0, c1, c2 = coeffs = _gap_coefficients(p, q)
            if not (_TRIM_EPS < c2 < _INF and -_INF < c1 < _INF and c0 < _INF):
                return None
            cells.append((a, b, coeffs))
            if b == hi:
                break
            a = b
        return ClosedForm(Interval(lo, hi), cells)

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

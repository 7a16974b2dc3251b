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

from typing import Sequence, Union

from repro.geometry.piecewise import PiecewiseFunction
from repro.gdist.base import GDistance
from repro.trajectory.builder import stationary
from repro.trajectory.trajectory import Trajectory


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

    @property
    def query_trajectory(self) -> Trajectory:
        """The query trajectory ``gamma``."""
        return self._query

    def __call__(self, trajectory: Trajectory) -> PiecewiseFunction:
        return trajectory.squared_distance_to(self._query)

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

"""The g-distance abstraction (Definition 6).

Formally a g-distance maps trajectories to continuous functions from
time to ``R``; its extension to a MOD maps each object through its
trajectory: ``f(o) = f(T(o))``.  The sweep engine consumes only the
piecewise-polynomial image (a :class:`~repro.geometry.piecewise.
PiecewiseFunction`), so :class:`GDistance` is a small strategy
interface plus the MOD-extension helper.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, Tuple

from repro.geometry.piecewise import ClosedForm, PiecewiseFunction
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ObjectId
from repro.trajectory.linearpiece import LinearPiece
from repro.trajectory.trajectory import Trajectory


class GDistance(abc.ABC):
    """A mapping from trajectories to functions from time to ``R``."""

    @abc.abstractmethod
    def __call__(self, trajectory: Trajectory) -> PiecewiseFunction:
        """The image function ``f(gamma)`` as a piecewise polynomial.

        Implementations must return a function whose domain equals (or
        contains) the trajectory's domain, so the engine can reason
        about the object over its whole lifetime.
        """

    @property
    def is_polynomial(self) -> bool:
        """Whether the image functions are exactly piecewise polynomial.

        Non-polynomial g-distances (e.g. the exact arrival time) must be
        wrapped in :class:`~repro.gdist.approx.PolynomialApproximation`
        before the sweep engine will accept them.
        """
        return True

    def cache_fingerprint(self) -> tuple:
        """A hashable key identifying this g-distance *by value*.

        Two g-distances with equal fingerprints must map every
        trajectory to the same image function, so cached curves keyed by
        the fingerprint may be shared between them.  The default is
        identity-based (``("id", id(self))``) — always sound, never
        shared across distinct instances.  Subclasses with value
        semantics override it; callers that key long-lived caches on an
        identity fingerprint must hold a strong reference to the
        instance so the id cannot be recycled.
        """
        return ("id", id(self))

    def closed_form(self, pieces: Tuple[LinearPiece, ...]) -> Optional[ClosedForm]:
        """The reads of the curve of the trajectory made of ``pieces``
        (a validated one's, or a tail of them), without the curve;
        ``None`` (the default) where only the curve gives them.  For
        :meth:`~repro.cache.curve_store.CurveStore.read`."""
        return None

    def extend_to_mod(self, db: MovingObjectDatabase) -> Dict[ObjectId, PiecewiseFunction]:
        """Definition 6's extension: ``{o -> f(T(o))}`` over live objects."""
        return {oid: self(traj) for oid, traj in db}

    def value(self, trajectory: Trajectory, t: float) -> float:
        """Convenience: ``f(gamma)(t)``."""
        return self(trajectory)(t)


class CallableGDistance(GDistance):
    """Adapt a plain function ``Trajectory -> PiecewiseFunction``."""

    def __init__(
        self,
        fn: Callable[[Trajectory], PiecewiseFunction],
        name: str = "custom",
        polynomial: bool = True,
    ) -> None:
        self._fn = fn
        self._name = name
        self._polynomial = polynomial

    def __call__(self, trajectory: Trajectory) -> PiecewiseFunction:
        return self._fn(trajectory)

    @property
    def is_polynomial(self) -> bool:
        return self._polynomial

    def __repr__(self) -> str:
        return f"CallableGDistance({self._name})"

"""Small dense vectors for positions and velocities in ``R^n``.

Trajectories are maps ``t -> A t + B`` with ``A, B in R^n`` (Section 2),
so almost every vector in the system is tiny (n = 2 or 3).  A thin tuple
wrapper beats numpy arrays here: construction cost dominates at this
size, values are hashable (useful as dict keys in tests), and equality
is exact.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, Tuple, Union

Number = Union[int, float]


class Vector:
    """An immutable vector in ``R^n`` with exact float components."""

    __slots__ = ("_components",)

    def __init__(self, components: Iterable[Number]) -> None:
        comps = tuple(map(float, components))
        if not comps:
            raise ValueError("vectors must have at least one component")
        for c in comps:
            if c != c:  # NaN is the one float unequal to itself
                raise ValueError("vector components must not be NaN")
        self._components = comps

    # -- constructors -----------------------------------------------------
    @staticmethod
    def of(*components: Number) -> "Vector":
        """Variadic constructor: ``Vector.of(1, 2, 3)``."""
        return Vector(components)

    @staticmethod
    def zero(dimension: int) -> "Vector":
        """The zero vector in ``R^dimension``."""
        return Vector([0.0] * dimension)

    @staticmethod
    def unit(dimension: int, axis: int) -> "Vector":
        """The standard basis vector ``e_axis`` in ``R^dimension``."""
        comps = [0.0] * dimension
        comps[axis] = 1.0
        return Vector(comps)

    # -- inspection -------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Number of components."""
        return len(self._components)

    @property
    def components(self) -> Tuple[float, ...]:
        """Components as a tuple."""
        return self._components

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[float]:
        return iter(self._components)

    def __getitem__(self, index: int) -> float:
        return self._components[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return hash(self._components)

    def __repr__(self) -> str:
        body = ", ".join(f"{c:g}" for c in self._components)
        return f"({body})"

    # -- arithmetic ---------------------------------------------------------
    def _check_dim(self, other: "Vector") -> None:
        if self.dimension != other.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(a + b for a, b in zip(self, other))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(a - b for a, b in zip(self, other))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self)

    def __mul__(self, scalar: Number) -> "Vector":
        return Vector(a * float(scalar) for a in self)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Number) -> "Vector":
        return Vector(a / float(scalar) for a in self)

    def dot(self, other: "Vector") -> float:
        """Inner product."""
        self._check_dim(other)
        return sum(a * b for a, b in zip(self, other))

    def norm_squared(self) -> float:
        """Squared Euclidean length (the paper's ``len(.)^2``)."""
        return sum(a * a for a in self)

    def norm(self) -> float:
        """Euclidean length (the paper's ``len``)."""
        return math.sqrt(self.norm_squared())

    def distance_to(self, other: "Vector") -> float:
        """Euclidean distance to another point."""
        return (self - other).norm()

    def normalized(self) -> "Vector":
        """Unit vector in the same direction (the paper's ``unit``)."""
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return self / n

    def is_zero(self, atol: float = 0.0) -> bool:
        """True when every component is within ``atol`` of zero."""
        return all(abs(c) <= atol for c in self)

    def approx_equals(self, other: "Vector", atol: float = 1e-9) -> bool:
        """Componentwise approximate equality."""
        if self.dimension != other.dimension:
            return False
        return all(abs(a - b) <= atol for a, b in zip(self, other))


def as_vector(value: Union[Vector, Sequence[Number]]) -> Vector:
    """Coerce a sequence to a :class:`Vector`, passing vectors through."""
    if isinstance(value, Vector):
        return value
    return Vector(value)

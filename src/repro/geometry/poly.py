"""Univariate polynomials with float coefficients.

Polynomial generalized distances map every trajectory to a piecewise
*polynomial* function of time (Section 5), so this class is the unit of
currency for every curve the sweep engine touches.  Coefficients are
stored low-degree first (``coeffs[i]`` multiplies ``t**i``), matching
``numpy.polynomial`` conventions.

The class is immutable; all operations return new polynomials with
trailing near-zero coefficients trimmed so ``degree`` is meaningful.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple, Union

Number = Union[int, float]

#: Coefficients with absolute value at or below this are trimmed from
#: the high-degree end.  Chosen well below any coefficient magnitude a
#: sane workload produces but above accumulated rounding noise.  The
#: threshold only ever scales *down*: a polynomial whose largest
#: coefficient is below 1 trims relative to it (so ``9e-13 * t^16`` keeps
#: its degree), one with a coefficient of 1 or more trims at exactly
#: this value.
_TRIM_EPS = 1e-12


def _trimmed(coeffs: Sequence[float]) -> Tuple[float, ...]:
    """``coeffs`` without its negligible high-degree tail.

    The one trim rule of the package: :class:`Polynomial` and the scalar
    kernels in :mod:`repro.geometry.piecewise` both go through it.
    """
    end = len(coeffs)
    eps = None
    while end > 1:
        size = abs(coeffs[end - 1])
        if size > _TRIM_EPS:
            break
        if size > 0.0:
            # Small but not zero: only now does the scale matter (a zero
            # goes under any threshold, anything above ``_TRIM_EPS``
            # stays under any).
            if eps is None:
                eps = _TRIM_EPS * min(1.0, max(map(abs, coeffs)))
            if size > eps:
                break
        end -= 1
    return tuple(coeffs[:end])


# -- coefficient-tuple forms of three Polynomial operations ---------------------
# The scalar kernels of :mod:`repro.geometry.piecewise` run on trimmed
# coefficient tuples.  Each function below performs the float operations
# of the method it names, in the same order, without the intermediate
# objects; the methods themselves stay as they are so the object
# pipeline remains an independent oracle (``tests/_oracle.py``).
#
# The curve kernel (``Trajectory.squared_distance_to``) is the same
# bargain one layer up: it computes a cell's three coefficients on the
# component tuples and hands them to :meth:`Polynomial._trusted`, and
# the ``Vector`` / ``Polynomial`` / ``PiecewiseFunction`` composition it
# replaced is ``tests/_oracle.reference_squared_distance`` — again the
# object methods stay untouched, as that oracle.


def _horner(coeffs: Sequence[float], t: float) -> float:
    """``Polynomial(coeffs)(t)``."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _difference(a: Sequence[float], b: Sequence[float]) -> Tuple[float, ...]:
    """Coefficients of ``Polynomial(a) - Polynomial(b)``.

    ``__sub__`` accumulates ``a`` and then ``-b`` into a list of
    ``0.0``: every term is ``(0.0 + a_i) + (-b_i)``, which differs from
    ``a_i - b_i`` in the sign of a zero.
    """
    na, nb = len(a), len(b)
    if na == 3 and nb == 3:
        # Two quadratics (squared distances of linear motion), unrolled:
        # this is the sweep's pair test and a comprehension costs more
        # than the arithmetic.
        a0, a1, a2 = a
        b0, b1, b2 = b
        lead = (0.0 + a2) + (-b2)
        if abs(lead) > _TRIM_EPS:  # ``_trimmed`` would return it whole
            return ((0.0 + a0) + (-b0), (0.0 + a1) + (-b1), lead)
        out = [(0.0 + a0) + (-b0), (0.0 + a1) + (-b1), lead]
    else:
        out = [(0.0 + x) + (-y) for x, y in zip(a, b)]
        if na > nb:
            out.extend(0.0 + x for x in a[nb:])
        elif nb > na:
            out.extend(0.0 + (-y) for y in b[na:])
    return _trimmed(out)


def _derivative(coeffs: Sequence[float]) -> Tuple[float, ...]:
    """Coefficients of ``Polynomial(coeffs).derivative()``."""
    if len(coeffs) == 1:
        return (0.0,)
    return _trimmed([i * coeffs[i] for i in range(1, len(coeffs))])


class Polynomial:
    """An immutable univariate polynomial ``sum_i coeffs[i] * t**i``."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Number]) -> None:
        comps = [float(c) for c in coeffs]
        if not comps:
            comps = [0.0]
        if any(math.isnan(c) or math.isinf(c) for c in comps):
            raise ValueError("polynomial coefficients must be finite")
        self._coeffs = _trimmed(comps)

    @classmethod
    def _trusted(cls, coeffs: Tuple[float, ...]) -> "Polynomial":
        """``Polynomial(coeffs)`` for a non-empty tuple of floats (the
        curve kernel's): nothing to coerce, the rest as the
        constructor."""
        for c in coeffs:
            if not math.isfinite(c):
                raise ValueError("polynomial coefficients must be finite")
        self = object.__new__(cls)
        # A leading coefficient above ``_TRIM_EPS`` is ``_trimmed``'s
        # first test passing: the tuple comes back whole.
        self._coeffs = coeffs if abs(coeffs[-1]) > _TRIM_EPS else _trimmed(coeffs)
        return self

    # -- constructors -----------------------------------------------------
    @staticmethod
    def constant(value: Number) -> "Polynomial":
        """The constant polynomial ``value``."""
        return Polynomial([value])

    @staticmethod
    def identity() -> "Polynomial":
        """The polynomial ``t``."""
        return Polynomial([0.0, 1.0])

    @staticmethod
    def linear(slope: Number, intercept: Number) -> "Polynomial":
        """The polynomial ``slope * t + intercept``."""
        return Polynomial([intercept, slope])

    @staticmethod
    def zero() -> "Polynomial":
        """The zero polynomial."""
        return Polynomial([0.0])

    @staticmethod
    def monomial(degree: int, coefficient: Number = 1.0) -> "Polynomial":
        """The monomial ``coefficient * t**degree``."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return Polynomial([0.0] * degree + [float(coefficient)])

    @staticmethod
    def from_roots(roots: Sequence[Number], leading: Number = 1.0) -> "Polynomial":
        """``leading * prod (t - r)`` over the given roots."""
        poly = Polynomial.constant(leading)
        for r in roots:
            poly = poly * Polynomial([-float(r), 1.0])
        return poly

    # -- inspection ---------------------------------------------------------
    @property
    def coeffs(self) -> Tuple[float, ...]:
        """Coefficients, low degree first, high end trimmed."""
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree after trimming; the zero polynomial has degree 0."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        """True for the (trimmed) zero polynomial."""
        return len(self._coeffs) == 1 and self._coeffs[0] == 0.0

    @property
    def is_constant(self) -> bool:
        """True when the polynomial has degree zero."""
        return len(self._coeffs) == 1

    @property
    def leading_coefficient(self) -> float:
        """Coefficient of the highest-degree term."""
        return self._coeffs[-1]

    def __call__(self, t: float) -> float:
        """Evaluate via Horner's rule."""
        acc = 0.0
        for c in reversed(self._coeffs):
            acc = acc * t + c
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        terms: List[str] = []
        for power, c in enumerate(self._coeffs):
            if c == 0.0 and len(self._coeffs) > 1:
                continue
            if power == 0:
                terms.append(f"{c:g}")
            elif power == 1:
                terms.append(f"{c:g}*t")
            else:
                terms.append(f"{c:g}*t^{power}")
        return " + ".join(terms) if terms else "0"

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: "PolynomialLike") -> "Polynomial":
        other = as_polynomial(other)
        size = max(len(self._coeffs), len(other._coeffs))
        out = [0.0] * size
        for i, c in enumerate(self._coeffs):
            out[i] += c
        for i, c in enumerate(other._coeffs):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other: "PolynomialLike") -> "Polynomial":
        return self + (-as_polynomial(other))

    def __rsub__(self, other: "PolynomialLike") -> "Polynomial":
        return as_polynomial(other) - self

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __mul__(self, other: "PolynomialLike") -> "Polynomial":
        other = as_polynomial(other)
        out = [0.0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0.0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def scaled(self, factor: Number) -> "Polynomial":
        """Multiply every coefficient by ``factor``."""
        return Polynomial([c * float(factor) for c in self._coeffs])

    def derivative(self) -> "Polynomial":
        """First derivative."""
        if len(self._coeffs) == 1:
            return Polynomial.zero()
        return Polynomial([i * c for i, c in enumerate(self._coeffs)][1:])

    def antiderivative(self, constant: float = 0.0) -> "Polynomial":
        """Antiderivative with the given integration constant."""
        out = [constant]
        out.extend(c / (i + 1) for i, c in enumerate(self._coeffs))
        return Polynomial(out)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Composition ``self(inner(t))`` by Horner over polynomials.

        Used to realize queries whose time terms are polynomials in
        ``t`` (the paper's "factor of k" extension): each curve becomes
        ``f_o(p(t))``.
        """
        acc = Polynomial.zero()
        for c in reversed(self._coeffs):
            acc = acc * inner + Polynomial.constant(c)
        return acc

    def shifted(self, delta: float) -> "Polynomial":
        """Return ``p(t + delta)``."""
        return self.compose(Polynomial([delta, 1.0]))

    def approx_equals(self, other: "Polynomial", atol: float = 1e-9) -> bool:
        """Coefficientwise approximate equality."""
        size = max(len(self._coeffs), len(other._coeffs))
        a = list(self._coeffs) + [0.0] * (size - len(self._coeffs))
        b = list(other._coeffs) + [0.0] * (size - len(other._coeffs))
        return all(abs(x - y) <= atol for x, y in zip(a, b))


PolynomialLike = Union[Polynomial, int, float]


def as_polynomial(value: PolynomialLike) -> Polynomial:
    """Coerce scalars to constant polynomials, pass polynomials through."""
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)

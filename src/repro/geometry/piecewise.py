"""Piecewise polynomial functions of time.

A *polynomial* generalized distance (Section 5) maps every trajectory to
a function that "consists of finitely many pieces and is piecewise
polynomial".  :class:`PiecewiseFunction` is that representation: a list
of contiguous closed intervals, each carrying one
:class:`~repro.geometry.poly.Polynomial`.

The module also supplies the two analyses the sweep engine is built on:

- :meth:`PiecewiseFunction.sign_segments` — the maximal runs of
  constant sign of a function, with tangencies correctly *not* splitting
  a run, and
- :func:`first_order_flip_after` — the earliest future time at which the
  strict order of two curves flips, which is exactly the "intersection
  event" of Lemma 7 (coincidence stretches are handled by reporting the
  time at which the opposite strict order first holds).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.geometry.intervals import Interval
from repro.geometry.poly import (
    Polynomial,
    _derivative,
    _difference,
    _horner,
    as_polynomial,
)
from repro.geometry.roots import _quadratic_roots, real_roots
from repro.geometry.tolerance import DEFAULT_ATOL, approx_eq

Piece = Tuple[Interval, Polynomial]

#: Function values with magnitude at or below this are treated as an
#: exact tie when classifying signs of difference curves.
_SIGN_ATOL = 1e-11


def _probe_point(lo: float, hi: float) -> float:
    """An interior point of ``[lo, hi]``; unbounded ends step one unit."""
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(lo):
        return hi - 1.0
    if math.isinf(hi):
        return lo + 1.0
    return (lo + hi) / 2.0


# -- the per-piece arithmetic of the reads, on coefficient tuples ---------------
# :class:`PiecewiseFunction` and :class:`ClosedForm` both read through
# these, so a closed-form read is the curve's read bit for bit.


def _low_taylor(coeffs: Sequence[float], t: float, terms: int) -> Tuple[float, ...]:
    """:meth:`PiecewiseFunction.forward_taylor` of a piece of degree at
    most two, for ``terms > 0``."""
    z = 0.0 * t
    degree = len(coeffs) - 1
    if degree == 2:
        c0, c1, c2 = coeffs
        d2 = 2 * c2
        head = (((z + c2) * t + c1) * t + c0, (z + d2) * t + c1, z + d2)
    elif degree == 1:
        c0, c1 = coeffs
        head = ((z + c1) * t + c0, z + c1)
    else:
        head = (z + coeffs[0],)
    if terms <= degree + 1:
        return head[:terms]
    return head + (z + 0.0,) * (terms - degree - 1)


def _piece_bounds(coeffs, lo: float, hi: float, reach: float, vmin: float, vmax: float):
    """One piece's share of :meth:`PiecewiseFunction.bounds`: ``vmin``
    and ``vmax`` widened by its values at ``lo``, ``hi`` and the
    stationary points strictly between, and its magnitude at ``reach``."""
    degree = len(coeffs) - 1
    if degree == 2:
        c0, c1, c2 = coeffs
        values = [(c2 * lo + c1) * lo + c0, (c2 * hi + c1) * hi + c0]
        turn = -c1 / (2.0 * c2)
        if lo < turn < hi:
            values.append((c2 * turn + c1) * turn + c0)
        size = (abs(c2) * reach + abs(c1)) * reach + abs(c0)
    elif degree == 1:
        c0, c1 = coeffs
        values = [c1 * lo + c0, c1 * hi + c0]
        size = abs(c1) * reach + abs(c0)
    elif degree == 0:
        values = [coeffs[0]]
        size = abs(coeffs[0])
    else:
        values = [_horner(coeffs, lo), _horner(coeffs, hi)]
        for turn in real_roots(Polynomial(_derivative(coeffs))):
            if lo < turn < hi:
                values.append(_horner(coeffs, turn))
        size = _horner([abs(c) for c in coeffs], reach)
    for v in values:
        if v < vmin:
            vmin = v
        if v > vmax:
            vmax = v
    return vmin, vmax, size


def _last_floor(coeffs, start: float) -> Optional[Tuple[float, float]]:
    """:meth:`PiecewiseFunction.floor`'s last piece from ``start`` on:
    ``(minimum, magnitude)``, ``None`` for a shape with no closed-form
    minimum there."""
    if len(coeffs) > 3 or coeffs[-1] < 0.0:
        return None
    if len(coeffs) == 3:
        c0, c1, c2 = coeffs
        turn = -c1 / (2.0 * c2)
        if turn < start:
            turn = start
        value = (c2 * turn + c1) * turn + c0
        reach = abs(turn) if abs(turn) > abs(start) else abs(start)
        return value, (abs(c2) * reach + abs(c1)) * reach + abs(c0)
    if len(coeffs) == 2:
        c0, c1 = coeffs
        return c1 * start + c0, abs(c1) * abs(start) + abs(c0)
    return coeffs[0], coeffs[0]


class PiecewiseFunction:
    """A piecewise polynomial function on a contiguous closed domain.

    Pieces are stored in increasing time order; consecutive pieces share
    their boundary instant (intervals are closed, so boundaries belong
    to both pieces — on a boundary the *earlier* piece is authoritative
    for evaluation, which is immaterial for continuous functions).
    """

    __slots__ = ("_pieces", "_domain", "_his", "_cuts")

    def __init__(self, pieces: Iterable[Piece]) -> None:
        items = list(pieces)
        if not items:
            raise ValueError("a piecewise function needs at least one piece")
        for (iv_a, _), (iv_b, _) in zip(items, items[1:]):
            if not approx_eq(iv_a.hi, iv_b.lo):
                raise ValueError(
                    f"pieces must be contiguous: {iv_a} then {iv_b}"
                )
        self._pieces: Tuple[Piece, ...] = tuple(
            [(iv, as_polynomial(p)) for iv, p in items]
        )
        intervals = [iv for iv, _ in items]
        self._domain = (
            intervals[0]
            if len(intervals) == 1
            else Interval(intervals[0].lo, intervals[-1].hi)
        )
        #: Piece upper bounds, the key of every piece lookup.
        self._his: Tuple[float, ...] = tuple([iv.hi for iv in intervals])
        #: Interior breakpoints, sorted (contiguity is only approximate,
        #: so the piece order does not guarantee it).
        self._cuts: Tuple[float, ...] = tuple(sorted([iv.lo for iv in intervals[1:]]))

    @classmethod
    def _trusted(cls, pieces: Tuple[Piece, ...], domain: Interval) -> "PiecewiseFunction":
        """``PiecewiseFunction(pieces)`` for pieces that are contiguous
        by construction — each interval starts on the float the one
        before it ends on, ``domain`` spans them — and already hold
        :class:`Polynomial` objects: nothing to check, coerce or sort."""
        self = object.__new__(cls)
        self._pieces = pieces
        self._domain = domain
        if len(pieces) == 1:  # a live object's tail: no comprehension
            self._his = (pieces[0][0].hi,)
        else:
            self._his = tuple([iv.hi for iv, _ in pieces])
        self._cuts = self._his[:-1]
        return self

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_polynomial(poly: Polynomial, domain: Interval = Interval.all_time()) -> "PiecewiseFunction":
        """A single-piece function: ``poly`` on ``domain``."""
        return PiecewiseFunction([(domain, poly)])

    @staticmethod
    def constant(value: float, domain: Interval = Interval.all_time()) -> "PiecewiseFunction":
        """The constant function ``value`` on ``domain``."""
        return PiecewiseFunction([(domain, Polynomial.constant(value))])

    # -- inspection ---------------------------------------------------------
    @property
    def pieces(self) -> Tuple[Piece, ...]:
        """The ``(interval, polynomial)`` pieces in time order."""
        return self._pieces

    @property
    def piece_count(self) -> int:
        """Number of pieces."""
        return len(self._pieces)

    @property
    def domain(self) -> Interval:
        """The contiguous domain covered by all pieces."""
        return self._domain

    @property
    def breakpoints(self) -> List[float]:
        """Interior piece boundaries, in increasing order."""
        return [iv.lo for iv, _ in self._pieces[1:]]

    @property
    def max_degree(self) -> int:
        """Largest polynomial degree over all pieces."""
        return max(p.degree for _, p in self._pieces)

    def piece_at(self, t: float) -> Piece:
        """The authoritative piece containing ``t`` (earliest on ties)."""
        if not self._domain.contains(t, atol=DEFAULT_ATOL):
            raise ValueError(f"{t} outside domain {self._domain}")
        return self._pieces[self._index(t)]

    def _index(self, t: float) -> int:
        """Index of the piece at ``t``: the earliest whose upper bound
        reaches ``t`` (the last piece when none does)."""
        his = self._his
        return bisect_left(his, t, 0, len(his) - 1)

    def __call__(self, t: float) -> float:
        _, poly = self.piece_at(t)
        return poly(t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PiecewiseFunction):
            return NotImplemented
        return self._pieces == other._pieces

    def __repr__(self) -> str:
        body = "; ".join(f"{poly!r} on {iv!r}" for iv, poly in self._pieces)
        return f"PiecewiseFunction({body})"

    def is_continuous(self, atol: float = 1e-7) -> bool:
        """Check continuity across interior breakpoints."""
        return not self.discontinuities(atol=atol)

    def discontinuities(self, atol: float = 1e-7) -> List[float]:
        """Interior breakpoints where the value jumps.

        The model's default g-distances are continuous; the relaxed
        class the paper's closing remark admits (finitely many
        continuous pieces) jumps at these instants, and the sweep
        engine must re-insert the affected curve there.
        """
        out: List[float] = []
        for (iv_a, p_a), (_, p_b) in zip(self._pieces, self._pieces[1:]):
            boundary = iv_a.hi
            if not approx_eq(p_a(boundary), p_b(boundary), atol=atol):
                out.append(boundary)
        return out

    def forward_taylor(self, t: float, terms: int = 8) -> Tuple[float, ...]:
        """Derivatives ``(f(t+), f'(t+), f''(t+), ...)`` of the piece
        governing ``[t, t+eps)``, padded/truncated to ``terms`` entries.

        Lexicographic comparison of these tuples orders curves by their
        values on an immediate right-neighborhood of ``t`` — the
        tie-break the sweep needs when two curves are exactly equal at
        an insertion instant: the list must reflect the order that
        holds just *after* ``t``, or the first-nonzero-sign convention
        used for intersection scheduling silently inverts.

        Up to degree two the key is written out (:func:`_low_taylor`):
        ``z = 0.0 * t`` is the
        first product of every Horner pass, the derivatives of a
        trimmed ``(c0, c1, c2)`` are ``(c1, 2 c2)`` and ``(2 c2,)`` —
        neither trims, because ``2 c2`` clears any threshold ``c2``
        cleared — and every derivative past the last is the zero
        polynomial.  Each entry is the float operations of the loop
        below in the same order, so the tuple is bit for bit the loop's
        (``tests/_oracle.reference_forward_taylor``); higher degrees run
        the loop.
        """
        coeffs = self._forward_piece(t)[1]._coeffs
        if len(coeffs) < 4 and terms > 0:
            return _low_taylor(coeffs, t, terms)
        out: List[float] = []
        for _ in range(terms):
            out.append(_horner(coeffs, t))
            if len(coeffs) == 1:
                # Every further derivative is the zero polynomial.
                out.extend([0.0 * t + 0.0] * (terms - len(out)))
                break
            coeffs = _derivative(coeffs)
        return tuple(out)

    def _forward_piece(self, t: float) -> Piece:
        """The piece governing ``[t, t+eps)``: the earliest whose upper
        bound lies beyond ``t`` (the last piece at domain end).  Every
        order key asks, so the search and the containment test are
        written out."""
        his = self._his
        piece = self._pieces[bisect_right(his, t, 0, len(his) - 1)]
        iv = piece[0]
        if not iv.lo - DEFAULT_ATOL <= t <= iv.hi + DEFAULT_ATOL:
            return self.piece_at(t)
        return piece

    def value_after(self, t: float) -> float:
        """The right-limit value at ``t``.

        Differs from ``self(t)`` only at a discontinuity, where plain
        evaluation is authoritative for the *earlier* piece.
        """
        return self._forward_piece(t)[1](t)

    def sample(self, times: Sequence[float]) -> List[float]:
        """Evaluate at several times (test/baseline helper)."""
        return [self(t) for t in times]

    def bounds(self, lo: float, hi: float) -> Optional[Tuple[float, float, float]]:
        """``(minimum, maximum, magnitude)`` of the function over
        ``[lo, hi]`` cut to the domain (which must leave a bounded
        stretch); ``None`` when the two do not meet.

        Piece by piece: the values at the piece's ends of the stretch
        and at the stationary points strictly between them — closed
        form up to degree two on the coefficient tuple (no
        :class:`Polynomial` or :class:`Interval` is built), the real
        roots of the derivative above that.  A breakpoint inside the
        stretch is visited from both sides, so a value jump contributes
        its left and its right limit.

        ``magnitude`` is the largest ``sum_i |c_i| |t|^i`` over the
        visited pieces at the stretch's larger ``|t|``: every value
        above was computed to within a few ulps *of that*, not of
        itself (a squared distance near its closest approach is a
        cancellation of far larger terms), so it is the scale a strict
        comparison of two bounds must leave as margin.
        """
        domain = self._domain
        a = lo if lo > domain.lo else domain.lo
        b = hi if hi < domain.hi else domain.hi
        if a > b:
            return None
        if math.isinf(a) or math.isinf(b):
            raise ValueError(f"bounds need a bounded stretch, got [{a}, {b}]")
        reach = abs(a) if abs(a) > abs(b) else abs(b)
        vmin, vmax, magnitude = math.inf, -math.inf, 0.0
        pieces = self._pieces
        for index in range(self._index(a), len(pieces)):
            iv, poly = pieces[index]
            if iv.lo > b:
                break
            vmin, vmax, size = _piece_bounds(
                poly._coeffs, a if a > iv.lo else iv.lo, b if b < iv.hi else iv.hi,
                reach, vmin, vmax,
            )
            if size > magnitude:
                magnitude = size
        return vmin, vmax, magnitude

    def floor(self, lo: float) -> Optional[Tuple[float, float]]:
        """``(minimum, magnitude)`` of the function from ``lo`` (inside
        the domain) to the end of its domain, as :meth:`bounds` reads
        them.  An unbounded end is read only where the last piece has a
        closed-form minimum there — degree at most two with a
        non-negative leading coefficient: a closest approach, or a curve
        that never falls — and ``None`` is returned for any other
        shape.  The magnitude is taken at the points evaluated (the
        stretch's start and the vertex), never at infinity."""
        domain = self._domain
        if domain.hi < math.inf:
            found = self.bounds(lo, domain.hi)
            return None if found is None else (found[0], found[2])
        iv, poly = self._pieces[-1]
        start = lo if lo > iv.lo else iv.lo
        found = _last_floor(poly._coeffs, start)
        if found is None or not start > lo:
            return found
        vmin, _, magnitude = self.bounds(lo, start)  # the pieces before
        return min(vmin, found[0]), max(magnitude, found[1])

    # -- restructuring ---------------------------------------------------
    def restrict(self, interval: Interval) -> "PiecewiseFunction":
        """Restriction to ``interval`` (must overlap the domain)."""
        cap_domain = self.domain.intersect(interval)
        if cap_domain is None:
            raise ValueError(f"{interval} does not meet domain {self.domain}")
        out: List[Piece] = []
        for iv, poly in self._pieces:
            cap = iv.intersect(cap_domain)
            if cap is not None and (cap.length > 0 or cap_domain.is_point):
                out.append((cap, poly))
        if not out:
            # Interval hits a single boundary instant.
            iv, poly = self.piece_at(cap_domain.lo)
            out = [(Interval.point(cap_domain.lo), poly)]
        return PiecewiseFunction(out)

    def extend_to(self, domain: Interval, mode: str = "hold") -> "PiecewiseFunction":
        """Extend the function to a larger domain.

        ``mode='hold'`` continues the first/last piece polynomials to
        the new boundaries; ``mode='freeze'`` holds the boundary *value*
        constant outside the original domain (used to model terminated
        objects that keep their last recorded distance).
        """
        if mode not in ("hold", "freeze"):
            raise ValueError(f"unknown extension mode {mode!r}")
        pieces = list(self._pieces)
        own = self.domain
        if domain.lo < own.lo:
            iv0, p0 = pieces[0]
            filler = p0 if mode == "hold" else Polynomial.constant(p0(own.lo))
            pieces[0] = (Interval(domain.lo, iv0.hi), filler) if mode == "hold" else pieces[0]
            if mode == "freeze":
                pieces.insert(0, (Interval(domain.lo, own.lo), filler))
        if domain.hi > own.hi:
            iv_n, p_n = pieces[-1]
            filler = p_n if mode == "hold" else Polynomial.constant(p_n(own.hi))
            if mode == "hold":
                pieces[-1] = (Interval(iv_n.lo, domain.hi), filler)
            else:
                pieces.append((Interval(own.hi, domain.hi), filler))
        return PiecewiseFunction(pieces)

    def _refined_against(self, other: "PiecewiseFunction") -> Tuple[Interval, List[float]]:
        """Common domain and the merged interior breakpoints on it."""
        domain = self.domain.intersect(other.domain)
        if domain is None:
            raise ValueError(
                f"domains {self.domain} and {other.domain} do not overlap"
            )
        cuts = sorted(
            {
                b
                for b in (*self.breakpoints, *other.breakpoints)
                if domain.lo < b < domain.hi
            }
        )
        return domain, cuts

    def _binary(self, other: "PiecewiseFunction", op: Callable[[Polynomial, Polynomial], Polynomial]) -> "PiecewiseFunction":
        domain, cuts = self._refined_against(other)
        bounds = [domain.lo, *cuts, domain.hi]
        out: List[Piece] = []
        if domain.is_point:
            _, pa = self.piece_at(domain.lo)
            _, pb = other.piece_at(domain.lo)
            return PiecewiseFunction([(domain, op(pa, pb))])
        for lo, hi in zip(bounds, bounds[1:]):
            probe = _probe_point(lo, hi)
            _, pa = self.piece_at(probe)
            _, pb = other.piece_at(probe)
            out.append((Interval(lo, hi), op(pa, pb)))
        return PiecewiseFunction(out)

    # -- algebra --------------------------------------------------------------
    def __add__(self, other: "PiecewiseFunction") -> "PiecewiseFunction":
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other: "PiecewiseFunction") -> "PiecewiseFunction":
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other: "PiecewiseFunction") -> "PiecewiseFunction":
        return self._binary(other, lambda a, b: a * b)

    def __neg__(self) -> "PiecewiseFunction":
        return PiecewiseFunction([(iv, -p) for iv, p in self._pieces])

    def scaled(self, factor: float) -> "PiecewiseFunction":
        """Multiply by a scalar."""
        return PiecewiseFunction([(iv, p.scaled(factor)) for iv, p in self._pieces])

    def plus_constant(self, value: float) -> "PiecewiseFunction":
        """Add a scalar."""
        return PiecewiseFunction(
            [(iv, p + Polynomial.constant(value)) for iv, p in self._pieces]
        )

    def derivative(self) -> "PiecewiseFunction":
        """Piecewise derivative (undefined single instants at turns are
        resolved in favor of the earlier piece, as with evaluation)."""
        return PiecewiseFunction([(iv, p.derivative()) for iv, p in self._pieces])

    def compose_polynomial(self, time_term: Polynomial, domain: Interval) -> "PiecewiseFunction":
        """The composition ``self(time_term(t))`` on ``domain``.

        Realizes query time terms that are polynomials in ``t`` (the
        paper's multi-time-term extension): the result is again
        piecewise polynomial.  ``domain`` must be chosen so that
        ``time_term`` maps it into this function's domain.
        """
        if time_term.is_constant:
            value = self(time_term(0.0))
            return PiecewiseFunction.constant(value, domain)
        cuts: List[float] = []
        targets = [self.domain.lo, *self.breakpoints, self.domain.hi]
        for target in targets:
            if math.isinf(target):
                continue
            shifted = time_term - Polynomial.constant(target)
            if not shifted.is_zero:
                cuts.extend(r for r in real_roots(shifted) if domain.lo < r < domain.hi)
        deriv = time_term.derivative()
        if not deriv.is_zero and deriv.degree >= 1:
            cuts.extend(r for r in real_roots(deriv) if domain.lo < r < domain.hi)
        bounds = [domain.lo, *sorted(set(cuts)), domain.hi]
        out: List[Piece] = []
        for lo, hi in zip(bounds, bounds[1:]):
            probe = _probe_point(lo, hi)
            image = time_term(probe)
            if not self.domain.contains(image, atol=DEFAULT_ATOL):
                raise ValueError(
                    f"time term maps {probe} to {image}, outside domain {self.domain}"
                )
            _, poly = self.piece_at(self.domain.clamp(image))
            out.append((Interval(lo, hi), poly.compose(time_term)))
        if not out:
            out = [(domain, Polynomial.constant(self(time_term(domain.lo))))]
        return PiecewiseFunction(out)

    # -- sign analysis -----------------------------------------------------
    def sign_segments(self, within: Optional[Interval] = None) -> List[Tuple[Interval, int]]:
        """Maximal runs of constant sign (-1, 0, +1) over the domain.

        Tangential zeros interior to a positive (negative) run do not
        split the run; genuine zero *stretches* (pieces identically
        zero, or isolated crossing points) appear as sign-0 segments.
        Isolated crossings appear as degenerate point segments.
        """
        region = self.domain if within is None else self.domain.intersect(within)
        if region is None:
            return []
        raw: List[Tuple[Interval, int]] = []
        for iv, poly in self._pieces:
            cap = iv.intersect(region)
            if cap is None or (cap.is_point and raw):
                continue
            raw.extend(_poly_sign_segments(poly, cap))
        return _merge_sign_runs(raw)

    def crossings_with(self, other: "PiecewiseFunction", within: Optional[Interval] = None) -> List[float]:
        """Times at which the strict order of two curves flips.

        For a coincidence stretch followed by the opposite order, the
        reported time is the end of the stretch — the instant at which
        the new strict order first holds.
        """
        diff = self - other
        segments = diff.sign_segments(within=within)
        out: List[float] = []
        last_sign = 0
        for iv, sign in segments:
            if sign == 0:
                continue
            if last_sign != 0 and sign != last_sign:
                out.append(iv.lo)
            last_sign = sign
        return out

    def approx_equals(self, other: "PiecewiseFunction", times: Optional[Sequence[float]] = None, atol: float = 1e-7) -> bool:
        """Pointwise approximate equality on sample times."""
        domain = self.domain.intersect(other.domain)
        if domain is None:
            return False
        probe = list(times) if times is not None else domain.sample_points(17)
        return all(abs(self(t) - other(t)) <= atol for t in probe)


class ClosedForm:
    """The reads of a piecewise quadratic curve — ``domain``,
    :meth:`~PiecewiseFunction.bounds`, :meth:`~PiecewiseFunction.floor`
    and :meth:`~PiecewiseFunction.forward_taylor` — from its cells
    ``(lo, hi, (c0, c1, c2))``: the pieces a :class:`PiecewiseFunction`
    would hold, contiguous, with no leading coefficient that trims, and
    no piece, interval or polynomial built.  Each read runs the curve's
    own search and per-piece helpers, so it is the curve's bit for bit,
    exceptions included (``tests/gdist/test_closed_form_reads.py``)."""

    __slots__ = ("domain", "_cells", "_his")

    def __init__(self, domain: Interval, cells) -> None:
        self.domain = domain
        self._cells = cells
        # The key of the piece lookups, which one cell does without.
        self._his = tuple([c[1] for c in cells]) if len(cells) > 1 else None

    def bounds(self, lo: float, hi: float) -> Optional[Tuple[float, float, float]]:
        domain = self.domain
        a = lo if lo > domain.lo else domain.lo
        b = hi if hi < domain.hi else domain.hi
        if a > b:
            return None
        if math.isinf(a) or math.isinf(b):
            raise ValueError(f"bounds need a bounded stretch, got [{a}, {b}]")
        reach = abs(a) if abs(a) > abs(b) else abs(b)
        his = self._his
        if his is None:
            # One cell, the domain: ``[a, b]`` is its stretch, and its
            # magnitude (never negative) the largest.
            return _piece_bounds(self._cells[0][2], a, b, reach, math.inf, -math.inf)
        vmin, vmax, magnitude = math.inf, -math.inf, 0.0
        for c_lo, c_hi, coeffs in self._cells[bisect_left(his, a, 0, len(his) - 1) :]:
            if c_lo > b:
                break
            vmin, vmax, size = _piece_bounds(
                coeffs, a if a > c_lo else c_lo, b if b < c_hi else c_hi, reach, vmin, vmax
            )
            if size > magnitude:
                magnitude = size
        return vmin, vmax, magnitude

    def floor(self, lo: float) -> Optional[Tuple[float, float]]:
        domain = self.domain
        if domain.hi < math.inf:
            found = self.bounds(lo, domain.hi)
            return None if found is None else (found[0], found[2])
        c_lo, _, coeffs = self._cells[-1]
        start = lo if lo > c_lo else c_lo
        found = _last_floor(coeffs, start)
        if not start > lo:
            return found
        vmin, _, magnitude = self.bounds(lo, start)
        return min(vmin, found[0]), max(magnitude, found[1])

    def forward_taylor(self, t: float, terms: int = 8) -> Tuple[float, ...]:
        cells, his = self._cells, self._his
        cell = cells[0] if his is None else cells[bisect_right(his, t, 0, len(his) - 1)]
        if not cell[0] - DEFAULT_ATOL <= t <= cell[1] + DEFAULT_ATOL:
            if not self.domain.contains(t, atol=DEFAULT_ATOL):
                raise ValueError(f"{t} outside domain {self.domain}")
            cell = cells[0] if his is None else cells[bisect_left(his, t, 0, len(his) - 1)]
        return _low_taylor(cell[2], t, terms) if terms > 0 else ()


def _poly_sign_segments(poly: Polynomial, interval: Interval) -> List[Tuple[Interval, int]]:
    """Sign runs of a single polynomial on an interval."""
    if poly.is_zero:
        return [(interval, 0)]
    if interval.is_point:
        v = poly(interval.lo)
        return [(interval, 0 if abs(v) <= _SIGN_ATOL else (1 if v > 0 else -1))]
    roots = [r for r in real_roots(poly) if interval.lo < r < interval.hi]
    bounds = [interval.lo, *roots, interval.hi]
    out: List[Tuple[Interval, int]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        probe = _probe_point(lo, hi)
        v = poly(probe)
        sign = 0 if abs(v) <= _SIGN_ATOL else (1 if v > 0 else -1)
        out.append((Interval(lo, hi), sign))
    # Insert degenerate zero points at interior roots so crossings are
    # visible as 0-sign point segments between opposite runs.
    enriched: List[Tuple[Interval, int]] = []
    for idx, seg in enumerate(out):
        enriched.append(seg)
        if idx < len(out) - 1:
            boundary = seg[0].hi
            enriched.append((Interval.point(boundary), 0))
    return enriched


def _merge_sign_runs(raw: List[Tuple[Interval, int]]) -> List[Tuple[Interval, int]]:
    """Merge adjacent runs with equal sign; drop zero-width runs that
    separate runs of the *same* sign (tangencies)."""
    merged: List[Tuple[Interval, int]] = []
    for iv, sign in raw:
        if merged:
            prev_iv, prev_sign = merged[-1]
            if prev_sign == sign:
                merged[-1] = (Interval(prev_iv.lo, max(prev_iv.hi, iv.hi)), sign)
                continue
        merged.append((iv, sign))
    # Remove point-sized zero runs flanked by equal signs (tangency).
    cleaned: List[Tuple[Interval, int]] = []
    for idx, (iv, sign) in enumerate(merged):
        if (
            sign == 0
            and iv.is_point
            and 0 < idx < len(merged) - 1
            and merged[idx - 1][1] == merged[idx + 1][1]
            and merged[idx - 1][1] != 0
        ):
            continue
        cleaned.append((iv, sign))
    # Re-merge equal neighbors created by the removal.
    out: List[Tuple[Interval, int]] = []
    for iv, sign in cleaned:
        if out and out[-1][1] == sign:
            out[-1] = (Interval(out[-1][0].lo, max(out[-1][0].hi, iv.hi)), sign)
        else:
            out.append((iv, sign))
    return out


def first_order_flip_after(
    f: PiecewiseFunction,
    g: PiecewiseFunction,
    t0: float,
    horizon: float = math.inf,
    min_gap: float = DEFAULT_ATOL,
    assume_sign: Optional[int] = None,
    allow_immediate: bool = False,
) -> Optional[float]:
    """Earliest time in ``(t0 + min_gap, horizon]`` where the strict
    order of ``f`` and ``g`` flips.

    This is the sweep engine's intersection-event primitive: it returns
    the instant at which the opposite strict order *first holds*, which
    for a transversal crossing is the crossing time itself and for a
    coincidence stretch is the end of the stretch.  Returns None when
    the order never flips in range (including identical curves).

    ``assume_sign`` is the caller's belief about ``sign(f - g)`` just
    after ``t0`` (the sweep passes -1: "f is below g in my list").
    Without it, the baseline is the first nonzero sign observed — which
    silently agrees with whatever the data says and therefore cannot
    detect that the caller's order is contradicted at a tie stretch's
    end.  With it, a first segment of the *opposite* sign triggers a
    flip immediately (at the stretch end, or right after ``t0``).

    ``allow_immediate`` admits a flip at ``t0`` itself (within the
    ``min_gap`` guard band).  Pass it for pairs that have just become
    adjacent — a contradiction at the adjacency instant is a genuine
    inversion inherited from a tie stretch and must be corrected now.
    Never pass it when rescheduling the pair a swap was just processed
    for: the sliver of old-sign left by root rounding would re-fire the
    same event forever.

    The function is a scalar kernel: it walks the cells of ``f - g``'s
    partition forward from ``t0`` on coefficient tuples and stops at the
    first admissible flip, building no :class:`PiecewiseFunction`,
    :class:`Polynomial` or :class:`Interval` (a cell of degree three or
    more hands one polynomial to :func:`real_roots`).  It performs the
    float operations of the composition
    ``(f - g).restrict(window).sign_segments()`` followed by the
    baseline scan, in the same order, and returns the same float for
    every input that composition accepts — there is no other path.
    That composition lives on as ``tests/_oracle.reference_flip_after``,
    and ``tests/geometry/test_flip_kernel.py`` holds the two equal.
    """
    # ``b if b > a else a`` is ``max(a, b)`` and ``b if b < a else a``
    # is ``min(a, b)``, without the call.
    f_domain, g_domain = f._domain, g._domain
    dlo, dhi = f_domain.lo, f_domain.hi
    if g_domain.lo > dlo:
        dlo = g_domain.lo
    if g_domain.hi < dhi:
        dhi = g_domain.hi
    if dlo > dhi or dhi <= t0:
        return None
    wlo = dlo if dlo > t0 else t0
    whi = dhi if dhi < horizon else horizon
    if wlo > whi:
        return None
    point_window = wlo == whi
    base_sign = 0 if assume_sign is None else assume_sign

    # The partition of ``f - g``: the common domain cut at every interior
    # breakpoint of either curve.  Start at the first cell that meets
    # the window: for a point window the earliest cell containing the
    # instant, otherwise the cell holding the window's first stretch (a
    # cell that only touches ``wlo`` with its upper end meets the window
    # in a single instant and is not part of the restriction).
    f_cuts, g_cuts = f._cuts, g._cuts
    nf, ng = len(f_cuts), len(g_cuts)
    multi_piece = nf > 0 or ng > 0
    a = dlo
    kf = kg = 0
    if multi_piece:
        locate = bisect_left if point_window else bisect_right
        kf, kg = locate(f_cuts, wlo), locate(g_cuts, wlo)
        if kf and f_cuts[kf - 1] > a:
            a = f_cuts[kf - 1]
        if kg and g_cuts[kg - 1] > a:
            a = g_cuts[kg - 1]
    while True:
        b = dhi
        if multi_piece:
            while kf < nf and f_cuts[kf] <= a:
                kf += 1
            while kg < ng and g_cuts[kg] <= a:
                kg += 1
            if kf < nf and f_cuts[kf] < b:
                b = f_cuts[kf]
            if kg < ng and g_cuts[kg] < b:
                b = g_cuts[kg]
            # Each curve's piece on the cell [a, b], looked up at the
            # probe the object pipeline builds the difference from.
            probe = _probe_point(a, b)
            diff = _difference(
                f._pieces[f._index(probe)][1].coeffs,
                g._pieces[g._index(probe)][1].coeffs,
            )
        else:
            diff = _difference(f._pieces[0][1].coeffs, g._pieces[0][1].coeffs)
        lo = wlo if wlo > a else a
        hi = whi if whi < b else b
        degree = len(diff) - 1
        if degree > 0 or diff[0] != 0.0:
            # Sign runs of the cell's polynomial on [lo, hi], split at
            # its interior roots; a coincidence stretch (zero
            # difference) has no run to report.  The runs are scanned
            # unmerged: the scan below only reacts to a nonzero sign
            # that differs from the baseline, and that is always the
            # first run of its merged stretch, so merging equal
            # neighbours (or dropping tangency points) changes nothing
            # it sees.
            if degree == 0 or point_window:
                roots: Sequence[float] = ()
            elif degree == 2:
                roots = _quadratic_roots(diff[0], diff[1], diff[2])
            elif degree == 1:
                roots = (-diff[0] / diff[1],)
            else:
                roots = real_roots(Polynomial(diff))
            stops = []
            for r in roots:
                if lo < r < hi:
                    stops.append(r)
            stops.append(hi)
            run_lo = lo
            for run_hi in stops:
                t = lo if point_window else _probe_point(run_lo, run_hi)
                v = _horner(diff, t)
                if not abs(v) <= _SIGN_ATOL:
                    sign = 1 if v > 0 else -1
                    if base_sign == 0:
                        base_sign = sign
                    elif sign != base_sign:
                        if run_lo > t0 + min_gap:
                            return run_lo
                        if allow_immediate:
                            return t0 if t0 > run_lo else run_lo
                        # The flip sits at/behind the guard band: keep
                        # scanning with the *new* sign as the baseline.
                        base_sign = sign
                run_lo = run_hi
        if point_window or b >= whi:
            return None
        a = b


def minimum(f: PiecewiseFunction, g: PiecewiseFunction) -> PiecewiseFunction:
    """Pointwise minimum (lower envelope of two curves)."""
    return _envelope(f, g, lower=True)


def maximum(f: PiecewiseFunction, g: PiecewiseFunction) -> PiecewiseFunction:
    """Pointwise maximum (upper envelope of two curves)."""
    return _envelope(f, g, lower=False)


def _envelope(f: PiecewiseFunction, g: PiecewiseFunction, lower: bool) -> PiecewiseFunction:
    diff = f - g
    domain = diff.domain
    segments = diff.sign_segments()
    out: List[Piece] = []
    for iv, sign in segments:
        if iv.is_point and out:
            continue
        pick_f = (sign <= 0) if lower else (sign >= 0)
        source = f if pick_f else g
        probe = _probe_point(iv.lo, iv.hi)
        sub = source.restrict(iv) if not iv.is_point else None
        if sub is None:
            _, poly = source.piece_at(probe)
            out.append((iv, poly))
        else:
            out.extend(sub.pieces)
    if not out:
        return f.restrict(domain)
    return PiecewiseFunction(_coalesce(out))


def lower_envelope(functions: Sequence[PiecewiseFunction]) -> PiecewiseFunction:
    """Lower envelope of many curves (Example 6's 1-NN characterization).

    Implemented as a balanced pairwise reduction; the sweep engine does
    not use this (it maintains the full order), but tests cross-check
    the engine's rank-0 answer against this independent construction.
    """
    if not functions:
        raise ValueError("need at least one function")
    work = list(functions)
    while len(work) > 1:
        nxt = [
            minimum(work[i], work[i + 1]) if i + 1 < len(work) else work[i]
            for i in range(0, len(work), 2)
        ]
        work = nxt
    return work[0]


def _coalesce(pieces: List[Piece]) -> List[Piece]:
    """Merge adjacent pieces carrying the same polynomial."""
    out: List[Piece] = []
    for iv, poly in pieces:
        if out:
            prev_iv, prev_poly = out[-1]
            if prev_poly == poly and approx_eq(prev_iv.hi, iv.lo):
                out[-1] = (Interval(prev_iv.lo, iv.hi), poly)
                continue
            if iv.is_point:
                continue
        out.append((iv, poly))
    return out

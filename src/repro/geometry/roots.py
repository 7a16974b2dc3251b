"""Certified real-root isolation for polynomials.

The sweep engine schedules an intersection event for a pair of
neighboring curves at the earliest future root of their difference
polynomial (Lemma 7).  Two properties matter:

1. **No missed order swaps.**  Every sign change of the difference must
   be found, otherwise the maintained precedence relation silently
   diverges from reality.
2. **No spurious swaps.**  A tangency (even-multiplicity root) makes the
   curves touch without exchanging order; swapping there would corrupt
   the order.  Candidate roots are therefore *certified* by evaluating
   the polynomial's sign strictly left and right of the root before the
   engine treats them as swap events.

Degrees 1 and 2 use closed forms (the common case: squared Euclidean
distance between linear trajectories is quadratic).  Higher degrees
fall back to numpy's companion-matrix eigenvalues, polished by Newton
iteration; numpy is imported there, on the first such root, so a
process that never meets one never loads it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.geometry.intervals import Interval
from repro.geometry.poly import Polynomial
from repro.geometry.tolerance import DEFAULT_ATOL

#: Imaginary parts below this (relative to root magnitude) are treated
#: as numerical noise and the root as real.
_IMAG_TOL = 1e-7

#: Roots closer together than this are merged into one.
_MERGE_TOL = 1e-9


def _newton_polish(poly: Polynomial, x: float, iterations: int = 3) -> float:
    """Refine a root estimate with a few Newton steps."""
    deriv = poly.derivative()
    for _ in range(iterations):
        d = deriv(x)
        if d == 0.0 or not math.isfinite(d):
            break
        step = poly(x) / d
        if not math.isfinite(step):
            break
        x_next = x - step
        if not math.isfinite(x_next):
            break
        x = x_next
    return x


def _quadratic_roots(c0: float, c1: float, c2: float) -> List[float]:
    """Numerically stable roots of ``c2 x^2 + c1 x + c0``."""
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-c1 / (2.0 * c2)]
    sq = math.sqrt(disc)
    # Avoid catastrophic cancellation: compute the larger-magnitude root
    # first, derive the other from the product of roots.
    q = -0.5 * (c1 + math.copysign(sq, c1))
    roots = [q / c2]
    if q != 0.0:
        roots.append(c0 / q)
    else:
        roots.append(0.0)
    return sorted(roots)


def _dedupe(roots: Sequence[float], tol: float = _MERGE_TOL) -> List[float]:
    out: List[float] = []
    for r in sorted(roots):
        if out and abs(r - out[-1]) <= tol * max(1.0, abs(r)):
            continue
        out.append(r)
    return out


def real_roots(poly: Polynomial, polish: bool = True) -> List[float]:
    """All distinct real roots of ``poly``, in increasing order.

    Raises ``ValueError`` for the zero polynomial, whose root set is the
    whole line; callers that can encounter identically-zero differences
    (identical curves) must special-case that before asking for roots.
    """
    coeffs = poly.coeffs
    if poly.is_zero:
        raise ValueError("the zero polynomial has infinitely many roots")
    degree = poly.degree
    if degree == 0:
        return []
    if degree == 1:
        return [-coeffs[0] / coeffs[1]]
    if degree == 2:
        return _quadratic_roots(coeffs[0], coeffs[1], coeffs[2])
    # Companion matrix for degree >= 3.
    import numpy as np

    complex_roots = np.roots(list(reversed(coeffs)))
    scale = max(1.0, float(np.max(np.abs(complex_roots))) if len(complex_roots) else 1.0)
    candidates = [
        float(r.real)
        for r in complex_roots
        if abs(r.imag) <= _IMAG_TOL * scale
    ]
    if polish:
        candidates = [_newton_polish(poly, x) for x in candidates]
    return _dedupe(candidates)


def roots_in_interval(poly: Polynomial, interval: Interval, atol: float = DEFAULT_ATOL) -> List[float]:
    """Real roots of ``poly`` lying in ``interval`` (widened by ``atol``)."""
    return [r for r in real_roots(poly) if interval.contains(r, atol=atol)]


def _probe_delta(poly: Polynomial, root: float, neighbors: Sequence[float]) -> float:
    """A step small enough that ``root +- delta`` crosses no other root."""
    gap = math.inf
    for other in neighbors:
        if other != root:
            gap = min(gap, abs(other - root))
    scale = max(1.0, abs(root))
    delta = 1e-6 * scale
    if math.isfinite(gap):
        delta = min(delta, gap / 4.0)
    return max(delta, 1e-12 * scale)


def sign_change_at(poly: Polynomial, root: float, neighbors: Optional[Sequence[float]] = None) -> bool:
    """Certify whether ``poly`` changes sign across ``root``.

    ``neighbors`` is the full sorted root list (used to choose probe
    points that cannot straddle an adjacent root).  Returns False for
    tangencies (even multiplicity), True for genuine crossings.
    """
    if neighbors is None:
        neighbors = real_roots(poly)
    delta = _probe_delta(poly, root, neighbors)
    left = poly(root - delta)
    right = poly(root + delta)
    return (left < 0.0 < right) or (right < 0.0 < left)


def first_root_after(
    poly: Polynomial,
    t0: float,
    horizon: float = math.inf,
    min_gap: float = DEFAULT_ATOL,
) -> Optional[float]:
    """Earliest root of ``poly`` strictly later than ``t0 + min_gap``.

    Returns None when no root lies in ``(t0 + min_gap, horizon]``.  The
    ``min_gap`` guard keeps the sweep from rescheduling the event it has
    just processed when the root is recomputed from the same pair.
    """
    if poly.is_zero:
        return None
    for r in real_roots(poly):
        if r > t0 + min_gap and r <= horizon:
            return r
    return None


def first_crossing_after(
    poly: Polynomial,
    t0: float,
    horizon: float = math.inf,
    min_gap: float = DEFAULT_ATOL,
) -> Optional[float]:
    """Earliest *sign-changing* root of ``poly`` after ``t0``.

    Tangential roots (where the polynomial touches zero without changing
    sign) are skipped: the curve order does not change there, so the
    sweep must not schedule a swap.
    """
    if poly.is_zero:
        return None
    roots = real_roots(poly)
    for r in roots:
        if r > t0 + min_gap and r <= horizon and sign_change_at(poly, r, roots):
            return r
    return None


def sign_on_interval(poly: Polynomial, interval: Interval) -> int:
    """Sign of ``poly`` on an interval known to contain no crossing.

    Evaluates at the midpoint (for bounded intervals) or at a point one
    unit inside the finite end.  Returns -1, 0, or +1.
    """
    if interval.is_bounded:
        probe = (interval.lo + interval.hi) / 2.0
    elif math.isinf(interval.lo) and math.isinf(interval.hi):
        probe = 0.0
    elif math.isinf(interval.hi):
        probe = interval.lo + 1.0
    else:
        probe = interval.hi - 1.0
    value = poly(probe)
    if value > 0.0:
        return 1
    if value < 0.0:
        return -1
    return 0


def solution_intervals(
    poly: Polynomial,
    domain: Interval,
    predicate: str,
    atol: float = DEFAULT_ATOL,
) -> List[Interval]:
    """Closed intervals of ``domain`` where ``poly(t) predicate 0`` holds.

    ``predicate`` is one of ``<, <=, =, >=, >``.  This is the univariate
    decision procedure behind the Section 3 quantifier-elimination
    baseline: after grounding object variables and substituting
    trajectory pieces, every atom reduces to such a constraint on ``t``.
    The result closes half-open solution sets, consistent with the
    model's closed-interval convention (strict inequalities hold on open
    sets whose closure we report; single-point violations are measure
    zero and immaterial to the answer semantics).
    """
    if predicate not in ("<", "<=", "=", ">=", ">"):
        raise ValueError(f"unknown predicate: {predicate!r}")
    if poly.is_zero:
        if predicate in ("<=", "=", ">="):
            return [domain]
        return []

    roots = roots_in_interval(poly, domain, atol=atol)
    if predicate == "=":
        return [Interval.point(r) for r in roots]

    # Build the breakpoint partition of the domain.
    points = sorted({domain.clamp(r) for r in roots})
    cut_points: List[float] = []
    if not math.isinf(domain.lo):
        cut_points.append(domain.lo)
    cut_points.extend(p for p in points if p not in cut_points)
    if not math.isinf(domain.hi) and (not cut_points or cut_points[-1] != domain.hi):
        cut_points.append(domain.hi)

    cells: List[Interval] = []
    if math.isinf(domain.lo):
        first = cut_points[0] if cut_points else (0.0 if math.isinf(domain.hi) else domain.hi)
        cells.append(Interval(-math.inf, first))
    for a, b in zip(cut_points, cut_points[1:]):
        cells.append(Interval(a, b))
    if math.isinf(domain.hi):
        last = cut_points[-1] if cut_points else 0.0
        cells.append(Interval(last, math.inf))
    if not cells:
        cells = [domain]

    want_positive = predicate in (">", ">=")
    allow_zero = predicate in ("<=", ">=")
    picked: List[Interval] = []
    for cell in cells:
        sign = sign_on_interval(poly, cell)
        if (want_positive and sign > 0) or (not want_positive and sign < 0):
            picked.append(cell)
        elif sign == 0 and allow_zero:
            picked.append(cell)
    if allow_zero:
        picked.extend(Interval.point(r) for r in roots)
    # Merge adjacent picked cells.
    merged: List[Interval] = []
    for iv in sorted(picked, key=lambda i: (i.lo, i.hi)):
        if merged and iv.lo <= merged[-1].hi + atol:
            if iv.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return merged

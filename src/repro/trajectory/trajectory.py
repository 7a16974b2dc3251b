"""Continuous piecewise-linear trajectories (Definition 1).

A :class:`Trajectory` is a finite list of contiguous
:class:`~repro.trajectory.linearpiece.LinearPiece` objects forming a
*continuous* function from a closed/unbounded time interval to ``R^n``.
The update operations of Definition 3 are implemented as methods that
return new trajectories (trajectories are immutable values; mutation
lives in :class:`repro.mod.database.MovingObjectDatabase`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.geometry.intervals import INF, Interval
from repro.geometry.piecewise import PiecewiseFunction
from repro.geometry.poly import _TRIM_EPS, Polynomial
from repro.geometry.tolerance import DEFAULT_ATOL, approx_eq
from repro.geometry.vectors import Vector
from repro.trajectory.linearpiece import LinearPiece

#: Positions of consecutive pieces may differ by at most this at their
#: shared boundary; larger jumps violate Definition 1's continuity.
_CONTINUITY_ATOL = 1e-6


class Trajectory:
    """A continuous piecewise-linear function from time to ``R^n``."""

    __slots__ = ("_pieces", "_domain", "_fingerprint")

    def __init__(self, pieces: Iterable[LinearPiece]) -> None:
        items = list(pieces)
        if not items:
            raise ValueError("a trajectory needs at least one piece")
        dim = items[0].dimension
        for piece in items:
            if piece.dimension != dim:
                raise ValueError("all pieces must share one dimension")
        for a, b in zip(items, items[1:]):
            _check_joint(a, b)
        self._set(tuple(items))

    def _set(self, pieces: Tuple[LinearPiece, ...]) -> None:
        self._pieces = pieces
        first, last = pieces[0].interval, pieces[-1].interval
        self._domain = first if first is last else Interval(first.lo, last.hi)
        self._fingerprint: Optional[Tuple] = None

    @classmethod
    def _trusted(cls, pieces: Tuple[LinearPiece, ...]) -> "Trajectory":
        """``Trajectory(pieces)`` for pieces whose every joint is already
        proved: a non-empty contiguous run of a validated trajectory's
        pieces (the tail a live engine orders), or — the update
        operations — such a run with its last piece's interval cut
        short (same law, no new joint) plus at most one new piece whose
        joint the caller checked with :func:`_check_joint`."""
        self = object.__new__(cls)
        self._set(pieces)
        return self

    # -- inspection -----------------------------------------------------
    @property
    def pieces(self) -> Tuple[LinearPiece, ...]:
        """The linear pieces in time order."""
        return self._pieces

    @property
    def dimension(self) -> int:
        """Spatial dimension ``n``."""
        return self._pieces[0].dimension

    @property
    def domain(self) -> Interval:
        """Time interval on which the trajectory is defined."""
        return self._domain

    @property
    def turns(self) -> List[float]:
        """Times where the velocity actually changes (Definition 1's
        turns — piece boundaries with equal velocities do not count)."""
        out: List[float] = []
        for a, b in zip(self._pieces, self._pieces[1:]):
            if a.velocity != b.velocity:
                out.append(a.interval.hi)
        return out

    @property
    def last_turn(self) -> Optional[float]:
        """The latest turn, or None for a single-velocity trajectory."""
        turns = self.turns
        return turns[-1] if turns else None

    @property
    def is_stationary(self) -> bool:
        """True when the object never moves."""
        return all(p.is_stationary for p in self._pieces)

    def defined_at(self, t: float) -> bool:
        """Whether the trajectory is defined at time ``t``."""
        return self._domain.contains(t, atol=DEFAULT_ATOL)

    def piece_at(self, t: float) -> LinearPiece:
        """The authoritative piece at time ``t`` (earlier piece on ties)."""
        if not self.defined_at(t):
            raise ValueError(f"time {t} outside trajectory domain {self.domain}")
        lo, hi = 0, len(self._pieces) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._pieces[mid].interval.hi < t:
                lo = mid + 1
            else:
                hi = mid
        return self._pieces[lo]

    def position(self, t: float) -> Vector:
        """Position at time ``t``."""
        return self.piece_at(t).position_unchecked(t)

    def velocity(self, t: float) -> Vector:
        """Velocity at time ``t`` (left-piece velocity at a turn).

        This realizes the paper's ``vel`` function: the derivative of
        each coordinate over time, with the turn instants (a measure-
        zero set where the derivative is discontinuous) resolved to the
        earlier piece.
        """
        return self.piece_at(t).velocity

    def speed(self, t: float) -> float:
        """Scalar speed at time ``t``."""
        return self.velocity(t).norm()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self._pieces == other._pieces

    def fingerprint(self) -> Tuple:
        """A hashable value identity for caching.

        Two trajectories with equal fingerprints are equal as functions
        (same pieces on the same intervals), so any derived curve —
        g-distance image, coordinate function — may be shared between
        them.
        """
        if self._fingerprint is None:
            self._fingerprint = tuple(
                (
                    p.interval.lo,
                    p.interval.hi,
                    p.velocity.components,
                    p.offset.components,
                )
                for p in self._pieces
            )
        return self._fingerprint

    def __repr__(self) -> str:
        body = " v ".join(repr(p) for p in self._pieces)
        return f"Trajectory({body})"

    # -- derived functions ------------------------------------------------
    def coordinate_function(self, axis: int) -> PiecewiseFunction:
        """Coordinate ``axis`` as a piecewise linear function of time."""
        return PiecewiseFunction(
            [(p.interval, p.coordinate_polynomial(axis)) for p in self._pieces]
        )

    def squared_distance_to(self, other: "Trajectory") -> PiecewiseFunction:
        """Squared Euclidean distance to another trajectory over time.

        On every common refinement cell both trajectories are linear, so
        the squared distance is a quadratic polynomial — the canonical
        "polynomial g-distance" of Example 8.  Domains must overlap; the
        result lives on the intersection.

        This is a scalar kernel: one walk over both piece lists finds
        the cells (:func:`_gap_cells`), three dot products on the
        component tuples (:func:`_gap_coefficients`) give each cell's
        coefficients, and the result is assembled through the trusted
        constructors — no :class:`Vector`, no cut set, no probe and
        piece lookup per cell,
        and a cell that *is* a piece's interval (every cell, against a
        fixed query point) reuses that :class:`Interval`.  For
        trajectories whose pieces meet exactly (all that the update
        operations, the builders and the database produce) on cells
        wider than an ulp, the pieces equal those of the object
        composition it replaced — ``tests/_oracle.
        reference_squared_distance`` — coefficient bits included, and
        ``tests/trajectory/test_curve_kernel.py`` holds the two equal.
        Where a hand-built trajectory's pieces meet only within the
        constructor's tolerance, that composition cut a sliver cell at
        the joint and this walk does not: the same function.
        """
        ps, qs = self._pieces, other._pieces
        if len(qs[0].velocity._components) != len(ps[0].velocity._components):
            raise ValueError("trajectories must share a dimension")
        mine, theirs = self._domain, other._domain
        lo = theirs.lo if theirs.lo > mine.lo else mine.lo
        hi = theirs.hi if theirs.hi < mine.hi else mine.hi
        if lo > hi:
            raise ValueError(f"domains {mine} and {theirs} do not overlap")
        if lo == hi:
            delta = self.position(lo) - other.position(lo)
            return PiecewiseFunction.constant(
                delta.norm_squared(), Interval(lo, hi)
            )
        if lo == mine.lo and hi == mine.hi:
            domain = mine
        elif lo == theirs.lo and hi == theirs.hi:
            domain = theirs
        else:
            domain = Interval(lo, hi)
        if len(ps) == 1 and len(qs) == 1:
            # A live object from its last turn on, against a fixed point.
            cell = Polynomial._trusted(_gap_coefficients(ps[0], qs[0]))
            return PiecewiseFunction._trusted(((domain, cell),), domain)
        return PiecewiseFunction._trusted(_gap_cells(ps, qs, lo, hi, False), domain)

    def distance_at(self, other: "Trajectory", t: float) -> float:
        """Euclidean distance between the objects at one instant."""
        return self.position(t).distance_to(other.position(t))

    # -- update operations (functional) ----------------------------------------
    def _kept_until(self, tau: float) -> Tuple[LinearPiece, ...]:
        """The pieces of the restriction to ``t <= tau``: the untouched
        prefix (the same piece objects, found by binary search) and the
        piece ``tau`` falls in, its interval cut at ``tau``."""
        pieces = self._pieces
        lo, hi = 0, len(pieces)
        while lo < hi:  # first piece that reaches past tau
            mid = (lo + hi) // 2
            if pieces[mid].interval.hi <= tau:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(pieces):
            return pieces
        piece = pieces[lo]
        start = piece.interval.lo
        if start <= tau:
            cut = LinearPiece(piece.velocity, piece.offset, Interval(start, tau))
            return (*pieces[:lo], cut)
        if lo == 0:
            # ``tau`` is before the domain, within ``defined_at``'s
            # tolerance: no piece meets it, and ``restricted`` says so.
            return (piece.restricted(Interval.point(tau)),)
        return pieces[:lo]  # hand-built pieces with a gap around tau

    def truncated_at(self, tau: float) -> "Trajectory":
        """The trajectory restricted to ``t <= tau`` (Definition 3's
        ``terminate``).

        ``O(log p)`` in the number of pieces: the pieces before the cut
        are reused as they are and no joint is created, so nothing is
        re-proved (``tests/_oracle.reference_truncated_at`` is the walk
        through the validating constructor this replaced;
        ``tests/trajectory/test_update_ops.py`` holds the two equal).
        """
        if not self.defined_at(tau):
            raise ValueError(f"cannot truncate at {tau}: outside {self.domain}")
        return Trajectory._trusted(self._kept_until(tau))

    def with_direction_change(self, tau: float, velocity: Vector) -> "Trajectory":
        """Apply ``chdir(o, tau, A)``: keep the past, replace the future.

        Per Definition 3, the result coincides with the old trajectory
        up to ``tau`` and follows ``x = A (t - tau) + B`` afterwards,
        where ``B`` is the position at ``tau``.  The one joint this
        creates is checked like any other (``B - A tau + A tau`` can
        round away from ``B`` by more than the continuity tolerance);
        the joints of the past were proved when it was built.
        """
        if not self.defined_at(tau):
            raise ValueError(f"trajectory undefined at chdir time {tau}")
        if velocity.dimension != self.dimension:
            raise ValueError("velocity dimension mismatch")
        position = self.position(tau).components
        past = self._kept_until(tau)
        # ``LinearPiece.anchored(velocity, position, tau, ...)`` on the
        # component tuples: the same float operations, and ``Vector``
        # refuses a NaN here as it did there.
        t = float(tau)
        offset = Vector(
            [p - v * t for p, v in zip(position, velocity.components)]
        )
        future = LinearPiece(velocity, offset, Interval.at_least(tau))
        _check_joint(past[-1], future)
        return Trajectory._trusted((*past, future))

    def restricted(self, interval: Interval) -> "Trajectory":
        """Restriction to a sub-interval of the domain."""
        cap = self.domain.intersect(interval)
        if cap is None:
            raise ValueError(f"{interval} does not meet domain {self.domain}")
        out: List[LinearPiece] = []
        for piece in self._pieces:
            sub = piece.interval.intersect(cap)
            if sub is not None and (sub.length > 0 or cap.is_point):
                out.append(piece.restricted(sub))
        if not out:
            out = [self.piece_at(cap.lo).restricted(Interval.point(cap.lo))]
        return Trajectory(out)


def _check_joint(a: LinearPiece, b: LinearPiece) -> None:
    """Definition 1 at one joint: ``b`` starts where and when ``a``
    ends."""
    if not approx_eq(a.interval.hi, b.interval.lo):
        raise ValueError(
            f"pieces must be contiguous: {a.interval} then {b.interval}"
        )
    boundary = a.interval.hi
    t = float(boundary)
    for va, oa, vb, ob in zip(
        a.velocity.components,
        a.offset.components,
        b.velocity.components,
        b.offset.components,
    ):
        if not abs((va * t + oa) - (vb * t + ob)) <= _CONTINUITY_ATOL:
            break  # apart, or not a number: let the vectors say which
    else:
        return
    pos_a = a.position_unchecked(boundary)
    pos_b = b.position_unchecked(boundary)
    if not pos_a.approx_equals(pos_b, atol=_CONTINUITY_ATOL):
        raise ValueError(
            f"discontinuity at t={boundary}: {pos_a!r} vs {pos_b!r}"
        )


def _gap_coefficients(a: LinearPiece, b: LinearPiece) -> Tuple[float, float, float]:
    """``(c0, c1, c2)`` of ``|dv t + dp|^2 = (dv.dv) t^2 + 2 (dv.dp) t +
    dp.dp`` for two linear laws of one dimension: a cell of the curve
    kernel, and of :meth:`~repro.gdist.euclidean.
    SquaredEuclideanDistance.closed_form`.

    The float operations of ``dv = a.velocity - b.velocity``,
    ``dp = a.offset - b.offset`` and ``Polynomial([dp.norm_squared(),
    2.0 * dv.dot(dp), dv.norm_squared()])`` in the same order, on the
    component tuples.  ``Vector`` sums with ``sum()``, which starts from
    int ``0`` (so a ``-0.0`` product does not survive it) and, from
    Python 3.12 on, compensates: two terms come out the same either
    way and are written out, three or more go through ``sum()`` itself.
    """
    av, ao = a.velocity._components, a.offset._components
    bv, bo = b.velocity._components, b.offset._components
    if len(av) == 2:
        vx, vy = av[0] - bv[0], av[1] - bv[1]
        px, py = ao[0] - bo[0], ao[1] - bo[1]
        c0 = px * px + py * py
        c1 = 2.0 * (0 + vx * px + vy * py)
        c2 = vx * vx + vy * vy
    else:
        dv = [x - y for x, y in zip(av, bv)]
        dp = [x - y for x, y in zip(ao, bo)]
        c0 = sum([x * x for x in dp])
        c1 = 2.0 * sum([x * y for x, y in zip(dv, dp)])
        c2 = sum([x * x for x in dv])
    if c0 != c0 or c2 != c2:
        # A sum of squares is NaN exactly when a component is (``inf -
        # inf``): what ``Vector`` refuses.
        raise ValueError("vector components must not be NaN")
    return c0, c1, c2


def _gap_cells(ps, qs, lo: float, hi: float, form: bool):
    """The cells of ``|p - q|^2`` over ``[lo, hi]``, which both piece
    lists cover (``lo < hi``): the curve kernel's ``(Interval,
    Polynomial)`` cells, the interval a piece's own where it can be, or
    with ``form`` :meth:`~repro.gdist.euclidean.SquaredEuclideanDistance.
    closed_form`'s ``(a, b, (c0, c1, c2))`` — ``None`` at a cell whose
    coefficients are not all finite or whose leading one trims.  A cell
    runs from ``a`` to the nearest piece end past it, so a piece of no
    length owns none; each is wrapped as it is found, so a curve raises
    where its first bad cell is."""
    cells = []
    j = -1
    q_hi = -INF
    a = lo
    for p in ps:
        p_iv = p.interval
        p_hi = p_iv.hi
        end = p_hi if p_hi < hi else hi
        while a < p_hi:
            while q_hi <= a:
                j += 1
                q = qs[j]
                q_iv = q.interval
                q_hi = q_iv.hi
            b = q_hi if q_hi < end else end
            coeffs = _gap_coefficients(p, q)
            if form:
                c0, c1, c2 = coeffs
                if not (_TRIM_EPS < c2 < INF and -INF < c1 < INF and c0 < INF):
                    return None
                cells.append((a, b, coeffs))
            else:
                if p_iv.lo == a and p_hi == b:
                    cell = p_iv
                elif q_iv.lo == a and q_hi == b:
                    cell = q_iv
                else:
                    cell = Interval(a, b)
                cells.append((cell, Polynomial._trusted(coeffs)))
            if b == hi:
                return tuple(cells)
            a = b

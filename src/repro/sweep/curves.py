"""Curve entries swept by the engine.

Each entry pairs one piecewise-polynomial curve with its provenance:

- an *object entry* carries ``f(T(o))`` for a database object ``o``
  (composed with a polynomial time term when the query uses time terms
  other than ``t`` — the paper's "one function for each pair of a
  trajectory and a time term"), or
- a *constant entry* carries an immortal constant curve, realizing the
  paper's extension of the precedence relation to real numbers; every
  comparison against a constant in an FO(f) formula becomes an order
  comparison against such a sentinel.

Entries also carry the doubly-linked neighbor pointers the object list
maintains, giving O(1) access to the immediate neighbors Lemma 7 makes
central.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.geometry.intervals import Interval
from repro.geometry.piecewise import PiecewiseFunction
from repro.mod.updates import ObjectId

_SEQ = itertools.count()

#: Time-term index used for the plain variable ``t``.
IDENTITY_TIME_TERM = 0


class CurveEntry:
    """One curve in the sweep order."""

    __slots__ = (
        "seq",
        "oid",
        "constant",
        "time_term_index",
        "curve",
        "prev",
        "next",
        "node",
        "leaf",
    )

    def __init__(
        self,
        curve: PiecewiseFunction,
        oid: Optional[ObjectId] = None,
        constant: Optional[float] = None,
        time_term_index: int = IDENTITY_TIME_TERM,
    ) -> None:
        if (oid is None) == (constant is None):
            raise ValueError("an entry is either an object or a constant")
        self.seq = next(_SEQ)
        self.oid = oid
        self.constant = constant
        self.time_term_index = time_term_index
        self.curve = curve
        # Neighbor links, owned by the object list.
        self.prev: Optional[CurveEntry] = None
        self.next: Optional[CurveEntry] = None
        # Back-pointer into the treap, owned by the object list.
        self.node = None
        # Leaf slot in a capped engine's kinetic tournament, owned by it.
        self.leaf: Optional[int] = None

    @staticmethod
    def for_object(
        oid: ObjectId,
        curve: PiecewiseFunction,
        time_term_index: int = IDENTITY_TIME_TERM,
    ) -> "CurveEntry":
        """An entry carrying an object's g-distance curve."""
        return CurveEntry(curve, oid=oid, time_term_index=time_term_index)

    @staticmethod
    def for_constant(value: float) -> "CurveEntry":
        """An immortal constant sentinel entry."""
        return CurveEntry(
            PiecewiseFunction.constant(value, Interval.all_time()),
            constant=value,
        )

    @property
    def is_constant(self) -> bool:
        """True for constant sentinel entries."""
        return self.constant is not None

    @property
    def is_object(self) -> bool:
        """True for object entries."""
        return self.oid is not None

    def value(self, t: float) -> float:
        """Curve value at time ``t``."""
        return self.curve(t)

    def defined_at(self, t: float) -> bool:
        """Whether the curve is defined at ``t``."""
        return self.curve.domain.contains(t, atol=1e-9)

    @property
    def label(self) -> str:
        """Human-readable identity for traces and error messages."""
        if self.is_constant:
            return f"const({self.constant:g})"
        if self.time_term_index != IDENTITY_TIME_TERM:
            return f"{self.oid}@tt{self.time_term_index}"
        return str(self.oid)

    def __repr__(self) -> str:
        return f"CurveEntry({self.label})"

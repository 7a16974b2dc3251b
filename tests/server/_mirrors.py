"""Per-session mirror evaluations for server differential tests.

A :class:`Mirror` is the *unshared* twin of one server session: a bare
full-order :class:`~repro.sweep.engine.SweepEngine` read by one
``ContinuousKNN`` / ``ContinuousWithin`` / ``MultiKNN`` view over its
own copy of the database, started at exactly the server session's
``start``.  It shares nothing with the server's engine pool or its live
host.  Server answers must equal mirror answers at every probe and at
close; since the mirror pays one full sweep per session, agreement
proves the shared fan-out never perturbs answers.
"""

from __future__ import annotations

from repro.geometry.intervals import Interval
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.sweep.multiknn import MultiKNN
from repro.sweep.within import ContinuousWithin

__all__ = ["Mirror"]


class Mirror:
    """One standalone continuous query mirroring a server session.

    ``gdistance`` must already be a :class:`~repro.gdist.base.GDistance`
    and ``params`` the server session's ``params`` dict — thresholds are
    therefore compared as-is on both sides (no one-sided squaring).
    """

    def __init__(self, db, kind, gdistance, params, start):
        self.kind = kind
        self._db = db
        constants = [params["threshold"]] if kind == "within" else []
        self._engine = SweepEngine(
            db, gdistance, Interval.at_least(start), constants=constants
        )
        if kind == "multiknn":
            self.ks = list(params["ks"])
            self._view = MultiKNN(self._engine, self.ks)
        elif kind == "knn":
            self._view = ContinuousKNN(self._engine, params["k"])
        elif kind == "within":
            self._view = ContinuousWithin(self._engine, params["threshold"])
        else:
            raise ValueError(f"unknown kind {kind!r}")
        db.subscribe(self._engine.on_update)

    def advance_to(self, t):
        self._engine.advance_to(t)
        if self.kind == "multiknn":
            return {k: set(self._view.members(k)) for k in self.ks}
        return set(self._view.members)

    def close(self, at):
        self._db.unsubscribe(self._engine.on_update)
        self._engine.advance_to(at)
        self._engine.finalize()
        if self.kind == "multiknn":
            return self._view.answers()
        return self._view.answer()

"""One tenant's handle on a shared engine group.

A :class:`ServerSession` owns no sweep state of its own: it carries
the :class:`~repro.core.spec.QuerySpec` naming a shared per-group view
plus the time its answer window opened, and the server clips the shared view's timeline to that
window on every read.  The session's lifecycle is a small state
machine::

    queued -> active -> closed
                 |-> shed          (load shedding)
                 |-> quarantined   (group failure beyond the heal budget)

Reads in any state but ``active`` raise the matching typed error from
:mod:`repro.server.errors`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.spec import QuerySpec
from repro.geometry.intervals import Interval
from repro.query.answers import Answer, Members
from repro.server.errors import (
    SessionClosedError,
    SessionQuarantinedError,
    SessionQueuedError,
    SessionShedError,
)

__all__ = ["ServerSession", "QUEUED", "ACTIVE", "CLOSED", "SHED", "QUARANTINED"]

QUEUED = "queued"
ACTIVE = "active"
CLOSED = "closed"
SHED = "shed"
QUARANTINED = "quarantined"


class ServerSession:
    """A registered continuous query, served from shared sweep state.

    Obtained from :meth:`~repro.server.QueryServer.register_knn` /
    ``register_within`` / ``register_multiknn`` — never constructed
    directly.  ``members`` / :meth:`advance_to` mirror
    :class:`~repro.core.api.ContinuousQuerySession` (a one-tenant pool
    of the same :class:`~repro.server.group.EngineGroup`); multi-k
    sessions return per-k dicts where single-k sessions return one
    set/answer.
    """

    def __init__(
        self,
        server,
        session_id: int,
        query: Optional[QuerySpec],
        priority: int = 0,
        shards: int = 1,
        kind: Optional[str] = None,
    ) -> None:
        self._server = server
        self.session_id = session_id
        # None only for a terminal stub restored from a snapshot, which
        # journals a finished session's kind and state and nothing else.
        self.query = query
        self.kind = query.kind if kind is None else kind
        self.priority = priority
        # A journaled label the durable formats keep (``open`` records,
        # snapshots, the wire ``open``); it selects no engine.
        self.shards = shards
        self.state = QUEUED
        self.start: Optional[float] = None
        self.group = None
        self._answer: Optional[Answer] = None

    @property
    def unswept(self) -> Optional[Interval]:
        """``[start, group.epoch_start]``: the part of the window no
        live engine covers — the session opened before its group's
        engine was born at its source's ``tau`` (restored at a
        snapshot's clock, or rebuilt by a heal) — answered as a past
        query at close (``None`` when the engine covers it all).  The
        MOD keeps every trajectory's history, so that span is never
        re-swept to recover."""
        if self.group is None or self.group.epoch_start <= self.start:
            return None
        return Interval(self.start, self.group.epoch_start)

    # -- identity ---------------------------------------------------------
    @property
    def view_key(self):
        """The shared-view key: sessions with equal keys (and equal
        groups) read the very same timelines."""
        return self.query.view_key

    def spec(self) -> dict:
        """Enough to re-register an equivalent session (WAL rebuilds)."""
        return {
            "kind": self.kind,
            "query": self.query.gdistance,
            "priority": self.priority,
            "shards": self.shards,
            **self.query.params,
        }

    # -- state gates ------------------------------------------------------
    def _check_readable(self) -> None:
        if self.state == ACTIVE:
            return
        if self.state == CLOSED:
            raise SessionClosedError(
                f"session {self.session_id} is closed"
            )
        if self.state == SHED:
            raise SessionShedError(
                f"session {self.session_id} was load-shed "
                f"(priority {self.priority})"
            )
        if self.state == QUARANTINED:
            raise SessionQuarantinedError(
                f"session {self.session_id} was quarantined after its "
                f"engine group failed beyond the heal budget"
            )
        raise SessionQueuedError(
            f"session {self.session_id} is still queued for admission"
        )

    # -- reads ------------------------------------------------------------
    @property
    def members(self) -> Members:
        """The current answer set (per-k dict for multiknn sessions)."""
        self._check_readable()
        return self._server._members(self)

    @property
    def current_time(self) -> float:
        """The owning group's sweep position."""
        self._check_readable()
        return self.group.current_time

    def advance_to(self, t: float) -> Members:
        """Move the group's clock forward and return the answer at
        ``t`` (a MOD clock tick; co-tenants of the group observe the
        same advancement)."""
        self._check_readable()
        return self._server._advance(self, t)

    def close(self, at: Optional[float] = None) -> Optional[Answer]:
        """Detach and return the snapshot answer over exactly
        ``[start, at]`` (default: the group's current time).

        ``at`` beyond the group clock advances the sweep to it; ``at``
        *behind* the group clock (a co-tenant advanced the shared
        sweep further) clips the shared timelines down to the requested
        window — the answer is never silently widened.  ``at`` before
        the session's own start raises :class:`ValueError` (the window
        would be empty).

        Closing a still-queued session cancels it and returns ``None``
        (it never had an answer window).  Closing twice raises
        :class:`~repro.server.SessionClosedError`; shed or quarantined
        sessions cannot produce a trustworthy answer and raise their
        typed error instead.
        """
        if self.state == QUEUED:
            self._server._cancel_queued(self)
            return None
        self._check_readable()
        return self._server._close(self, at)

    @property
    def answer(self) -> Answer:
        """The final answer (after :meth:`close`)."""
        if self.state != CLOSED or self._answer is None:
            raise RuntimeError(
                f"session {self.session_id} has no final answer yet"
            )
        return self._answer

    def __repr__(self) -> str:
        return (
            f"ServerSession(#{self.session_id}, {self.kind}, "
            f"{self.state}, priority={self.priority})"
        )

"""The multi-tenant query server: many continuous queries, one sweep
per engine group per update.

A standalone :class:`~repro.core.api.ContinuousQuerySession` is a
one-tenant engine pool: it pays Theorem 5's ``O(m log N)`` maintenance
*per session* for every update.
:class:`QueryServer` subscribes to the MOD exactly once and hands each
update, on the applying thread and under the MOD's lock, to one
:class:`~repro.server.group.EngineGroup` per distinct (g-distance
fingerprint, sentinel constants) class — every group sweeps that one
MOD, so an update is applied once and per-update cost scales with the
number of *distinct engine groups*, not the number of registered
sessions.  Sessions with identical query parameters go further and
share the very same view timelines; their per-session answers are
clipped out at read/close time.

Degradation is layered on top:

- **admission control** — an active-session budget with ``reject`` or
  FIFO-``queue`` backpressure;
- **load shedding** — when the mean primitive-op rate per update over a
  moving window exceeds a configured ceiling, the lowest-priority
  active session is shed (typed error on its next read);
- **fault isolation** — an engine-group failure is healed by the
  pool's one heal rule (Theorem 5 re-initialize from the MOD state at
  ``tau``; a tenant's span before it is a past query at close); groups
  that fail beyond ``quarantine_after`` are quarantined without
  touching co-tenant groups.
"""

from __future__ import annotations

import logging
from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional, Tuple

from repro.cache.fingerprint import (
    gdistance_fingerprint,
    is_identity_fingerprint,
)
from repro.core.spec import QuerySpec
from repro.geometry.intervals import Interval
from repro.gdist.base import GDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import Update
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation
from repro.obs.profile import NULL_STAGE, _stage
from repro.server.config import ServerConfig
from repro.server.errors import (
    AdmissionError,
    ServerClosedError,
)
from repro.server.group import ENGINE_FAULTS, EngineGroup
from repro.server.session import (
    ACTIVE,
    CLOSED,
    QUARANTINED,
    QUEUED,
    SHED,
    ServerSession,
)

__all__ = ["QueryServer", "ServerStats"]

log = logging.getLogger(__name__)

# Mutating responses kept for request-id replay, counted across all
# clients: a client resends only after its timeout plus backoff, so the
# bound must outlast every mutating request the server takes meanwhile.
# A durable server's snapshot carries the ``ok`` ones: a standby keeps
# as many as the primary.
REPLY_RETENTION = 1024


@dataclass
class ServerStats:
    """Plain counters for one server (always on; metrics mirror them)."""

    registered: int = 0
    queued: int = 0
    activated: int = 0
    rejected: int = 0
    closed: int = 0
    shed: int = 0
    cancelled: int = 0
    updates: int = 0
    fanout: int = 0  # (group, update) applications
    rebuilds: int = 0
    quarantines: int = 0


class QueryServer:
    """Serve many concurrent continuous queries over one MOD.

    Parameters
    ----------
    db:
        The live moving-object database; the server subscribes once and
        fans updates out to its engine groups.
    config:
        A :class:`~repro.server.ServerConfig` (default: unbounded
        admission, no shedding).
    observe:
        Optional instrumentation bundle shared by every engine the
        server hosts; adds ``server_*`` metrics and — when the bundle
        carries a profile — ``server.*`` stages.
    cache:
        Optional :class:`~repro.cache.QueryCache`.  Its curve store is
        shared across all groups (one curve build per object per
        g-distance, server-wide) and closing sessions deposit their
        final answers for later one-shot reuse.

    The server owns the serving state a frontend reads: its session
    table (:meth:`session`) and the request-id reply table
    (:meth:`reply` / :meth:`remember_reply`).
    """

    # The replica feed a frontend carries; a journaling subclass sets it.
    feed = None

    def __init__(
        self,
        db: MovingObjectDatabase,
        config: Optional[ServerConfig] = None,
        observe=None,
        cache=None,
    ) -> None:
        self._db = db
        self._config = config if config is not None else ServerConfig()
        self._observe = as_instrumentation(observe)
        self._profile = (
            None if self._observe is None else self._observe.profile
        )
        self._cache = cache
        if cache is not None:
            cache.bind(db)
        self._curve_store = None if cache is None else cache.curves
        self._groups: Dict[Tuple, EngineGroup] = {}
        self._sessions: Dict[int, ServerSession] = {}
        self._replies: "OrderedDict[str, dict]" = OrderedDict()
        self._pending: deque = deque()
        self._pinned: Dict[Tuple, GDistance] = {}
        self._next_sid = 1
        self._next_gid = count(1)
        self._ops_marker = 0
        self._window: deque = deque(maxlen=self._config.op_rate_window)
        self._shutdown = False
        self.stats = ServerStats()
        self._bind_instruments()
        db.subscribe(self._on_update)

    # -- instruments ------------------------------------------------------
    def _bind_instruments(self) -> None:
        m = (self._observe or NULL_INSTRUMENTATION).metrics
        sessions = m.counter(
            "server_sessions_total",
            "Session lifecycle events, by kind.",
            labels=("event",),
        )
        self._c_session = lambda event: sessions.labels(event=event)
        heals = m.counter(
            "server_heal_total",
            "Engine-group heal attempts, by triggering error type and "
            "outcome (rebuilt / quarantined).",
            labels=("error", "outcome"),
        )
        self._c_heal = lambda error, outcome: heals.labels(
            error=error, outcome=outcome
        )
        self._h_fanout = m.histogram(
            "server_update_fanout",
            "Engine groups each incoming update fans out to.",
        )
        self._h_update_ops = m.histogram(
            "server_update_primitive_ops",
            "Primitive sweep ops per applied update, summed over all "
            "engine groups (the shedding measurement).",
        )
        m.gauge(
            "server_active_sessions", "Sessions currently active."
        ).set_function(
            lambda: sum(
                1 for s in self._sessions.values() if s.state == ACTIVE
            )
        )
        m.gauge(
            "server_groups", "Distinct engine groups currently hosted."
        ).set_function(lambda: len(self._groups))
        m.gauge(
            "server_pending_sessions", "Sessions waiting in the admission queue."
        ).set_function(lambda: len(self._pending))

    # -- registration -----------------------------------------------------
    def register_knn(
        self,
        query,
        k: int = 1,
        priority: int = 0,
        shards: Optional[int] = None,
    ) -> ServerSession:
        """Register a continuous k-NN session starting now.

        ``shards`` is a journaled label and nothing more (the durable
        formats keep the field; object sharding is gone): every session
        of one query class shares one engine group."""
        return self._register(QuerySpec.knn(query, k), priority, shards)

    def register_within(
        self,
        query,
        distance: float,
        priority: int = 0,
        shards: Optional[int] = None,
    ) -> ServerSession:
        """Register a continuous within-range session starting now.

        As in :func:`~repro.core.api.evaluate_within`, a trajectory or
        point query squares ``distance`` internally; a custom
        g-distance is compared against it as-is.
        """
        return self._register(
            QuerySpec.within(query, distance), priority, shards
        )

    def register_multiknn(
        self,
        query,
        ks,
        priority: int = 0,
        shards: Optional[int] = None,
    ) -> ServerSession:
        """Register a multi-k k-NN session starting now (per-k answers
        from one shared sweep)."""
        return self._register(QuerySpec.multiknn(query, ks), priority, shards)

    def _register(
        self, spec: QuerySpec, priority: int, shards: Optional[int]
    ) -> ServerSession:
        if self._shutdown:
            raise ServerClosedError("server is shut down")
        with _stage(self._profile, "server.register"):
            session = self._new_session(
                None,
                spec,
                priority,
                1 if shards is None else int(shards),
            )
            budget = self._config.max_sessions
            if budget is None or self._active_count() < budget:
                self._admit(session, ACTIVE)
            elif self._config.admission_policy == "reject":
                self._reject(f"session budget ({budget}) exhausted")
            elif len(self._pending) >= self._config.max_queued:
                self._reject(
                    f"admission queue full ({self._config.max_queued})"
                )
            else:
                self._admit(session, QUEUED)
            return session

    def _reject(self, reason: str) -> None:
        self.stats.rejected += 1
        self._c_session("reject").inc()
        raise AdmissionError(reason)

    def _take_sid(self, forced: Optional[int] = None) -> int:
        """Allot the next session id, or honour a forced one (recovery
        and replication replay register sessions under their original
        ids so client handles survive a failover)."""
        if forced is None:
            sid = self._next_sid
            self._next_sid += 1
            return sid
        sid = int(forced)
        if sid >= self._next_sid:
            self._next_sid = sid + 1
        return sid

    def _new_session(
        self, sid: Optional[int], spec: QuerySpec, priority: int, shards: int
    ) -> ServerSession:
        """The one place a session is created (not yet admitted)."""
        session = ServerSession(
            self, self._take_sid(sid), spec, priority, shards
        )
        self.stats.registered += 1
        self._c_session("register").inc()
        return session

    def _admit(
        self, session: ServerSession, state: str, start: Optional[float] = None
    ) -> None:
        """Enter an accepted session: into the FIFO when ``queued``,
        otherwise straight into its engine group."""
        self._sessions[session.session_id] = session
        if state == QUEUED:
            self._pending.append(session)
            self.stats.queued += 1
            self._c_session("queue").inc()
        else:
            self._activate(session, start=start)

    def _register_replayed(
        self,
        sid: int,
        kind: str,
        gdistance: GDistance,
        params: dict,
        constants: Tuple[float, ...],
        priority: int,
        shards: int,
        state: str,
        start: Optional[float],
    ) -> ServerSession:
        """Re-create one journaled session under its original id.

        Admission was decided (and journaled) on the original run, so
        no budget checks re-run here: a journaled ``active`` session is
        activated with its original ``start`` (engines are never
        back-dated: what precedes the group's birth stays an unswept
        span the close answers as a past query) and a journaled
        ``queued`` session re-enters the FIFO in replay order.
        ``constants`` is what the record carries for readers that
        predate :class:`QuerySpec`; the spec derives its own.
        """
        spec = QuerySpec(gdistance, kind, **params)
        session = self._new_session(sid, spec, priority, int(shards))
        self._admit(session, state, start)
        return session

    def _active_count(self) -> int:
        return sum(1 for s in self._sessions.values() if s.state == ACTIVE)

    def _group_key(self, session: ServerSession) -> Tuple:
        spec = session.query
        fp = gdistance_fingerprint(spec.gdistance)
        if is_identity_fingerprint(fp):
            # Identity fingerprints key on id(); pin the object so the
            # key cannot be recycled while the server lives.
            self._pinned[fp] = spec.gdistance
        return (fp, spec.constants)

    def _activate(
        self, session: ServerSession, start: Optional[float] = None
    ) -> None:
        key = self._group_key(session)
        # Whatever the acquire costs — a new group's open, or an
        # existing group re-barring for a wider k — is set-up: the
        # op-rate controller measures maintenance, so the marker moves
        # past it and the next flush is billed for its updates only.
        before = self._total_ops()
        group = self._groups.get(key)
        if group is None:
            group = EngineGroup(
                next(self._next_gid),
                self._db,
                session.query.gdistance,
                constants=session.query.constants,
                observe=self._observe,
                curve_store=self._curve_store,
            )
            group.key = key
            group.heal = self._heal
            self._groups[key] = group
        group.acquire(session.query)
        self._ops_marker += self._total_ops() - before
        session.group = group
        session.start = group.current_time if start is None else float(start)
        session.state = ACTIVE
        self.stats.activated += 1
        self._c_session("activate").inc()

    def _activate_pending(self) -> None:
        budget = self._config.max_sessions
        while self._pending and (
            budget is None or self._active_count() < budget
        ):
            session = self._pending.popleft()
            if session.state != QUEUED:
                continue
            self._activate(session)

    def _cancel_queued(self, session: ServerSession) -> None:
        try:
            self._pending.remove(session)
        except ValueError:
            pass
        session.state = CLOSED
        self.stats.cancelled += 1
        self._c_session("cancel").inc()

    # -- the single fan-out path ------------------------------------------
    def _on_update(self, update: Update) -> None:
        """Sweep one update of the MOD in every engine group, in group
        order, on the applying thread (the MOD holds its lock across
        its listeners, so nothing reads a group mid-update)."""
        if self._shutdown:
            # Never swallow a write: the database believes the update
            # was delivered, so dropping it silently would desynchronize
            # every consumer that trusts the subscription.  Shutdown
            # paths must unsubscribe before (or as) they set the flag.
            raise ServerClosedError(
                f"update at t={update.time} reached a shut-down server; "
                f"no engine group will reflect it"
            )
        groups = list(self._groups.values())
        self.stats.updates += 1
        self.stats.fanout += len(groups)
        self._h_fanout.observe(len(groups))
        with _stage(self._profile, "server.fanout"):
            for group in groups:
                group.apply(update)
        self._account_update()

    def _total_ops(self) -> int:
        return sum(g.primitive_ops() for g in self._groups.values())

    def _account_update(self) -> None:
        """The op-rate controller's one measurement: the ops every group
        spent on this update (an open's or a re-bar for a wider tenant
        moved the marker past its own cost)."""
        ops = self._total_ops()
        delta = ops - self._ops_marker
        self._ops_marker = ops
        if delta < 0:
            delta = 0  # a rebuild reset some group's counters
        self._h_update_ops.observe(delta)
        ceiling = self._config.op_rate_ceiling
        if ceiling is None:
            return
        self._window.append(delta)
        if len(self._window) < self._config.op_rate_window:
            return
        if sum(self._window) / len(self._window) > ceiling:
            self._shed_lowest()
            self._window.clear()
            self._ops_marker = self._total_ops()

    def _shed_lowest(self) -> None:
        actives = [
            s for s in self._sessions.values() if s.state == ACTIVE
        ]
        if not actives:
            return
        # Lowest priority first; among equals, the youngest session
        # (most recently registered) is the least-sunk-cost victim.
        self.shed(
            min(actives, key=lambda s: (s.priority, -s.session_id)),
            by="op-rate controller",
        )

    def shed(self, session: ServerSession, by: str = "caller") -> None:
        """Forcibly load-shed one active session.

        The op-rate controller sheds the lowest-priority victim through
        here; the networked frontend routes its slow-consumer policy
        through the same path, so a shed session always carries the
        same typed :class:`~repro.server.SessionShedError` state no
        matter which controller pulled the trigger — ``by`` names it in
        the log line.
        """
        if session.state != ACTIVE:
            return
        self._detach(session, SHED)
        self.stats.shed += 1
        self._c_session("shed").inc()
        log.warning(
            "session %d (%s, priority %d) shed by %s",
            session.session_id,
            session.kind,
            session.priority,
            by,
        )

    # -- session operations (called through ServerSession) ----------------
    def _detach(self, session: ServerSession, state: str) -> None:
        group = session.group
        session.group = None
        session.state = state
        if group is not None:
            group.release(session.query)
            if group.tenant_count == 0:
                self._retire(group)

    def _retire(self, group: EngineGroup) -> None:
        self._groups.pop(group.key, None)
        group.shutdown()
        # The window stays: a tenant that opens and closes faster than
        # ``op_rate_window`` updates must not switch shedding off.
        self._ops_marker = self._total_ops()

    def _read(self, session: ServerSession, op):
        """Run ``op`` on the session's group, which heals its engine
        faults by :meth:`_heal` and retries once; a fault the heal
        answered with a quarantine reaches the caller as the session's
        typed error."""
        try:
            return op(session.group)
        except ENGINE_FAULTS:
            session._check_readable()
            raise

    def _members(self, session: ServerSession):
        session._check_readable()
        return self._read(session, lambda group: group.members(session.query))

    def _advance(self, session: ServerSession, t: float):
        session._check_readable()
        with _stage(self._profile, "server.advance"):
            self._read(session, lambda group: group.advance_to(t))
        return self._members(session)

    def _close(self, session: ServerSession, at: Optional[float]):
        session._check_readable()
        with _stage(self._profile, "server.close") as st:
            group = session.group
            end = group.current_time if at is None else float(at)
            if end < session.start:
                raise ValueError(
                    f"close(at={end}) precedes session "
                    f"{session.session_id}'s start ({session.start}); "
                    f"the answer window [start, at] would be empty"
                )
            # The answer covers exactly [start, at]: a close at a time
            # the group's shared clock has already passed (a co-tenant
            # advanced it) clips the shared timelines down to the
            # requested window rather than widening the answer.  What no
            # live engine covers — the session predates a restore or a
            # heal — is a one-shot query like any other (sessions of one
            # fingerprint share it through the cache); under EXPLAIN its
            # stages belong to the closing profile.
            observe = (
                self._observe if self._profile is None else self._profile.observe
            )
            with _stage(self._profile, "server.live") as live_stage:
                answer = self._read(
                    session,
                    lambda g: g.partial(
                        session.query,
                        session.start,
                        end,
                        cache=self._cache,
                        observe=observe,
                    ),
                )
                if live_stage is not NULL_STAGE:
                    live_stage.annotate(
                        replans=group.replans, candidates=group.candidates
                    )
            if st is not NULL_STAGE:
                st.annotate(
                    session=session.session_id,
                    segments=1 if session.unswept is None else 2,
                )
        self._detach(session, CLOSED)
        session._answer = answer
        self.stats.closed += 1
        self._c_session("close").inc()
        if self._cache is not None:
            self._cache.deposit(session.query, Interval(session.start, end), answer)
        self._activate_pending()
        return answer

    # -- heal path (the server's rule for its groups) ----------------------
    def _heal(self, group: EngineGroup, cause: BaseException) -> None:
        error = type(cause).__name__
        message = str(cause)
        with _stage(self._profile, "server.heal") as st:
            if st is not NULL_STAGE:
                st.annotate(group=group.gid, error=error)
            group.failures += 1
            tenants = [
                s
                for s in self._sessions.values()
                if s.group is group and s.state == ACTIVE
            ]
            if group.failures > self._config.quarantine_after:
                self._quarantine(group, tenants, error, message)
                return
            try:
                group.rebuild()
            except Exception:
                self._quarantine(group, tenants, error, message)
                return
            self.stats.rebuilds += 1
            self._c_session("rebuild").inc()
            self._c_heal(error, "rebuilt").inc()
            self._trace_heal("rebuilt", group, error, message)
            self._ops_marker = self._total_ops()
            self._window.clear()

    def _quarantine(
        self, group: EngineGroup, tenants, error: str, message: str
    ) -> None:
        for session in tenants:
            session.group = None
            session.state = QUARANTINED
        self._retire(group)
        self._window.clear()  # a heal's outcome, like a rebuild
        self.stats.quarantines += 1
        self._c_session("quarantine").inc()
        self._c_heal(error, "quarantined").inc()
        self._trace_heal("quarantined", group, error, message)

    def _trace_heal(
        self, outcome: str, group: EngineGroup, error: str, message: str
    ) -> None:
        """Record one heal/quarantine outcome — with the triggering
        exception's type and message — in the log and the trace
        stream."""
        log.warning(
            "engine group %d %s after failure %d (%s: %s)",
            group.gid,
            outcome,
            group.failures,
            error,
            message,
        )
        if self._observe is not None:
            self._observe.tracer.event(
                "server.heal",
                outcome=outcome,
                group=group.gid,
                failures=group.failures,
                error=error,
                message=message,
            )

    # -- inspection and lifecycle ------------------------------------------
    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def db(self) -> MovingObjectDatabase:
        return self._db

    @property
    def observe(self):
        """The server's instrumentation bundle (None when disabled)."""
        return self._observe

    def sessions(self) -> List[ServerSession]:
        """Every session ever registered, in registration order."""
        return [self._sessions[sid] for sid in sorted(self._sessions)]

    def active_sessions(self) -> List[ServerSession]:
        return [s for s in self.sessions() if s.state == ACTIVE]

    def session(self, sid: int) -> ServerSession:
        """Look up one session by id (KeyError when unknown)."""
        try:
            return self._sessions[sid]
        except KeyError:
            raise KeyError(f"unknown session {sid}") from None

    def reply(self, rid: str) -> Optional[dict]:
        """The response remembered for request id ``rid``, if any."""
        return self._replies.get(rid)

    def remember_reply(self, rid: str, response: dict) -> None:
        """Keep one mutating response for request-id replay (the last
        :data:`REPLY_RETENTION`, oldest evicted first)."""
        self._replies[rid] = response
        while len(self._replies) > REPLY_RETENTION:
            self._replies.popitem(last=False)

    @property
    def group_count(self) -> int:
        """Distinct engine groups currently hosted — the fan-out width
        every update pays (vs. one sweep per session without sharing)."""
        return len(self._groups)

    def primitive_ops(self) -> int:
        """Total primitive sweep ops across all hosted groups."""
        return self._total_ops()

    def explain_close(
        self,
        session: ServerSession,
        at: Optional[float] = None,
        profiler=None,
        query_id: Optional[str] = None,
    ):
        """Close one session under a profiler and return the
        :class:`~repro.obs.explain.ExplainReport` — ``server.*`` stages
        (fanout/advance/close, plus heal if one occurred) appear in the
        EXPLAIN tree alongside any engine stages."""
        from repro.obs.explain import ExplainReport
        from repro.obs.profile import QueryProfiler

        if profiler is None:
            profiler = QueryProfiler()
        meta = {"session": session.session_id, **session.query.params}
        with profiler.profile(
            f"server.{session.kind}", query_id=query_id, **meta
        ) as prof:
            answer = self.close_with_profile(session, at, prof)
            prof.record_answer(answer)
        return ExplainReport(prof, answer)

    def close_with_profile(
        self, session: ServerSession, at: Optional[float], profile
    ):
        """Close one session attributing its ``server.*`` stages to an
        externally-owned :class:`~repro.obs.profile.QueryProfile` (the
        EXPLAIN path above and the networked frontend's ``explain``
        verb both stitch server stages into a larger stage tree)."""
        previous = self._profile
        self._profile = profile
        try:
            return self._close(session, at)
        finally:
            self._profile = previous

    def shutdown(self) -> None:
        """Detach from the database.  Sessions keep their terminal
        state (closed answers stay readable); active sessions simply
        stop receiving updates."""
        if self._shutdown:
            return
        # Detach before declaring down: once the flag is set, a stray
        # delivery raises ServerClosedError instead of dropping writes.
        self._db.unsubscribe(self._on_update)
        self._shutdown = True

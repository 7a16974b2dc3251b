"""A :class:`~repro.server.QueryServer` that journals itself.

:class:`DurableQueryServer` wraps every state-changing path of the
multi-tenant server with a :class:`~repro.replication.journal.ServerWal`
record — applied updates, session opens (with the admission decision),
advances, closes (with the *resolved* end time), cancels, sheds, and
the net frontend's idempotent replies — and periodically snapshots the
whole serving state.  :func:`recover_server` then rebuilds an
equivalent server from (checkpoint, WAL tail): restore the MOD and the
live sessions (each engine group is initialized *at the snapshot's
clock* — Theorem 5 — and no history is re-swept), then re-apply the
tail records in journal order.  Recovery cost is snapshot + one
initialization per group + the *tail*, never the full history: each
snapshot cuts the journal records it covers
(:meth:`~repro.replication.journal.ServerWal.write_snapshot`), so the
log recovery reads holds the tail alone, and what a restored session's
window holds before the snapshot's clock is a past query over the
MOD's kept trajectories (Theorem 4), answered once, by
:meth:`~repro.server.QueryServer._close`, if that session closes.

The same :meth:`~DurableQueryServer.apply_record` entry point feeds a
warm standby: the primary's journal records stream over the wire and
are re-applied (and re-journaled locally) in order, so the standby is
at all times a recovered-equivalent mirror, promotable in O(1).
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence

from repro.io import (
    database_from_dict,
    database_to_dict,
    update_from_dict,
    update_to_dict,
)
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import Update
from repro.server.config import ServerConfig
from repro.server.server import QueryServer
from repro.server.session import ACTIVE, QUEUED, ServerSession
from repro.replication.feed import ReplicaFeed
from repro.replication.journal import (
    SNAPSHOT_FORMAT,
    ServerWal,
    gdistance_from_record,
    gdistance_to_record,
    load_server_state,
)

__all__ = ["DurableQueryServer", "recover_server"]


def _session_record(
    session: ServerSession, gd: Optional[dict] = None
) -> dict:
    """What the journal's ``open`` record and a snapshot's session entry
    both say about a live session (key order is part of the format);
    ``gd`` is the g-distance's record when the caller already holds it."""
    spec = session.query
    return {
        "sid": session.session_id,
        "kind": spec.kind,
        "gd": gdistance_to_record(spec.gdistance) if gd is None else gd,
        "params": spec.params,
        "constants": list(spec.constants),
        "priority": session.priority,
        "shards": session.shards,
    }


class DurableQueryServer(QueryServer):
    """Query server with a server-level WAL and snapshot checkpoints.

    Parameters mirror :class:`~repro.server.QueryServer`, plus:

    directory:
        Durability directory for the server journal, or ``None`` to
        journal in memory only (still streamable to a warm standby).
    sync:
        Journal append policy (``none``/``flush``/``fsync``).  Default
        ``flush``; every checkpoint fsyncs regardless.
    checkpoint_interval:
        Snapshot after this many journal records accumulate past the
        previous snapshot (``None`` disables periodic checkpoints).
    journal:
        Pre-built :class:`ServerWal` (recovery hands over the journal
        it already sequenced); overrides ``directory``/``sync``.

    :attr:`feed` is the :class:`~repro.replication.feed.ReplicaFeed`
    over the journal: the primary's half of the replication link, which
    a frontend such as :class:`~repro.net.QueryNetServer` carries.

    Only sessions whose g-distance serializes (point / trajectory
    squared-Euclidean queries) are admitted — an opaque callable raises
    :class:`~repro.replication.NotDurableError` *before* any state
    changes, so the journal never holds a session it cannot rebuild.
    """

    def __init__(
        self,
        db: MovingObjectDatabase,
        config: Optional[ServerConfig] = None,
        observe=None,
        cache=None,
        directory: Optional[str] = None,
        sync: str = "flush",
        checkpoint_interval: Optional[int] = 64,
        journal: Optional[ServerWal] = None,
    ) -> None:
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be positive (or None)")
        self._wal = (
            journal
            if journal is not None
            else ServerWal(directory, sync=sync, observe=observe)
        )
        self._checkpoint_interval = checkpoint_interval
        self._recovering = False
        self._replaying = False
        self.recovered_tail = 0  # tail records replayed to build this server
        super().__init__(db, config, observe, cache)
        self.feed = ReplicaFeed(self._wal, db.lock, self.snapshot_state, observe)
        if (
            journal is None
            and directory is not None
            and db.object_count > 0
            and not os.path.exists(self._wal.checkpoint_path)
        ):
            # What the MOD held before this server subscribed (objects
            # placed by ``install()``, say) is in no journal record:
            # until a snapshot holds it, recovery would rebuild an empty
            # MOD.  The baseline snapshot consumes no seq.
            self.checkpoint()

    # -- journal plumbing ---------------------------------------------------
    @property
    def journal(self) -> ServerWal:
        return self._wal

    @property
    def directory(self) -> Optional[str]:
        return self._wal.directory

    def _journal(self, op: str, **fields) -> None:
        if self._recovering or self._replaying:
            return
        self._wal.append(op, **fields)
        self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        interval = self._checkpoint_interval
        if interval is not None and self._wal.tail_length >= interval:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Write one snapshot covering everything journaled so far."""
        self._wal.write_snapshot(self.snapshot_state())

    def snapshot_state(self) -> dict:
        """The full serving state as one JSON-compatible snapshot.

        Engine-group internals are deliberately *not* captured: the MOD
        keeps every object's full trajectory history, so groups rebuild
        from the db alone and a tenant's earlier span is a past query
        over it — snapshots stay proportional to data + sessions, and a
        recovered session's answer equals the original by the
        Theorem 4/5 equivalence.
        """
        sessions: List[dict] = []
        terminal: List[dict] = []
        for session in self.sessions():
            if session.state in (ACTIVE, QUEUED):
                active = session.state == ACTIVE
                sessions.append(
                    {
                        **_session_record(session),
                        "state": session.state,
                        "start": session.start,
                        "clock": session.group.current_time if active else None,
                    }
                )
            else:
                terminal.append(
                    {
                        "sid": session.session_id,
                        "kind": session.kind,
                        "state": session.state,
                    }
                )
        return {
            "format": SNAPSHOT_FORMAT,
            "seq": self._wal.seq,
            "db": database_to_dict(self._db),
            "next_sid": self._next_sid,
            "config": asdict(self._config),
            "sessions": sessions,
            "pending": [
                s.session_id for s in self._pending if s.state == QUEUED
            ],
            "terminal": terminal,
            "replies": {
                rid: response
                for rid, response in self._replies.items()
                if response.get("ok")
            },
        }

    # -- journaled overrides ------------------------------------------------
    def _on_update(self, update: Update) -> None:
        if not (self._recovering or self._replaying or self._shutdown):
            # The MOD already applied this update (subscribers fire
            # post-apply), so a checkpoint triggered by this append is
            # still consistent: the snapshot's db covers the record.
            self._journal("update", update=update_to_dict(update))
        super()._on_update(update)

    def _register(self, spec, priority, shards) -> ServerSession:
        if self._recovering or self._replaying:
            return super()._register(spec, priority, shards)
        # Serialize first: a non-durable g-distance must fail before
        # the server mutates anything.
        gd = gdistance_to_record(spec.gdistance)
        session = super()._register(spec, priority, shards)
        self._journal(
            "open",
            **_session_record(session, gd),
            state=session.state,
            start=session.start,
        )
        return session

    def _advance(self, session: ServerSession, t: float):
        members = super()._advance(session, t)
        self._journal("advance", sid=session.session_id, to=float(t))
        return members

    def _close(self, session: ServerSession, at: Optional[float]):
        # Resolve the default end *here* so the journal carries an
        # explicit close time — replay and standbys must not depend on
        # their own group clocks to agree on the answer window.
        resolved = at
        if (
            at is None
            and session.state == ACTIVE
            and session.group is not None
        ):
            resolved = session.group.current_time
        answer = super()._close(session, resolved)
        self._journal(
            "close", sid=session.session_id, at=float(resolved)
        )
        return answer

    def _cancel_queued(self, session: ServerSession) -> None:
        was_queued = session.state == QUEUED
        super()._cancel_queued(session)
        if was_queued:
            self._journal("cancel", sid=session.session_id)

    def shed(self, session: ServerSession, by: str = "caller") -> None:
        if session.state != ACTIVE:
            return
        super().shed(session, by)
        self._journal("shed", sid=session.session_id)

    def _shed_lowest(self) -> None:
        # Replayed streams re-deliver the primary's shed decisions as
        # explicit records; letting the local op-rate controller fire
        # too could pick a different victim (its measurement window
        # does not survive snapshots) and diverge from the journal.
        if self._recovering or self._replaying:
            return
        super()._shed_lowest()

    def remember_reply(self, rid: str, response: dict) -> None:
        """Also journal an ``ok`` reply next to the ops it answered, so
        a promoted standby replays it to the retried request id instead
        of re-executing the verb."""
        super().remember_reply(rid, response)
        if response.get("ok"):
            self._journal("reply", rid=rid, response=response)

    # -- record replay (recovery + standby streaming) -----------------------
    def apply_record(self, record: dict) -> None:
        """Re-apply one journal record.

        Outside recovery the record is first re-journaled verbatim
        (re-stamped with this server's own sequence) — a standby's
        journal therefore mirrors the primary's, making the standby
        itself recoverable and re-streamable.  Dispatch then runs with
        per-op journaling suppressed so nothing is recorded twice.
        """
        op = record["op"]
        if not self._recovering:
            fields = {
                k: v for k, v in record.items() if k not in ("seq", "op")
            }
            self._wal.append(op, **fields)
        previous = self._replaying
        self._replaying = True
        try:
            self._dispatch_record(record)
        finally:
            self._replaying = previous
        if not self._recovering:
            # After dispatch, never before: a snapshot must cover the
            # state change of every seq it claims.
            self._maybe_checkpoint()

    def _dispatch_record(self, record: dict) -> None:
        op = record["op"]
        if op == "update":
            self._db.apply(update_from_dict(record["update"]))
        elif op == "open":
            self._replay_session(record, record["state"], record.get("start"))
        elif op == "advance":
            self._advance(
                self._sessions[int(record["sid"])], float(record["to"])
            )
        elif op == "close":
            self._close(
                self._sessions[int(record["sid"])], float(record["at"])
            )
        elif op == "cancel":
            self._cancel_queued(self._sessions[int(record["sid"])])
        elif op == "shed":
            self.shed(self._sessions[int(record["sid"])], by="journal replay")
        elif op == "reply":
            self.remember_reply(record["rid"], record["response"])
        else:
            raise ValueError(f"unknown journal op {op!r}")

    def _replay_session(
        self, data: dict, state: str, start: Optional[float]
    ) -> ServerSession:
        """Re-create the session one ``open`` record or snapshot entry
        describes."""
        return self._register_replayed(
            int(data["sid"]),
            data["kind"],
            gdistance_from_record(data["gd"]),
            data["params"],
            tuple(data.get("constants", ())),
            int(data.get("priority", 0)),
            int(data["shards"]),
            state,
            start,
        )

    def _restore_snapshot(self, snapshot: dict) -> None:
        """Re-create the snapshot's sessions on this (fresh) server."""
        self._next_sid = int(snapshot.get("next_sid", 1))
        live = snapshot.get("sessions", [])
        actives = [s for s in live if s["state"] == ACTIVE]
        queued = [s for s in live if s["state"] == QUEUED]
        # In activation order (a queued session can out-rank later
        # actives by sid), so groups are re-created in the order the
        # live server made them.  Every group is built at the restored
        # MOD's tau — no engine is back-dated; a session that opened
        # earlier carries the unswept span ``[start, tau]`` to its close.
        clocks: Dict[int, tuple] = {}  # gid -> (group, max stored clock)
        for data in sorted(actives, key=lambda d: (d["start"], d["sid"])):
            session = self._replay_session(data, ACTIVE, data["start"])
            clock = data.get("clock")
            if clock is not None and session.group is not None:
                group = session.group
                held = clocks.get(group.gid)
                if held is None or clock > held[1]:
                    clocks[group.gid] = (group, float(clock))
        # Group clocks restore only after *every* tenant's views have
        # attached: advancing earlier would sweep the shared engines
        # past tau before a co-tenant's view could record ``[tau, clock]``.
        # A tenant that had advanced the shared sweep beyond tau must
        # still see the same default close windows post-recovery.
        for group, clock in clocks.values():
            if clock > group.current_time:
                group.advance_to(clock)
        rank = {
            int(sid): index
            for index, sid in enumerate(snapshot.get("pending", []))
        }
        for data in sorted(
            queued, key=lambda d: rank.get(int(d["sid"]), int(d["sid"]))
        ):
            self._replay_session(data, QUEUED, None)
        for stub in snapshot.get("terminal", ()):
            session = ServerSession(
                self,
                self._take_sid(int(stub["sid"])),
                None,
                kind=stub.get("kind", "knn"),
            )
            session.state = stub["state"]
            self._sessions[session.session_id] = session
        for rid, response in snapshot.get("replies", {}).items():
            self.remember_reply(rid, response)

    @classmethod
    def restore(
        cls,
        snapshot: Optional[dict],
        tail: Sequence[dict],
        directory: Optional[str],
        config: Optional[ServerConfig] = None,
        observe=None,
        cache=None,
        sync: str = "flush",
        checkpoint_interval: Optional[int] = 64,
        checkpoint: bool = True,
    ) -> "DurableQueryServer":
        """The one restore path — crash recovery and standby bootstrap.

        Restores ``snapshot``'s MOD (none: an empty one) and every live
        session (engine groups built at the MOD's tau — Theorem 5
        initialization; a session's earlier span stays an unswept past
        query until it closes), then replays the journal ``tail`` in
        sequence order.  The server journals into ``directory`` with an
        uninterrupted sequence and — with ``checkpoint`` — persists the
        restored state at once, so the *next* crash replays only what
        happens after this restore.

        ``config`` overrides the snapshot's journaled config (the
        snapshot's wins by default, so a restored server keeps its
        admission/shedding behaviour).
        """
        if snapshot is not None:
            db = database_from_dict(snapshot["db"])
            if config is None:
                config = ServerConfig.from_dict(snapshot["config"])
        else:
            db = MovingObjectDatabase(initial_time=float("-inf"))
        covered = 0 if snapshot is None else int(snapshot.get("seq", 0))
        journal = ServerWal(
            directory,
            sync=sync,
            observe=observe,
            start_seq=tail[-1]["seq"] if tail else covered,
        )
        server = cls(
            db,
            config,
            observe=observe,
            cache=cache,
            checkpoint_interval=checkpoint_interval,
            journal=journal,
        )
        server._recovering = True
        try:
            if snapshot is not None:
                server._restore_snapshot(snapshot)
            for record in tail:
                server.apply_record(record)
        finally:
            server._recovering = False
        server.recovered_tail = len(tail)
        if checkpoint:
            server.checkpoint()
        return server

    # -- lifecycle ----------------------------------------------------------
    def shutdown(self) -> None:
        """Detach from the database and checkpoint the journal (a clean
        shutdown leaves a zero-length replay tail).  The journal handle
        stays open — already-registered sessions may still close, and
        those closes must reach the WAL."""
        already = self._shutdown
        super().shutdown()
        if not already and not (self._recovering or self._replaying):
            self.checkpoint()


def recover_server(
    directory: str,
    config: Optional[ServerConfig] = None,
    observe=None,
    cache=None,
    sync: str = "flush",
    checkpoint_interval: Optional[int] = 64,
    repair: bool = True,
    checkpoint_on_recover: bool = True,
) -> DurableQueryServer:
    """Rebuild an equivalent :class:`DurableQueryServer` from disk:
    :meth:`DurableQueryServer.restore` over ``directory``'s snapshot (if
    any) and journal tail (``repair`` truncates a torn one), journaling
    back into the same directory.

    Pass ``config`` for a fresh directory (a snapshot's own wins by
    default); ``checkpoint_on_recover=False`` skips the immediate
    checkpoint, leaving the replayed tail on disk.  The server's
    ``recovered_tail`` counts the records replayed.
    """
    snapshot, tail = load_server_state(directory, repair=repair)
    return DurableQueryServer.restore(
        snapshot,
        tail,
        directory,
        config=config,
        observe=observe,
        cache=cache,
        sync=sync,
        checkpoint_interval=checkpoint_interval,
        checkpoint=checkpoint_on_recover,
    )

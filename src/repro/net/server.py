"""The networked serving frontend: TCP over a QueryServer.

:class:`QueryNetServer` puts a wire on PR 6's multi-tenant
:class:`~repro.server.QueryServer`: one ``selectors`` loop, on a
dedicated daemon thread, accepts length-prefixed JSON connections and
speaks the :mod:`repro.net.protocol` verbs — ``hello`` / ``open`` /
``advance`` / ``members`` / ``close`` / ``explain`` / ``subscribe`` /
``unsubscribe`` / ``ping`` / ``stats``.  The loop watches a
non-blocking listener, every connection (whole frames are parsed from
its receive buffer and dispatched inline) and a wake-up socket pair —
the one way another thread reaches it.

One lock serializes the serving state: the MOD's own
:attr:`~repro.mod.database.MovingObjectDatabase.lock`, which
``db.apply`` holds across the update and every listener.  The loop
thread takes it around each dispatch and every other touch of server
state; an update is ingested *on the applying thread*, under the same
lock: the query server's engine groups sweep it, subscribed
connections' answer changes are queued and so are the replication
batches it produced — and only the frame writes cross to the loop
(one wake-up per update, none when nothing was queued).  There is no
writer task: a frame reaches its socket as soon as the loop holds no
lock, at the end of the loop turn that queued it or of the turn that
wake-up starts.  Each view family is read and encoded once per server
state; the push fan-out and every ``members`` request share that read.
``db.apply(update)`` therefore keeps its synchronous contract — when it
returns, every session (local or remote) reflects the update — and,
on a replicated server, returns only once every standby acknowledged
it: the applying thread waits in the ack barrier with the lock
released, so the loop can read the acks.  A request that appended
replication records waits in the same barrier on a worker thread; the
loop reads nothing more from its connection until the response is
queued, and keeps serving the others meanwhile.

The primary's half of the replication link — the replica table, the
``repl.subscribe`` / ``repl.ack`` bodies, batching, the ack barrier and
the retention floor — is the query server's replica feed
(``server.feed``, a :class:`~repro.replication.feed.ReplicaFeed`; none
on a plain :class:`~repro.server.QueryServer`).  This module keeps the
transport: it queues the frames the feed hands it, drops a link the
feed gives up on, and tells the feed when a link dies.

Robustness is built in rather than bolted on:

- **idempotent retries** — responses to mutating verbs are kept in the
  query server's reply table per client-generated request id, so a
  client that resends after a lost connection (or a failover) gets the
  stored response and the verb is applied at most once;
- **backpressure** — each connection's unsolicited push stream rides a
  bounded queue; a slow consumer's subscribed sessions are shed
  through the query server's admission controller (the same typed
  degradation as op-rate shedding) and a ``shed`` notice is delivered;
- **graceful drain** — :meth:`QueryNetServer.drain` stops accepting,
  closes every live session, pushes each final answer to its owning
  connection, and only then shuts the query server down — no write or
  answer is dropped silently.
"""

from __future__ import annotations

import json
import logging
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from itertools import count
from typing import Callable, Dict, NamedTuple, Optional, Set, Tuple

from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.net.config import NetConfig
from repro.net.errors import (
    FrameTooLargeError,
    NetError,
    NotPrimaryError,
    ProtocolError,
    VersionMismatchError,
    error_to_wire,
)
from repro.net.protocol import (
    HEADER,
    MAX_OPEN_SHARDS,
    PROTOCOL_VERSION,
    answer_to_wire,
    decode_payload,
    encode_frame,
    members_to_wire,
)
from repro.obs.instrument import NULL_INSTRUMENTATION
from repro.server.errors import ServerClosedError, ServerError
from repro.server.server import QueryServer
from repro.server.session import ACTIVE, CLOSED, QUEUED

__all__ = ["NetStats", "QueryNetServer"]

# One line per replication state transition an operator would page on
# (replica drop, barrier degrade, promotion); silent unless configured.
_LOG = logging.getLogger(__name__)

SERVER_SOFTWARE = "repro-net/1"

# A connection with this many bytes its socket has not taken yet takes
# no more frames from its queue, so ``max_push_queue`` keeps governing
# slow consumers.
HIGH_WATER = 64 * 1024
# Bytes asked of a readable socket at once: an oversized request body
# is discarded as it arrives, so no more than this of it is ever held.
RECV_CHUNK = 1 << 16
# How long ``drain()`` waits for the last connection to close.
DRAIN_TIMEOUT = 60.0
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE

_REQUIRED = object()


def _field(request: dict, name: str, kind=int, default=_REQUIRED):
    """``request[name]`` read as ``kind`` — ``int``, ``float``, or
    ``(float,)`` / ``(int,)`` for a non-empty list of them: the one
    reader every verb takes its fields through.  A missing field
    without a ``default``, or one ``kind`` cannot read, is a
    :class:`ProtocolError` that names it; an absent field (or a null
    one, when the default is ``None``) reads as ``default``."""
    value = request.get(name)
    if value is None and (name not in request or default is None):
        if default is _REQUIRED:
            raise ProtocolError(f"request needs {_KINDS[kind]} '{name}'")
        return default
    try:
        if isinstance(kind, tuple):
            if not isinstance(value, list) or not value:
                raise TypeError(name)
            return [kind[0](item) for item in value]
        return kind(value)
    except (TypeError, ValueError):
        raise ProtocolError(
            f"request needs {_KINDS[kind]} '{name}', got {value!r}"
        ) from None


_KINDS = {
    int: "an integer",
    float: "a number",
    (int,): "a list of integers",
    (float,): "a list of numbers",
}


class _Verb(NamedTuple):
    """One wire verb: its handler, whether its response is remembered
    for request-id replay (read-only verbs are safe to re-execute), and
    whether a warm standby refuses it until promotion (service verbs —
    ping / stats / repl.* — keep working so health checks and
    replication run)."""

    handler: Callable
    remembered: bool = False
    primary_only: bool = False


@dataclass
class NetStats:
    """Plain counters for one net frontend (metrics mirror them)."""

    connections: int = 0
    handshake_failures: int = 0
    requests: int = 0
    replays: int = 0
    errors: int = 0
    pushes: int = 0
    sheds: int = 0
    drained: int = 0
    bytes_in: int = 0
    bytes_out: int = 0


class _Connection:
    """One accepted TCP connection: its non-blocking socket, the receive
    buffer whole frames are parsed from, and the frame queue with the
    bytes the socket has not taken yet (:meth:`QueryNetServer._flush`
    moves one into the other)."""

    __slots__ = (
        "cid",
        "sock",
        "inbuf",
        "skip",
        "oversized",
        "queue",
        "out",
        "events",
        "held",
        "subscriptions",
        "closing",
        "_paused",
        "resume",
        "last_frame_bytes",
        "last_decode_seconds",
    )

    def __init__(self, cid: int, sock, resume=None) -> None:
        self.cid = cid
        self.sock = sock  # None once closed
        self.inbuf = bytearray()
        # The bytes of an oversized request body still to discard, and
        # the length its header announced.
        self.skip = 0
        self.oversized = 0
        self.queue: deque = deque()
        self.out = bytearray()
        # The selector events registered for the socket (0: none).
        self.events = 0
        # A response waits in the ack barrier: no request is read.
        self.held = False
        # sid -> the members last sent (the change-detection baseline)
        self.subscriptions: Dict[int, object] = {}
        self.closing = False
        # Test/flow-control hook: a paused connection's frames stay
        # queued, letting the push queue fill deterministically;
        # unpausing hands the connection to ``resume`` (from any thread).
        self._paused = False
        self.resume = resume
        self.last_frame_bytes = 0
        self.last_decode_seconds = 0.0

    @property
    def paused(self) -> bool:
        return self._paused

    @paused.setter
    def paused(self, value: bool) -> None:
        self._paused = value
        if not value and self.resume is not None:
            self.resume(self)


class QueryNetServer:
    """Serve a :class:`~repro.server.QueryServer` over TCP.

    Build one via :func:`repro.core.api.serve_tcp` (which also
    constructs the query server), or wrap an existing server and call
    :meth:`start`.  The instance is a context manager: leaving the
    ``with`` block drains and closes.
    """

    def __init__(
        self,
        server: QueryServer,
        config: Optional[NetConfig] = None,
        standby: bool = False,
    ) -> None:
        self._server = server
        self._config = config if config is not None else NetConfig()
        self._standby = bool(standby)
        # The loop: its thread, selector, listener, wake-up pair and the
        # calls other threads posted to it; when the next heartbeat is
        # due, and each connection still owing its ``hello`` by when.
        self._thread: Optional[threading.Thread] = None
        self._thread_ident: Optional[int] = None
        self._running = False
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._wakeup: Tuple[socket.socket, ...] = ()
        self._calls: deque = deque()
        self._next_beat: Optional[float] = None
        self._hellos: Dict[_Connection, float] = {}
        self._address: Optional[Tuple[str, int]] = None
        self._connections: Set[_Connection] = set()
        # Sessions and replies are the query server's; this is only who
        # receives a session's pushes and drain answer.
        self._owners: Dict[int, _Connection] = {}
        self._next_cid = count(1)
        self._closed = False
        self._killed = False
        self._draining = False
        # The replica feed whose frames this frontend carries (None: the
        # server replicates nothing), the serving lock (the MOD's) and a
        # condition on it the drain waits on for the sockets to close,
        # the connections frames were queued for that no flush has
        # taken yet, and whether a wake-up to flush them is pending.
        self._feed = server.feed
        self._lock = server.db.lock
        self._settled = threading.Condition(self._lock)
        self._queued: Set[_Connection] = set()
        self._flush_scheduled = False
        # The member memo: view family -> [members, wire or None,
        # rebuilds, clock] read in this server state, and the one before
        # (``_ingest`` starts a new state); a session's family key.
        self._reads: Dict[Tuple, list] = {}
        self._last_reads: Dict[Tuple, list] = {}
        self._families: Dict[int, Tuple] = {}
        self.stats = NetStats()
        self._bind_instruments()

    # -- instruments ------------------------------------------------------
    def _bind_instruments(self) -> None:
        m = (self._server.observe or NULL_INSTRUMENTATION).metrics
        requests = m.counter(
            "net_requests_total", "Requests dispatched, by verb.",
            labels=("verb",),
        )
        self._c_request = lambda verb: requests.labels(verb=verb)
        events = m.counter(
            "net_events_total",
            "Frontend lifecycle events (connect / replay / push / "
            "shed / drain / error).",
            labels=("event",),
        )
        self._c_event = lambda event: events.labels(event=event)
        nbytes = m.counter(
            "net_bytes_total", "Frame bytes moved, by direction.",
            labels=("direction",),
        )
        self._c_bytes = lambda direction: nbytes.labels(direction=direction)
        m.gauge(
            "net_connections_open", "Currently accepted connections."
        ).set_function(lambda: len(self._connections))
        m.gauge(
            "net_subscriptions", "Live push subscriptions."
        ).set_function(
            lambda: sum(len(c.subscriptions) for c in self._connections)
        )

    # -- lifecycle --------------------------------------------------------
    def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "QueryNetServer":
        """Bind, start the loop thread, and take over update ingestion."""
        if self._thread is not None:
            raise NetError("net server already started")
        self._listener = socket.create_server((host, port), backlog=100)
        self._address = self._listener.getsockname()[:2]
        self._wakeup = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        for sock, handler in zip(
            (self._listener, self._wakeup[0]), (self._accept, self._on_wake)
        ):
            sock.setblocking(False)
            self._selector.register(sock, _READ, handler)
        self._wakeup[1].setblocking(False)
        interval = self._config.heartbeat_interval
        if interval is not None:
            self._next_beat = time.monotonic() + interval
        self._running = True
        self._thread = threading.Thread(
            target=self._serve, name="repro-net", daemon=True
        )
        self._thread.start()
        self._thread_ident = self._thread.ident
        db = self._server.db
        with self._lock:
            # Updates now reach remote consumers too: the applying
            # thread fans out, queues pushes and replication batches
            # before db.apply returns.
            db.unsubscribe(self._server._on_update)
            db.subscribe(self._ingest)
        return self

    # -- the loop (the ``repro-net`` thread) -------------------------------
    def _serve(self) -> None:
        """One ``select`` per turn over the listener, the wake-up pair
        and every connection; the turn ends by writing what it queued,
        when the loop holds no lock.  The select times out at the next
        heartbeat or handshake deadline."""
        select = self._selector.select
        timeout = self._timers()
        while self._running:
            for key, events in select(timeout):
                conn = key.data
                if conn.__class__ is not _Connection:
                    conn()  # the listener's accept or the wake-up
                    continue
                if events & _READ and not self._on_readable(conn):
                    conn.closing = True  # end of stream: the rest goes out
                self._queued.add(conn)  # flush it, and re-watch it
            timeout = self._timers()
            if self._queued or self._flush_scheduled:
                self._write_queued()
        # Stopped (a close after its drain, or a kill): every socket
        # closes at once, what is still queued with it.
        for conn in list(self._connections):
            self._close(conn)
        self._close_listener()
        self._selector.close()
        for sock in self._wakeup:
            sock.close()

    def _wake(self) -> None:
        """Wake the loop: one byte down the wake-up pair."""
        try:
            self._wakeup[1].send(b"\0")
        except OSError:
            pass  # full (a wake-up is pending anyway) or closed (no loop)

    def _post(self, call: Callable[[], None]) -> None:
        """Have the loop run ``call`` (from any thread), then flush."""
        self._calls.append(call)
        self._wake()

    def _on_wake(self) -> None:
        try:
            while self._wakeup[0].recv(4096):
                pass
        except OSError:
            pass  # drained
        calls = self._calls
        while calls:
            calls.popleft()()

    def _timers(self) -> Optional[float]:
        """Close each connection whose handshake is overdue and push
        ``heartbeat`` events when due; return the seconds to the next
        deadline (``None``: there is none)."""
        if not self._hellos and self._next_beat is None:
            return None
        now = time.monotonic()
        for conn, deadline in list(self._hellos.items()):
            if deadline <= now:
                del self._hellos[conn]
                with self._lock:
                    self.stats.handshake_failures += 1
                conn.closing = True
                self._queued.add(conn)
        if self._next_beat is not None and now >= self._next_beat:
            self._next_beat = None
            if not (self._closed or self._draining):
                self._beat()
                self._next_beat = now + self._config.heartbeat_interval
        due = list(self._hellos.values())
        if self._next_beat is not None:
            due.append(self._next_beat)
        return max(0.0, min(due) - now) if due else None

    def _beat(self) -> None:
        """Push a ``heartbeat`` to every subscribed connection and
        replica, so they can detect a stalled or dead server by silence."""
        with self._lock:
            tau = self._server.db.last_update_time
            replicas = self._feed.replicas() if self._feed is not None else ()
            for conn in self._connections:
                if conn.subscriptions or conn in replicas:
                    self._send(conn, {"event": "heartbeat", "tau": tau}, force=True)

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return  # the peer gave up before the accept
        if self._draining:
            sock.close()
            return
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        conn = _Connection(next(self._next_cid), sock, self._resume)
        self._hellos[conn] = time.monotonic() + self._config.handshake_timeout
        with self._lock:
            self.stats.connections += 1
            self._c_event("connect").inc()
            self._connections.add(conn)
        self._watch(conn)

    def _close_listener(self) -> None:
        """Stop accepting (on the loop)."""
        listener, self._listener = self._listener, None
        if listener is not None:
            self._selector.unregister(listener)
            listener.close()
            with self._lock:
                self._settled.notify_all()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        if self._address is None:
            raise NetError("net server is not started")
        return self._address

    @property
    def server(self) -> QueryServer:
        """The wrapped multi-tenant query server."""
        return self._server

    @property
    def config(self) -> NetConfig:
        return self._config

    @property
    def is_standby(self) -> bool:
        """True while this frontend refuses session verbs (replicating
        warm standby awaiting promotion)."""
        return self._standby

    def promote(self) -> "QueryNetServer":
        """Flip a warm standby into a serving primary.

        Lifts the standby gate: every replicated session and reply is
        already in the query server's tables, so clients that fail over
        keep their session ids and retried request ids.
        Raises :class:`~repro.replication.PromotionError` when this
        frontend was never a standby.
        """
        from repro.replication.errors import PromotionError

        if not self._standby:
            raise PromotionError("this frontend is already a primary")
        with self._lock:
            self._standby = False
            self._c_event("promote").inc()
            _LOG.warning(
                "standby promoted to primary at seq %s with %d session(s)",
                None if self._feed is None else self._feed.seq,
                len(self._server.sessions()),
            )
        return self

    def __enter__(self) -> "QueryNetServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- ingestion (on the applying thread) --------------------------------
    def _ingest(self, update) -> None:
        """The MOD's listener, run by ``db.apply`` on the applying thread
        with the serving lock held: fan the update out, queue the answer
        changes it caused and its replication batches, then schedule the
        one flush of what it queued — the only step that crosses to the
        loop — and wait in the ack barrier."""
        with self._lock:
            if self._closed:
                raise ServerClosedError(
                    f"update at t={update.time} reached a closed net server"
                )
            # A new server state: every member read so far is the last
            # state's (the push compares against it), none is current.
            self._last_reads, self._reads = self._reads, {}
            try:
                self._server._on_update(update)
                self._push_answer_changes()
                self._flush_repl()
            finally:
                self._schedule_flush()
            if threading.get_ident() != self._thread_ident:
                # The loop cannot wait on itself: an update applied on
                # the loop thread streams without the barrier.
                self._repl_barrier()
                if self._killed:
                    raise ServerClosedError(
                        "net server killed before its replicas acknowledged"
                    )

    def _schedule_flush(self) -> None:
        """Have the loop write what was queued off it: one wake-up,
        pending until the loop flushes (none when nothing was queued)."""
        if self._queued and not self._flush_scheduled:
            self._flush_scheduled = True
            self._wake()

    # -- the replica feed's transport ---------------------------------------
    def _flush_repl(self) -> None:
        """Queue the batches the replica feed hands over at this flush
        boundary, one ``repl.append`` frame per replica; a replica whose
        suffix fell off retention is dropped instead (it must re-sync
        from scratch)."""
        if self._feed is None:
            return
        for conn, records in self._feed.batches():
            if records is None:
                self._drop_replica(conn, "resume window lost")
            else:
                frame = {"event": "repl.append", "records": records}
                self._send(conn, frame, force=True)

    def _repl_barrier(self) -> None:
        """Wait in the replica feed's ack barrier — ``_ingest`` on the
        applying thread, a verb that streamed on a worker thread, the
        drain on its caller's — then have the loop write what was queued
        meanwhile.  A kill ends the wait; the degrade to async the feed
        reports is logged here, with the drops and the promotion."""
        with self._lock:
            try:
                if self._feed is None:
                    return
                seq = self._feed.barrier(
                    self._config.repl_ack_timeout,
                    lambda: self._killed,
                    self._drop_replica,
                )
                if seq is not None:
                    _LOG.warning(
                        "sync replication degraded to async: seq %d "
                        "acknowledged with no replica holding it",
                        seq,
                    )
            finally:
                self._schedule_flush()

    def _drop_replica(self, conn: _Connection, reason: Optional[str] = None) -> None:
        """``conn`` stops being a replica: its link died (no ``reason``),
        or the feed gave up on it — it is told why and closed.  The feed
        opens the reconnect grace, unless this server is draining: its
        listener is closed, so no replica can come back."""
        acked = self._feed.depart(
            conn, 0.0 if self._draining else self._config.repl_ack_timeout
        )
        if reason is None or acked is None:
            return
        self._c_event("replica_drop").inc()
        _LOG.warning(
            "replica dropped (connection %d, acked seq %d): %s",
            conn.cid, acked, reason,
        )
        self._send(conn, {"event": "repl.dropped", "reason": reason}, force=True)
        conn.closing = True

    # -- connection handling (on the loop) ----------------------------------
    def _on_readable(self, conn: _Connection) -> bool:
        """Read what ``conn``'s socket holds and handle every whole
        frame it completes; False at the end of the stream."""
        try:
            data = conn.sock.recv(RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return True
        except OSError:
            return False
        if not data:
            return False
        conn.inbuf += data
        self._parse(conn)
        return True

    def _parse(self, conn: _Connection) -> None:
        """Handle the whole frames in ``conn``'s receive buffer, in
        order, until it runs dry, the connection closes, or a response
        is held in the ack barrier.  An oversized body is discarded as
        it arrives, then reported; the connection keeps working."""
        buf = conn.inbuf
        cap = self._config.max_frame
        while not (conn.closing or conn.held):
            if conn.skip:
                cut = min(conn.skip, len(buf))
                del buf[:cut]
                conn.skip -= cut
                if conn.skip:
                    return
                frame = FrameTooLargeError(
                    f"request frame of {conn.oversized} bytes exceeds the "
                    f"{cap}-byte cap"
                )
            else:
                if len(buf) < HEADER.size:
                    return
                (length,) = HEADER.unpack_from(buf)
                if length > cap:
                    del buf[: HEADER.size]
                    conn.skip = conn.oversized = length
                    continue
                end = HEADER.size + length
                if len(buf) < end:
                    return
                body = buf[HEADER.size : end]
                del buf[:end]
                self.stats.bytes_in += end
                self._c_bytes("in").inc(end)
                started = time.perf_counter()
                try:
                    frame = decode_payload(body)
                except ProtocolError as exc:
                    frame = exc
                conn.last_decode_seconds = time.perf_counter() - started
                conn.last_frame_bytes = length
            try:
                if conn in self._hellos:
                    self._greet(conn, frame)
                else:
                    self._request(conn, frame)
            except Exception:  # e.g. a response past ``max_frame``
                _LOG.exception("connection %d ends: a frame failed", conn.cid)
                conn.closing = True

    def _greet(self, conn: _Connection, request) -> None:
        """``conn``'s first frame: a ``hello`` of this protocol version,
        or the connection closes — answered first when the frame was
        readable."""
        del self._hellos[conn]
        if isinstance(request, ProtocolError):
            with self._lock:
                self.stats.handshake_failures += 1
            conn.closing = True
            return
        rid = request.get("id")
        version = request.get("version")
        if request.get("verb") != "hello":
            error = ProtocolError("first frame must be 'hello'")
        elif version != PROTOCOL_VERSION:
            error = VersionMismatchError(
                f"server speaks protocol {PROTOCOL_VERSION}, "
                f"client sent {version!r}"
            )
        else:
            error = None
        with self._lock:
            if error is None:
                result = {"version": PROTOCOL_VERSION, "server": SERVER_SOFTWARE}
                response = {"id": rid, "ok": True, "result": result}
            else:
                self.stats.handshake_failures += 1
                response = {"id": rid, "ok": False, "error": error_to_wire(error)}
            self._send(conn, response, force=True)
        conn.closing = error is not None

    def _request(self, conn: _Connection, request) -> None:
        if isinstance(request, ProtocolError):  # an oversized frame included
            with self._lock:
                self._send(
                    conn,
                    {"id": None, "ok": False, "error": error_to_wire(request)},
                    force=True,
                )
            return
        feed = self._feed
        with self._lock:
            before = feed.seq if feed is not None else 0
            response = self._dispatch(conn, request)
            if feed is None or feed.seq == before:
                self._send(conn, response, force=True)
                return
            # The verb appended replication records: stream them and
            # hold the response until the replicas acknowledge — a
            # response the client saw is a response the promoted standby
            # can replay.  The barrier waits on a worker thread, so the
            # loop keeps serving the other connections meanwhile.
            self._flush_repl()
            conn.held = True
        threading.Thread(
            target=self._release, args=(conn, response),
            name="repro-net-barrier", daemon=True,
        ).start()

    def _release(self, conn: _Connection, response: dict) -> None:
        """A held response, on a worker thread: wait in the barrier,
        queue the response, and have the loop read ``conn`` on."""
        self._repl_barrier()
        with self._lock:
            self._send(conn, response, force=True)
        self._post(lambda: self._unhold(conn))

    def _unhold(self, conn: _Connection) -> None:
        conn.held = False
        self._parse(conn)  # what arrived meanwhile
        self._queued.add(conn)

    def _close(self, conn: _Connection) -> None:
        """Close ``conn``'s socket and forget the connection.  Sessions
        deliberately survive it: a client that reconnects can resume
        (and retry) them by id."""
        if conn.events:
            self._selector.unregister(conn.sock)
            conn.events = 0
        conn.sock.close()
        conn.sock = None
        self._hellos.pop(conn, None)
        with self._lock:
            conn.closing = True
            if self._feed is not None:
                # A replica link died without a protocol-level drop (EOF,
                # reset): the barrier holds through the grace while it
                # comes back.
                self._drop_replica(conn)
            self._connections.discard(conn)
            conn.subscriptions.clear()
            self._settled.notify_all()

    def _watch(self, conn: _Connection) -> None:
        """Register the events ``conn`` waits for: reads unless it is
        closing or holds a response, writes while the socket has not
        taken all its bytes."""
        want = (0 if conn.closing or conn.held else _READ) | (
            _WRITE if conn.out else 0
        )
        if want != conn.events:
            if not want:
                self._selector.unregister(conn.sock)
            elif conn.events:
                self._selector.modify(conn.sock, want, conn)
            else:
                self._selector.register(conn.sock, want, conn)
            conn.events = want

    # -- dispatch ----------------------------------------------------------
    def _dispatch(self, conn: _Connection, request: dict) -> dict:
        rid = request.get("id")
        verb = request.get("verb")
        self.stats.requests += 1
        self._c_request(verb if isinstance(verb, str) else "?").inc()
        if rid is not None:
            replayed = self._server.reply(str(rid))
            if replayed is not None:
                # Idempotent retry: replay without re-applying.
                self.stats.replays += 1
                self._c_event("replay").inc()
                return replayed
        entry = _VERBS.get(verb) if isinstance(verb, str) else None
        try:
            if entry is None:
                raise ProtocolError(f"unknown verb {verb!r}")
            if self._standby and entry.primary_only:
                raise NotPrimaryError(
                    "this server is a warm standby; retry against the "
                    "primary (or wait for promotion)"
                )
            result = entry.handler(self, conn, request)
            response = {"id": rid, "ok": True, "result": result}
        except Exception as exc:  # typed over the wire, never fatal
            self.stats.errors += 1
            self._c_event("error").inc()
            response = {"id": rid, "ok": False, "error": error_to_wire(exc)}
        if rid is not None and entry and entry.remembered and not self._standby:
            # A standby's refusal ran nothing: the id stays free for the
            # retry its promotion will serve.
            self._server.remember_reply(str(rid), response)
        return response

    def _get_session(self, conn: _Connection, request: dict):
        session = self._server.session(_field(request, "session"))
        # The most recent connection to touch a session owns it for
        # push/drain delivery (reconnected clients take over).
        self._owners[session.session_id] = conn
        return session

    # -- verbs -------------------------------------------------------------
    def _verb_open(self, conn: _Connection, request: dict) -> dict:
        kind = request.get("kind")
        point = _field(request, "query", (float,))
        shards = request.get("shards")
        if shards is not None and (
            isinstance(shards, bool)
            or not isinstance(shards, int)
            or not 1 <= shards <= MAX_OPEN_SHARDS
        ):
            raise ProtocolError(
                f"'shards' must be an integer from 1 to {MAX_OPEN_SHARDS} "
                f"(or absent), got {shards!r}"
            )
        options = {"priority": _field(request, "priority", int, 0), "shards": shards}
        server = self._server
        if kind == "knn":
            session = server.register_knn(
                point, k=_field(request, "k", int, 1), **options
            )
        elif kind == "within":
            if "threshold" in request:
                # g-distance units: a GDistance query compares as-is.
                session = server.register_within(
                    SquaredEuclideanDistance(point),
                    _field(request, "threshold", float),
                    **options,
                )
            elif "distance" in request:
                session = server.register_within(
                    point, _field(request, "distance", float), **options
                )
            else:
                raise ProtocolError(
                    "within needs 'distance' (Euclidean) or "
                    "'threshold' (g-distance units)"
                )
        elif kind == "multiknn":
            session = server.register_multiknn(
                point, _field(request, "ks", (int,), ()), **options
            )
        else:
            raise ProtocolError(f"unknown query kind {kind!r}")
        self._owners[session.session_id] = conn
        return {
            "session": session.session_id,
            "kind": kind,
            "state": session.state,
            "start": session.start,
        }

    def _verb_advance(self, conn: _Connection, request: dict) -> dict:
        session = self._get_session(conn, request)
        members = session.advance_to(_field(request, "to", float))
        return {"members": members_to_wire(members)}

    def _verb_members(self, conn: _Connection, request: dict) -> dict:
        read = self._read_family(self._get_session(conn, request))
        return {"members": self._wire_of(read)}

    def _verb_close(self, conn: _Connection, request: dict) -> dict:
        session = self._get_session(conn, request)
        answer = session.close(at=_field(request, "at", float, None))
        self._drop_subscriptions(session.session_id)
        return {"state": session.state, "answer": answer_to_wire(answer)}

    def _verb_explain(self, conn: _Connection, request: dict) -> dict:
        from repro.obs.explain import ExplainReport
        from repro.obs.profile import QueryProfiler

        session = self._get_session(conn, request)
        at = _field(request, "at", float, None)
        meta = {"session": session.session_id, **session.query.params}
        profiler = QueryProfiler()
        with profiler.profile(
            f"net.{session.kind}",
            query_id=request.get("query_id"),
            **meta,
        ) as prof:
            # The frame was decoded before anyone knew it asked for an
            # EXPLAIN; attribute the eagerly-measured cost after the
            # fact.
            decode = prof.root.child("net.decode")
            decode.add_time(conn.last_decode_seconds)
            decode.annotate(bytes=conn.last_frame_bytes)
            with prof.stage("net.dispatch"):
                answer = self._server.close_with_profile(session, at, prof)
            with prof.stage("net.encode") as stage:
                wire = answer_to_wire(answer)
                stage.annotate(bytes=len(json.dumps(wire)))
            prof.record_answer(answer)
        report = ExplainReport(prof, answer)
        self._drop_subscriptions(session.session_id)
        return {
            "state": session.state,
            "answer": wire,
            "report": report.to_dict(),
        }

    def _verb_subscribe(self, conn: _Connection, request: dict) -> dict:
        session = self._get_session(conn, request)
        read = self._read_family(session)
        conn.subscriptions[session.session_id] = read[0]
        return {"subscribed": session.session_id, "members": self._wire_of(read)}

    def _verb_unsubscribe(self, conn: _Connection, request: dict) -> dict:
        sid = _field(request, "session")
        conn.subscriptions.pop(sid, None)
        return {"unsubscribed": sid}

    def _verb_ping(self, conn: _Connection, request: dict) -> dict:
        return {"pong": True, "tau": self._server.db.last_update_time}

    def _verb_stats(self, conn: _Connection, request: dict) -> dict:
        out = {
            "server": asdict(self._server.stats),
            "net": asdict(self.stats),
            "groups": self._server.group_count,
            "standby": self._standby,
        }
        if self._feed is not None:
            out["replication"] = self._feed.stats()
        return out

    def _verb_repl_subscribe(self, conn: _Connection, request: dict) -> dict:
        """Attach this connection to the replica feed: ``from`` names
        the last seq the replica already holds (see
        :meth:`~repro.replication.feed.ReplicaFeed.attach`)."""
        since = _field(request, "from", int, 0)
        if self._feed is None:
            raise ProtocolError(
                "this server keeps no replica feed; nothing to replicate"
            )
        self._c_event("replica_attach").inc()
        return self._feed.attach(conn, since)

    def _verb_repl_ack(self, conn: _Connection, request: dict) -> dict:
        seq = _field(request, "seq")
        if self._feed is None:
            raise ProtocolError("repl.ack from a non-replica connection")
        return self._feed.ack(conn, seq)

    # -- member reads and the push stream ----------------------------------
    def _read_family(self, session) -> list:
        """``[members, wire or None, rebuilds, clock]``: the read of
        ``session``'s view family — ``(engine group, view key)``, the
        sessions that read the very same timelines — in this server
        state.

        The session's gate runs on every read.  The group is read only
        when the memo holds no read of this state stamped with the
        group's engine — by its rebuild count (a read may heal it), so a
        retired group's engine is not kept alive — and clock (an
        ``advance`` or a ``close(at)`` moves it).  A fresh read equal to
        the family's previous one keeps that one's set and wire, so a
        subscriber holding it is current by identity.
        """
        session._check_readable()
        group = session.group
        family = self._families.get(session.session_id)
        if family is None:  # once per session: ``view_key`` builds a tuple
            family = (group.gid, session.view_key)
            self._families[session.session_id] = family
        read = self._reads.get(family)
        if read is not None and read[2] == group.rebuilds and read[3] == group.clock:
            return read
        last = read or self._last_reads.get(family)
        members = self._server._members(session)
        if last is not None and last[0] == members:
            members, wire = last[0], last[1]
        else:
            wire = None
        read = self._reads[family] = [members, wire, group.rebuilds, group.clock]
        return read

    @staticmethod
    def _wire_of(read: list):
        """A family read's wire, encoded on first use."""
        if read[1] is None:
            read[1] = members_to_wire(read[0])
        return read[1]

    def _push_answer_changes(self) -> None:
        """Tell every subscriber whose answer moved.

        Each view family is read once per update through the member
        memo (:meth:`_read_family`: one set comparison with its previous
        read) and encoded at most once, and only when some subscriber's
        answer differs from the one it was last sent.  A subscriber
        costs its state gate and an identity test — a set comparison
        only when its family moved.  The reads stay in the memo, so the
        first ``members`` request after the update is free.  (Object-id
        keys are injective, so equal member sets are equal wires.)
        """
        if not any(conn.subscriptions for conn in self._connections):
            return
        tau = self._server.db.last_update_time
        for conn in list(self._connections):
            if conn.closing:
                continue
            for sid in list(conn.subscriptions):
                session = self._server.session(sid)
                try:
                    read = self._read_family(session)
                except ServerError:
                    # Not active, or no longer: the read healed an engine
                    # fault by quarantining the group, and the session's
                    # own gate said so.
                    self._end_subscription(conn, sid, session)
                    continue
                members, held = read[0], conn.subscriptions[sid]
                if held is members or held == members:
                    continue
                conn.subscriptions[sid] = members
                delivered = self._send(
                    conn,
                    {
                        "event": "answer_change",
                        "session": sid,
                        "time": tau,
                        "members": self._wire_of(read),
                    },
                )
                if delivered:
                    self.stats.pushes += 1
                    self._c_event("push").inc()
                else:
                    break  # connection was just shed or closed

    def _end_subscription(self, conn: _Connection, sid: int, session) -> None:
        """A subscribed session stopped being readable.  One that was
        shed or quarantined is told so — one final typed ``lost``
        notice, then the stream ends; one its owner closed just ends."""
        del conn.subscriptions[sid]
        if session.state == CLOSED:
            return
        try:
            session._check_readable()
        except ServerError as exc:
            self._c_event("lost").inc()
            _LOG.warning(
                "subscription to session %d lost (connection %d): %s",
                sid, conn.cid, type(exc).__name__,
            )
            self._send(
                conn,
                {
                    "event": "lost",
                    "session": sid,
                    "error": error_to_wire(exc),
                },
                force=True,
            )

    def _send(
        self, conn: _Connection, payload: dict, force: bool = False
    ) -> bool:
        """Queue one frame; bounded for pushes, unconditional for
        responses.  Returns False when the frame was not queued."""
        if conn.closing:
            return False
        if (
            not force
            and len(conn.queue) >= self._config.max_push_queue
        ):
            self._shed_slow_consumer(conn)
            return False
        frame = encode_frame(payload, self._config.max_frame)
        conn.queue.append(frame)
        # Counted at enqueue, not at flush: once a frame is committed
        # to the wire its bytes are part of the protocol's cost, and
        # the counters stay deterministic regardless of writer timing.
        self.stats.bytes_out += len(frame)
        self._c_bytes("out").inc(len(frame))
        self._queued.add(conn)
        return True

    def _write_queued(self) -> None:
        """Hand every queued frame to its socket: run on the loop at the
        end of each turn (after its locked sections), the turn an
        update's (or an unpause's) wake-up starts included.  Replica
        links go first: the ack barrier waits on them alone."""
        self._flush_scheduled = False
        queued = self._queued
        for conn in self._feed.replicas() if self._feed is not None else ():
            if conn in queued:
                queued.discard(conn)
                self._flush(conn)
        while queued:
            self._flush(queued.pop())

    def _resume(self, conn: _Connection) -> None:
        """``conn`` was unpaused, on any thread: flush it on the loop."""
        self._queued.add(conn)
        self._schedule_flush()

    def _flush(self, conn: _Connection) -> None:
        """Write ``conn``'s queued frames to its socket, oldest first,
        on the loop thread and never under the serving lock.  A frame
        stays queued — counted against ``max_push_queue`` — only while
        more than ``HIGH_WATER`` bytes wait for the socket
        (``EVENT_WRITE`` flushes on), while the connection is paused, or
        until the flush after an off-loop enqueue; a closing connection hands over all
        that is left, pause or not, and closes once its socket took it."""
        sock = conn.sock
        if sock is None:
            return
        queue, out = conn.queue, conn.out
        try:
            while True:
                # Tested per frame: another thread may pause the
                # connection or queue more frames while this runs.
                while queue and len(out) <= HIGH_WATER and (
                    conn.closing or not conn._paused
                ):
                    out += queue.popleft()
                if not out:
                    break
                del out[: sock.send(out)]
                if out:
                    break
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:  # the peer is gone
            conn.closing = True
            queue.clear()
            out.clear()
        if conn.closing and not out and not queue:
            self._close(conn)
        else:
            self._watch(conn)

    def _shed_slow_consumer(self, conn: _Connection) -> None:
        """A full push queue means the consumer cannot keep up: shed
        its subscribed sessions through the admission controller and
        tell it why (the notice is force-queued)."""
        shed_sids = []
        for sid in list(conn.subscriptions):
            conn.subscriptions.pop(sid, None)
            session = self._server.session(sid)
            if session.state == ACTIVE:
                self._server.shed(session, by="slow-consumer policy")
                shed_sids.append(sid)
        self.stats.sheds += 1
        self._c_event("shed").inc()
        self._send(
            conn,
            {
                "event": "shed",
                "sessions": shed_sids,
                "reason": (
                    f"push queue exceeded {self._config.max_push_queue} "
                    f"frames (slow consumer)"
                ),
            },
            force=True,
        )

    def _drop_subscriptions(self, sid: int) -> None:
        for conn in self._connections:
            conn.subscriptions.pop(sid, None)

    # -- drain and close ----------------------------------------------------
    def drain(self) -> Dict[int, object]:
        """Gracefully wind the service down.

        Stops accepting, closes every live session (queued ones are
        cancelled), pushes each final answer
        to the session's owning connection as a ``drain`` event, says
        ``goodbye``, and shuts the query server down.  Returns the
        final answers by session id.  An unpromoted standby closes
        none: its sessions are the primary's.
        """
        if self._thread is None:
            raise NetError("net server is not running")
        if threading.get_ident() == self._thread_ident:
            raise NetError("cannot block on the loop thread")
        deadline = time.monotonic() + DRAIN_TIMEOUT
        with self._lock:
            if self._draining:
                return {}
            self._draining = True
            self._post(self._close_listener)
            drained: Dict[int, object] = {}
            # A standby serves nothing of its own: its sessions are the
            # primary's, and so is its record of them.
            sessions = [] if self._standby else self._server.sessions()
            # Cancel the admission queue first: closing an active session
            # below would otherwise promote a queued one mid-drain and
            # hand it a zero-width answer window.
            for session in sessions:
                if session.state == QUEUED:
                    session.close()  # cancel; it never had an answer window
            for session in sessions:
                if session.state != ACTIVE:
                    continue
                sid = session.session_id
                answer = session.close()
                drained[sid] = answer
                self.stats.drained += 1
                self._c_event("drain").inc()
                owner = self._owners.get(sid)
                if owner is not None and not owner.closing:
                    wire = answer_to_wire(answer)
                    event = {"event": "drain", "session": sid, "answer": wire}
                    self._send(owner, event, force=True)
            # Stream the drain's close records before saying goodbye, so a
            # standby mirrors the drained (terminal) state.  Attached
            # replicas must ack them; one that left cannot come back (the
            # listener is closing), so its reconnect grace is over.
            if self._feed is not None:
                self._feed.end_grace()
            self._flush_repl()
        self._repl_barrier()
        with self._lock:
            for conn in self._connections:
                self._send(conn, {"event": "goodbye", "reason": "drain"}, force=True)
                conn.closing = True  # all that is left goes, pause or not
                self._queued.add(conn)
            self._schedule_flush()
            while self._connections or self._listener is not None:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError(
                        f"drain left {len(self._connections)} connection(s) "
                        f"open after {DRAIN_TIMEOUT:g} s"
                    )
                self._settled.wait(left)
            self._server.shutdown()
        return drained

    def close(self) -> None:
        """Tear the frontend down (draining first if needed).

        Idempotent.  Afterwards the database no longer routes updates
        through the frontend, the loop thread is joined, and the
        wrapped query server is shut down.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._server.db.unsubscribe(self._ingest)
        if self._thread is not None:
            try:
                self.drain()
            except Exception:
                pass
            self._stop()
        with self._lock:
            self._server.shutdown()

    def kill(self) -> None:
        """Die abruptly — the chaos-testing crash.

        No drain, no goodbye, no final checkpoint, no session closes:
        the listener and every socket close at once and the loop stops,
        exactly as if the process had been SIGKILLed mid-flight.
        Whatever the server's durable log (and any acked replica) holds
        is all that survives — which is precisely the guarantee recovery
        and failover are tested against.  Idempotent; a killed frontend
        cannot be restarted.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._killed = True
            self._server.db.unsubscribe(self._ingest)
            # Every ack barrier gives up: no replica can ack through a
            # dead frontend.
            if self._feed is not None:
                self._feed.notify()
        if self._thread is not None:
            self._stop()

    def _stop(self) -> None:
        """Stop the loop, which closes every socket on its way out, and
        join it."""
        self._running = False
        self._wake()
        if threading.get_ident() != self._thread_ident:
            self._thread.join(timeout=10.0)

_VERBS = {
    "open": _Verb(QueryNetServer._verb_open, remembered=True, primary_only=True),
    "advance": _Verb(QueryNetServer._verb_advance, remembered=True, primary_only=True),
    "members": _Verb(QueryNetServer._verb_members, primary_only=True),
    "close": _Verb(QueryNetServer._verb_close, remembered=True, primary_only=True),
    "explain": _Verb(QueryNetServer._verb_explain, remembered=True, primary_only=True),
    "subscribe": _Verb(QueryNetServer._verb_subscribe, primary_only=True),
    "unsubscribe": _Verb(QueryNetServer._verb_unsubscribe, primary_only=True),
    "ping": _Verb(QueryNetServer._verb_ping),
    "stats": _Verb(QueryNetServer._verb_stats),
    "repl.subscribe": _Verb(QueryNetServer._verb_repl_subscribe),
    "repl.ack": _Verb(QueryNetServer._verb_repl_ack),
}

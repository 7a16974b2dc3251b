"""Synchronous client for the networked serving frontend.

:class:`RemoteQueryClient` opens one TCP connection to a
:class:`~repro.net.QueryNetServer`, performs the protocol-version
handshake, and exposes the server's verbs as typed Python calls.  Each
request carries a client-generated idempotent id; on a lost connection
the client reconnects with bounded exponential backoff and **resends
the same id**, so the server replays its cached response rather than
applying the verb twice.  Per-request timeouts abandon the attempt
(and its socket — a half-read frame cannot be resynchronized) and
surface :class:`~repro.net.errors.RequestTimeoutError`.

Typed errors mirror the in-process API: a remote ``AdmissionError`` /
``SessionShedError`` / ``ValueError`` re-raises as that very class
(:func:`repro.net.errors.raise_from_wire`).

:class:`RemoteQuerySession` mirrors the in-process
:class:`~repro.server.session.ServerSession` surface — ``advance_to``
/ ``members`` / ``close`` / ``explain_close`` — plus ``subscribe`` and
:meth:`RemoteQuerySession.changes` for the continuous-query push
stream (pushed events are read either as a by-product of any request,
or explicitly via :meth:`RemoteQueryClient.wait_events` — return on
the first arrival — and :meth:`RemoteQueryClient.poll_events`, which
keeps reading to its deadline).

**Failover.**  The client optionally holds a *list* of endpoints
(primary first, warm standbys after).  Transport failures and
``NotPrimaryError`` rejections advance round-robin to the next
endpoint before the retry — so when a primary dies and its standby is
promoted, in-flight requests replay (same idempotent id) against the
new primary and the caller never sees the switch.  Session ids are
assigned by the primary and mirrored by the standby through the
replication stream, so remote session handles survive failover.  A
heartbeat-stall watchdog (:class:`RemoteQueryClient` with
``heartbeat_timeout`` against a server pushing heartbeats) detects a
silently dead push stream, re-subscribes on the surviving endpoint,
and raises :class:`~repro.net.errors.ConnectionLostError` only when
every endpoint is gone.
"""

from __future__ import annotations

import random
import select
import socket
import time
from collections import deque
from itertools import count
from typing import Any, Dict, List, Optional, Sequence, Tuple
from uuid import uuid4

from repro.net.errors import (
    ConnectionLostError,
    FrameTooLargeError,
    NetError,
    NotPrimaryError,
    RequestTimeoutError,
    raise_from_wire,
)
from repro.net.protocol import (
    HEADER,
    MAX_FRAME,
    PROTOCOL_VERSION,
    answer_from_wire,
    decode_payload,
    encode_frame,
    members_from_wire,
)
from repro.obs.explain import render_report

__all__ = ["RemoteQueryClient", "RemoteQuerySession", "RemoteExplain", "connect"]


def connect(host: str, port: int, **kwargs) -> "RemoteQueryClient":
    """Open a client connection (``kwargs`` pass to the constructor)."""
    return RemoteQueryClient(host, port, **kwargs)


class RemoteExplain:
    """An EXPLAIN report that crossed the wire: decoded answer plus the
    JSON-ready report dict, rendered locally with
    :func:`repro.obs.explain.render_report` (identical to the server's
    own rendering)."""

    def __init__(self, answer, report: dict) -> None:
        self.answer = answer
        self.report = report

    @property
    def query_id(self) -> Optional[str]:
        return self.report.get("query_id")

    @property
    def stages(self) -> list:
        """The stage tree as JSON-ready dicts (top-level stages)."""
        return self.report.get("stages", [])

    def text(self) -> str:
        return render_report(self.report)

    def __str__(self) -> str:
        return self.text()


class RemoteQueryClient:
    """One connection's worth of remote query sessions.

    Parameters
    ----------
    host, port:
        The net server's bound address (``net.address``).  May be
        omitted when ``endpoints`` is given.
    timeout:
        Per-request seconds before :class:`RequestTimeoutError`.
    retries:
        How many times a failed request is retried (reconnecting with
        the *same* request id) before the typed transport error
        surfaces.  ``0`` disables retries.
    backoff, max_backoff:
        Exponential backoff seconds between retries: ``backoff * 2**n``
        capped at ``max_backoff``.
    endpoints:
        Optional ordered ``(host, port)`` pairs — the primary first,
        warm standbys after.  Transport failures and
        ``NotPrimaryError`` rejections advance round-robin before the
        next retry attempt, so a promoted standby picks up the retried
        (idempotent) request.
    jitter:
        Fraction of each backoff sleep randomly *shaved off* (never
        added), de-synchronizing thundering-herd reconnects after a
        failover.  ``0`` restores fully deterministic backoff.
    seed:
        Seed for the jitter RNG — pass one for reproducible retry
        timing in tests and chaos harnesses.
    heartbeat_timeout:
        Seconds of push-stream silence (no frame of any kind — the
        server's ``heartbeat`` events count) before
        :meth:`wait_events` declares the connection dead, fails over,
        and re-subscribes; :class:`ConnectionLostError` surfaces only
        when every endpoint is unreachable.  Requires a server with
        ``heartbeat_interval`` set.  ``None`` disables the watchdog.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: float = 5.0,
        retries: int = 3,
        backoff: float = 0.05,
        max_backoff: float = 1.0,
        max_frame: int = MAX_FRAME,
        endpoints: Optional[Sequence[Tuple[str, int]]] = None,
        jitter: float = 0.25,
        seed: Optional[int] = None,
        heartbeat_timeout: Optional[float] = None,
    ) -> None:
        if endpoints:
            self._endpoints: List[Tuple[str, int]] = [
                (str(h), int(p)) for h, p in endpoints
            ]
        elif host is not None and port is not None:
            self._endpoints = [(str(host), int(port))]
        else:
            raise ValueError("pass host/port or a non-empty endpoints list")
        self._endpoint_index = 0
        self._timeout = float(timeout)
        self._retries = int(retries)
        self._backoff = float(backoff)
        self._max_backoff = float(max_backoff)
        self._max_frame = int(max_frame)
        if not 0.0 <= float(jitter) < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self._jitter = float(jitter)
        self._rng = random.Random(seed)
        self._heartbeat_timeout = (
            None if heartbeat_timeout is None else float(heartbeat_timeout)
        )
        self._sock: Optional[socket.socket] = None
        self._tag = uuid4().hex[:8]
        self._next_seq = count(1)
        # sid (or None for connection-wide) -> pushed event frames
        self._events: Dict[Optional[int], deque] = {}
        self._subscribed: set = set()
        self._last_frame_at = time.monotonic()
        self.failovers = 0
        self._closed = False
        try:
            self._connect()
        except (NotPrimaryError, TimeoutError, ConnectionError, OSError):
            # A dead (or not-yet-promoted) first endpoint must not fail
            # construction: failover clients are built precisely for
            # that moment.  Rotate and let the first request reconnect
            # its way through the endpoint list.
            self._drop_socket()
            self._advance_endpoint()

    # -- socket plumbing ---------------------------------------------------
    @property
    def endpoint(self) -> Tuple[str, int]:
        """The endpoint the client currently targets."""
        return self._endpoints[self._endpoint_index % len(self._endpoints)]

    @property
    def connected(self) -> bool:
        """Whether a live socket is held (reconnects are lazy)."""
        return self._sock is not None and not self._closed

    def _advance_endpoint(self) -> None:
        if len(self._endpoints) > 1:
            self._endpoint_index = (self._endpoint_index + 1) % len(
                self._endpoints
            )
            self.failovers += 1

    def _sleep_for(self, delay: float) -> float:
        """Jittered backoff: shave up to ``jitter`` off, never add."""
        return delay * (1.0 - self._jitter * self._rng.random())

    def _connect(self) -> None:
        if self._closed:
            raise NetError("client is closed")
        host, port = self.endpoint
        sock = socket.create_connection((host, port), timeout=self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._last_frame_at = time.monotonic()
        hello = {
            "id": self._new_id(),
            "verb": "hello",
            "version": PROTOCOL_VERSION,
            "client": "repro-net/1",
        }
        self._send_payload(hello)
        frame = self._await_response(hello["id"])
        if not frame.get("ok"):
            self._drop_socket()
            raise_from_wire(frame.get("error") or {})
        if self._subscribed:
            self._resubscribe()

    def _resubscribe(self) -> None:
        """Re-arm push subscriptions on a fresh connection.

        Sessions that meanwhile died (closed, shed) fall out of the
        set; a ``NotPrimaryError`` propagates so the caller advances
        to the next endpoint — a standby cannot serve subscriptions.
        """
        for sid in sorted(self._subscribed):
            rid = self._new_id()
            self._send_payload({"id": rid, "verb": "subscribe", "session": sid})
            frame = self._await_response(rid)
            if not frame.get("ok"):
                error = frame.get("error") or {}
                if error.get("type") == "NotPrimaryError":
                    raise_from_wire(error)
                self._subscribed.discard(sid)

    def _drop_socket(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _new_id(self) -> str:
        return f"{self._tag}-{next(self._next_seq):06d}"

    def _send_payload(self, payload: dict) -> None:
        if self._sock is None:
            raise ConnectionError("not connected")
        self._sock.sendall(encode_frame(payload, self._max_frame))

    def _recv_exact(self, n: int) -> bytes:
        sock = self._sock
        if sock is None:
            # ``close()`` from another thread got here first.
            raise ConnectionError("not connected")
        chunks = []
        remaining = n
        while remaining > 0:
            chunk = sock.recv(remaining)
            if not chunk:
                raise ConnectionError("connection closed by server")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _read_frame(self) -> dict:
        header = self._recv_exact(HEADER.size)
        (length,) = HEADER.unpack(header)
        if length > self._max_frame:
            # The announced body is still in flight: drop the socket so
            # the next request reconnects on clean framing (session ids
            # survive a reconnect) instead of parsing body bytes as a
            # header.  The offending request is not retried.
            self._drop_socket()
            raise FrameTooLargeError(
                f"server announced a {length}-byte frame beyond the "
                f"{self._max_frame}-byte cap"
            )
        frame = decode_payload(self._recv_exact(length))
        self._last_frame_at = time.monotonic()
        return frame

    def _await_response(self, rid: str) -> dict:
        """Read frames until ``rid``'s response; route events, drop
        stale responses to abandoned earlier attempts."""
        while True:
            frame = self._read_frame()
            if "event" in frame:
                self._route_event(frame)
                continue
            if frame.get("id") == rid:
                return frame
            # A response to a request a previous attempt abandoned.

    # -- the request engine ------------------------------------------------
    def request(
        self,
        verb: str,
        args: Optional[dict] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Issue one verb; returns the ``result`` dict.

        Transport failures reconnect and resend the *same* request id
        (bounded exponential backoff); the server's reply table
        guarantees at-most-once application.  Application errors
        re-raise as their original exception class.
        """
        if self._closed:
            raise NetError("client is closed")
        rid = self._new_id()
        payload = {"id": rid, "verb": verb, **(args or {})}

        def attempt() -> dict:
            if self._sock is None:
                self._connect()
            if timeout is not None:
                self._sock.settimeout(timeout)
            try:
                self._send_payload(payload)
                frame = self._await_response(rid)
            finally:
                if timeout is not None and self._sock is not None:
                    self._sock.settimeout(self._timeout)
            error = frame.get("error") or {}
            if not frame.get("ok") and error.get("type") == "NotPrimaryError":
                # A standby answered: retryable — the promoted
                # primary is (or will be) at another endpoint.
                raise NotPrimaryError(str(error.get("message", "")))
            return frame

        # A timed-out read leaves a half-read frame that can't be
        # resynchronized, but the endpoint may be fine: the retry
        # resends the same id to it on a fresh socket.
        frame, last_exc = self._retrying(attempt, timeouts_advance=False)
        if frame is not None:
            if frame.get("ok"):
                self._note_success(verb, args)
                return frame.get("result")
            raise_from_wire(frame.get("error") or {})
        attempts = self._retries + 1
        if isinstance(last_exc, TimeoutError):
            raise RequestTimeoutError(
                f"{verb!r} got no response within {timeout or self._timeout}s "
                f"({attempts} attempt(s))"
            ) from last_exc
        if isinstance(last_exc, NotPrimaryError):
            # Every endpoint probed answered "standby" — the link is
            # fine, so surface the typed refusal, not a transport error.
            raise last_exc
        raise ConnectionLostError(
            f"{verb!r} failed after {attempts} attempt(s): {last_exc}"
        ) from last_exc

    def _retrying(self, attempt, timeouts_advance: bool):
        """The one retry loop: run ``attempt`` until it returns, at most
        ``retries + 1`` times.  A transport failure — or a standby's
        ``NotPrimaryError``, raised while reconnecting or by the
        attempt itself — drops the socket, moves to the next endpoint
        (a timeout only when ``timeouts_advance``) and backs off:
        jittered, doubling, capped at ``max_backoff``.  Returns
        ``(result, None)``, or ``(None, last_exc)`` once every attempt
        has failed."""
        attempts = self._retries + 1
        delay = self._backoff
        last_exc: Optional[BaseException] = None
        for n in range(attempts):
            try:
                return attempt(), None
            except (NotPrimaryError, ConnectionError, OSError) as exc:
                self._drop_socket()
                if timeouts_advance or not isinstance(exc, TimeoutError):
                    self._advance_endpoint()
                last_exc = exc
            if n + 1 < attempts:
                time.sleep(self._sleep_for(delay))
                delay = min(delay * 2, self._max_backoff)
        return None, last_exc

    def _note_success(self, verb: str, args: Optional[dict]) -> None:
        """Track push subscriptions so reconnects can re-arm them."""
        if verb == "subscribe" and args and "session" in args:
            self._subscribed.add(int(args["session"]))
        elif verb == "unsubscribe" and args and "session" in args:
            self._subscribed.discard(int(args["session"]))

    # -- events ------------------------------------------------------------
    def _route_event(self, frame: dict) -> None:
        if frame.get("event") == "heartbeat":
            # Liveness only — _read_frame already stamped the clock.
            return
        sid = frame.get("session")
        queue = self._events.setdefault(sid, deque())
        queue.append(frame)
        if frame.get("event") == "shed":
            # A shed notice names every affected session.
            for shed_sid in frame.get("sessions", ()):
                self._events.setdefault(shed_sid, deque()).append(frame)

    def wait_events(self, timeout: float = 0.05) -> int:
        """Wait up to ``timeout`` seconds for pushed frames and return
        as soon as some arrived; returns how many events were routed.

        The one socket-read loop outside :meth:`request`: ``select``
        until the socket is readable or ``timeout`` passes, then read
        that frame and every frame already buffered behind it (zero
        wait).  A frame once begun is read *whole* under the
        connection's ordinary ``timeout`` — the wait bounds how long
        the caller idles, never how long a frame may take — and a
        stall inside one drops the socket (a half-read frame cannot be
        resynchronized; the next :meth:`request` reconnects).
        Responses to requests are only read during :meth:`request`, so
        this never steals them.

        With ``heartbeat_timeout`` set and live subscriptions, a push
        stream silent past the deadline (or a dead socket) triggers
        failover: reconnect through the endpoint list, re-subscribe,
        and only raise :class:`ConnectionLostError` when retries run
        out everywhere.
        """
        if self._closed:
            return 0
        routed = 0
        wait = max(float(timeout), 0.0)
        while True:
            sock = self._sock
            if sock is None:
                break
            try:
                if not select.select([sock], [], [], wait)[0]:
                    break
                frame = self._read_frame()
            except (ConnectionError, OSError, ValueError):
                # Includes a timeout mid-frame and a socket closed
                # under the select by another thread.
                self._drop_socket()
                break
            if "event" in frame:
                self._route_event(frame)
                routed += 1
            wait = 0.0
        self._check_watchdog()
        return routed

    def poll_events(self, timeout: float = 0.05) -> int:
        """Read pushed frames for up to ``timeout`` seconds — repeated
        :meth:`wait_events` to the deadline, so events that trickle in
        accumulate; returns how many were routed.  Callers that want
        the first arrival, not the full window, call
        :meth:`wait_events`."""
        deadline = time.monotonic() + timeout
        routed = self.wait_events(timeout)
        while self.connected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            routed += self.wait_events(remaining)
        return routed

    def _check_watchdog(self) -> None:
        """Heartbeat-stall detection for the push stream."""
        if self._heartbeat_timeout is None or not self._subscribed:
            return
        stalled = (
            time.monotonic() - self._last_frame_at > self._heartbeat_timeout
        )
        if self._sock is not None and not stalled:
            return
        self._drop_socket()
        self._recover_stream()

    def _recover_stream(self) -> None:
        """Reconnect (and re-subscribe) after a dead push stream,
        probing endpoints round-robin with jittered backoff."""
        connected, last_exc = self._retrying(
            lambda: self._connect() or True, timeouts_advance=True
        )
        if not connected:
            raise ConnectionLostError(
                f"push stream stalled past {self._heartbeat_timeout}s and "
                f"reconnection failed after {self._retries + 1} attempt(s): "
                f"{last_exc}"
            ) from last_exc

    def events_for(self, sid: Optional[int]) -> List[dict]:
        """Drain (and return) the buffered events for one session, or
        the connection-wide events for ``None`` (``goodbye`` etc.)."""
        queue = self._events.get(sid)
        if not queue:
            return []
        drained = list(queue)
        queue.clear()
        return drained

    # -- session verbs -----------------------------------------------------
    def _open(self, args: dict, priority: int) -> "RemoteQuerySession":
        if priority:
            args["priority"] = int(priority)
        result = self.request("open", args)
        return RemoteQuerySession(
            self,
            int(result["session"]),
            str(result["kind"]),
            str(result["state"]),
            result.get("start"),
        )

    def open_knn(
        self,
        query: Sequence[float],
        k: int = 1,
        priority: int = 0,
    ) -> "RemoteQuerySession":
        """Register a continuous k-NN query at the fixed point
        ``query`` (coordinates)."""
        args = {"kind": "knn", "query": list(query), "k": int(k)}
        return self._open(args, priority)

    def open_within(
        self,
        query: Sequence[float],
        distance: Optional[float] = None,
        threshold: Optional[float] = None,
        priority: int = 0,
    ) -> "RemoteQuerySession":
        """Register a continuous within-range query.

        Pass ``distance`` for Euclidean semantics (squared server-side,
        like the in-process point-query API) or ``threshold`` for raw
        g-distance units compared as-is.
        """
        if (distance is None) == (threshold is None):
            raise ValueError("pass exactly one of distance / threshold")
        args = {"kind": "within", "query": list(query)}
        if distance is not None:
            args["distance"] = float(distance)
        else:
            args["threshold"] = float(threshold)
        return self._open(args, priority)

    def open_multiknn(
        self,
        query: Sequence[float],
        ks: Sequence[int],
        priority: int = 0,
    ) -> "RemoteQuerySession":
        """Register a multi-k k-NN query (per-k answers, one sweep)."""
        args = {
            "kind": "multiknn",
            "query": list(query),
            "ks": [int(k) for k in ks],
        }
        return self._open(args, priority)

    # -- service verbs -----------------------------------------------------
    def ping(self) -> float:
        """Round-trip the server; returns its MOD clock (``tau``)."""
        return self.request("ping")["tau"]

    def stats(self) -> dict:
        """Server + net counters (and, on a replicated server, the
        replica feed's `replication` section), as one dict."""
        return self.request("stats")

    def close(self) -> None:
        """Close the connection (sessions survive server-side)."""
        self._closed = True
        self._drop_socket()

    def __enter__(self) -> "RemoteQueryClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class RemoteQuerySession:
    """A server-side session, driven over the wire.

    Mirrors :class:`~repro.server.session.ServerSession`: the session
    (and its answer window) lives on the server; this handle survives
    client reconnects because every verb names the session id.
    """

    def __init__(
        self,
        client: RemoteQueryClient,
        session_id: int,
        kind: str,
        state: str,
        start: Optional[float],
    ) -> None:
        self._client = client
        self.session_id = session_id
        self.kind = kind
        self.state = state
        self.start = start
        self._answer = None

    # -- reads -------------------------------------------------------------
    @property
    def members(self):
        """The current answer set (per-k dict for multiknn)."""
        result = self._client.request(
            "members", {"session": self.session_id}
        )
        return members_from_wire(result["members"])

    def advance_to(self, t: float):
        """Advance the shared sweep to ``t``; returns the answer there."""
        result = self._client.request(
            "advance", {"session": self.session_id, "to": float(t)}
        )
        return members_from_wire(result["members"])

    # -- lifecycle ---------------------------------------------------------
    def close(self, at: Optional[float] = None):
        """Close and return the final snapshot answer over
        ``[start, at]`` (decoded; ``None`` for cancelled queued
        sessions)."""
        args: dict = {"session": self.session_id}
        if at is not None:
            args["at"] = float(at)
        result = self._client.request("close", args)
        self.state = result["state"]
        self._answer = answer_from_wire(result["answer"])
        return self._answer

    def explain_close(self, at: Optional[float] = None) -> RemoteExplain:
        """Close with EXPLAIN: final answer plus the remote profile
        (``net.decode`` / ``net.dispatch`` / ``net.encode`` wrapping
        the server's own ``server.*`` stages)."""
        args: dict = {"session": self.session_id}
        if at is not None:
            args["at"] = float(at)
        result = self._client.request("explain", args)
        self.state = result["state"]
        self._answer = answer_from_wire(result["answer"])
        return RemoteExplain(self._answer, result["report"])

    @property
    def answer(self):
        """The final answer (after :meth:`close`)."""
        if self._answer is None:
            raise RuntimeError(
                f"remote session {self.session_id} has no final answer yet"
            )
        return self._answer

    # -- push stream -------------------------------------------------------
    def subscribe(self):
        """Subscribe this connection to answer-change pushes; returns
        the baseline members."""
        result = self._client.request(
            "subscribe", {"session": self.session_id}
        )
        return members_from_wire(result["members"])

    def unsubscribe(self) -> None:
        self._client.request("unsubscribe", {"session": self.session_id})

    def changes(self, poll: float = 0.0) -> List[dict]:
        """Drain buffered push events for this session (optionally
        polling the socket for up to ``poll`` seconds first).

        Each returned dict carries ``event`` plus decoded payloads:
        ``members`` for ``answer_change``, ``answer`` for ``drain``.
        """
        if poll > 0:
            self._client.poll_events(poll)
        events = []
        for frame in self._client.events_for(self.session_id):
            event = dict(frame)
            if "members" in event:
                event["members"] = members_from_wire(event["members"])
            if event.get("event") == "drain":
                event["answer"] = answer_from_wire(event.get("answer"))
            events.append(event)
        return events

    def __repr__(self) -> str:
        return (
            f"RemoteQuerySession(#{self.session_id}, {self.kind}, "
            f"{self.state})"
        )

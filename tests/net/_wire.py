"""Raw-socket helpers for protocol-level tests.

These speak the frame format directly (no RemoteQueryClient), so the
tests can violate the protocol on purpose — wrong versions, replayed
ids, oversized frames — and observe exactly what the server answers.
"""

from __future__ import annotations

import socket

from repro.net.errors import error_to_wire
from repro.net.protocol import (
    HEADER,
    PROTOCOL_VERSION,
    decode_payload,
    encode_frame,
    members_to_wire,
)
from repro.server.errors import ServerError
from repro.server.session import ACTIVE


def send_frame(sock: socket.socket, payload: dict) -> None:
    sock.sendall(encode_frame(payload))


def recv_frame(sock: socket.socket) -> dict:
    chunks = []
    remaining = HEADER.size
    while remaining:
        chunk = sock.recv(remaining)
        assert chunk, "server closed the connection mid-frame"
        chunks.append(chunk)
        remaining -= len(chunk)
    (length,) = HEADER.unpack(b"".join(chunks))
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        assert chunk, "server closed the connection mid-frame"
        body += chunk
    return decode_payload(body)


def recv_response(sock: socket.socket, rid) -> dict:
    """Skip pushed events until the response for ``rid`` arrives."""
    while True:
        frame = recv_frame(sock)
        if "event" in frame:
            continue
        if frame.get("id") == rid:
            return frame


def raw_connect(
    address, version: int = PROTOCOL_VERSION, timeout: float = 5.0
) -> tuple:
    """A handshaken raw socket; returns ``(sock, hello_response)``."""
    sock = socket.create_connection(address, timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_frame(sock, {"id": "hello-0", "verb": "hello", "version": version})
    return sock, recv_response(sock, "hello-0")


class RawClient:
    """A handshaken raw socket that keeps every pushed frame, in the
    order the connection carried it."""

    def __init__(self, address, tag: str = "raw") -> None:
        self.sock, _ = raw_connect(address)
        self.events = []
        # Request ids are replayed server-wide: one tag per client.
        self._tag = tag
        self._seq = 0

    def request(self, verb: str, **args) -> dict:
        """One verb; pushed events read on the way are kept.  Frames are
        FIFO per connection, so after a ``ping`` returns ``events``
        holds every push queued before it."""
        self._seq += 1
        rid = f"{self._tag}-{self._seq:06d}"  # fixed width: sizes repeat
        send_frame(self.sock, {"id": rid, "verb": verb, **args})
        while True:
            frame = recv_frame(self.sock)
            if "event" in frame:
                self.events.append(frame)
                continue
            assert frame.get("id") == rid and frame["ok"], frame
            return frame["result"]

    def close(self) -> None:
        self.sock.close()


# -- push fan-out oracle ------------------------------------------------------
# ``QueryNetServer._push_answer_changes`` as it stood before it read each
# view family once per flush, kept verbatim (patch it onto the class to
# run it): every subscribed session reads and encodes its own members and
# compares the *wire* with the last one it sent.  One departure: the
# subscription now holds the member set ``subscribe`` answered with, not
# its wire, so the wires this loop compares live beside it, on the net
# server, seeded from that set.  The session table it reads is the query
# server's, the only one.  ``tests/net/test_push_fanout.py`` holds
# the fan-out to the same frames, in the same order, for the same bytes.


def reference_push_answer_changes(self) -> None:
    last_wires = vars(self).setdefault("_reference_last_wires", {})
    if not any(conn.subscriptions for conn in self._connections):
        return
    tau = self._server.db.last_update_time
    for conn in list(self._connections):
        if conn.closing:
            continue
        for sid in list(conn.subscriptions):
            session = self._server._sessions.get(sid)
            if session is None or session.state != ACTIVE:
                conn.subscriptions.pop(sid, None)
                continue
            try:
                wire = members_to_wire(session.members)
            except ServerError as exc:
                # The session died under us (shed / quarantined):
                # one final typed notice, then the stream ends.
                conn.subscriptions.pop(sid, None)
                self._send(
                    conn,
                    {
                        "event": "lost",
                        "session": sid,
                        "error": error_to_wire(exc),
                    },
                    force=True,
                )
                continue
            subscribed = conn.subscriptions[sid]
            seeded, last = last_wires.get((conn.cid, sid), (None, None))
            if seeded is not subscribed:  # a subscribe since we last looked
                last = members_to_wire(subscribed)
            last_wires[(conn.cid, sid)] = (subscribed, wire)
            if wire != last:
                delivered = self._send(
                    conn,
                    {
                        "event": "answer_change",
                        "session": sid,
                        "time": tau,
                        "members": wire,
                    },
                )
                if delivered:
                    self.stats.pushes += 1
                    self._c_event("push").inc()
                else:
                    break  # connection was just shed or closed

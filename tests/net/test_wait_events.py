"""``wait_events``: the one socket-read loop outside ``request``.

Two contracts: it returns on the first arrival instead of reading its
timeout out (``poll_events`` is the accumulate-to-the-deadline loop
built on it), and a frame once begun is read whole — a wait that
expires between a frame's header and its body must not leave the
stream desynchronised.
"""

import socket
import threading
import time

from repro.net import NetConfig, QueryNetServer, RemoteQueryClient
from repro.net.protocol import encode_frame
from repro.server import QueryServer
from repro.workloads.generator import UpdateStream, random_linear_mod

from tests.net._wire import recv_frame, send_frame


class _SplitFrameServer:
    """A stub server: handshake, then one pushed event whose body
    trails its header by ``gap`` seconds, then ordinary ``ping``s."""

    def __init__(self, gap: float) -> None:
        self._gap = gap
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self.errors: list = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self._listener.accept()
            with conn:
                conn.settimeout(5.0)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                hello = recv_frame(conn)
                send_frame(conn, {"id": hello["id"], "ok": True, "result": {}})
                event = encode_frame(
                    {"event": "answer_change", "session": 7, "members": ["o1"]}
                )
                conn.sendall(event[:4])
                time.sleep(self._gap)
                conn.sendall(event[4:])
                while True:
                    request = recv_frame(conn)
                    send_frame(
                        conn,
                        {"id": request["id"], "ok": True, "result": {"tau": 1.5}},
                    )
        except (AssertionError, OSError) as exc:
            self.errors.append(exc)  # the client hung up: test is over

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=5.0)
        assert not self._thread.is_alive()


def test_poll_timeout_between_header_and_body_keeps_the_stream_in_sync():
    stub = _SplitFrameServer(gap=0.3)
    # retries=0: a desynchronised stream must fail the request below,
    # not be papered over by a reconnect.
    client = RemoteQueryClient(*stub.address, retries=0, timeout=5.0)
    try:
        routed = client.poll_events(0.1)  # expires mid-frame
        routed += client.poll_events(0.5)
        assert routed == 1
        assert client.connected, "the socket must survive a slow frame"
        (event,) = client.events_for(7)
        assert event["members"] == ["o1"]
        assert client.ping() == 1.5
    finally:
        client.close()
        stub.close()


def test_a_frame_stalled_past_the_request_timeout_drops_the_socket():
    stub = _SplitFrameServer(gap=1.0)
    client = RemoteQueryClient(*stub.address, retries=0, timeout=0.2)
    try:
        assert client.wait_events(0.5) == 0
        assert not client.connected, "a half-read frame cannot be resynchronised"
    finally:
        client.close()
        stub.close()


def _pushing_stack():
    db = random_linear_mod(6, seed=5, extent=20.0, speed=3.0)
    net = QueryNetServer(QueryServer(db), NetConfig()).start(port=0)
    client = RemoteQueryClient(*net.address)
    # Every object is in range: each New grows the answer, so each
    # step pushes exactly one answer_change.
    session = client.open_within([0.0, 0.0], distance=1e6)
    session.subscribe()
    return db, net, client, session


def test_wait_events_returns_on_arrival_not_at_its_timeout():
    db, net, client, session = _pushing_stack()
    try:
        stream = UpdateStream(
            db, seed=5, extent=20.0, speed=3.0, weights=(1.0, 0.0, 0.0)
        )
        stream.step()
        began = time.monotonic()
        assert client.wait_events(5.0) >= 1
        assert time.monotonic() - began < 2.0
        assert session.changes(), "the routed event is the session's"
        # Nothing pending: the wait is the caller's idle period.
        began = time.monotonic()
        assert client.wait_events(0.2) == 0
        assert time.monotonic() - began >= 0.15
    finally:
        client.close()
        net.close()


def test_poll_events_still_reads_to_its_deadline():
    db, net, client, session = _pushing_stack()
    try:
        stream = UpdateStream(
            db, seed=5, extent=20.0, speed=3.0, weights=(1.0, 0.0, 0.0)
        )

        def trickle():
            for _ in range(3):
                time.sleep(0.1)
                stream.step()

        feeder = threading.Thread(target=trickle, daemon=True)
        feeder.start()
        began = time.monotonic()
        routed = client.poll_events(1.0)
        assert time.monotonic() - began >= 0.9
        feeder.join(timeout=5.0)
        assert not feeder.is_alive()
        assert routed == 3, "events that trickle in accumulate in one poll"
    finally:
        client.close()
        net.close()

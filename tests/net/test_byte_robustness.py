"""Arbitrary bytes into the wire decoders.

ROADMAP aim 3: decoders survive arbitrary bytes.  Whatever arrives, the
payload decoder returns a JSON object or raises :class:`ProtocolError`;
neither frame reader (client, server) ever asks the transport for more
than the frame cap because a header said so; and a client that met one
oversized frame is usable again on its next request.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.api import serve_tcp
from repro.net import NetConfig, RemoteQueryClient
from repro.net.errors import FrameTooLargeError, ProtocolError
from repro.net.protocol import HEADER, decode_payload
from repro.net.server import QueryNetServer, _Connection
from repro.server.server import QueryServer
from repro.workloads.generator import random_linear_mod

DEEP = b"[" * 200_000  # 200 kB, cap 8 MB: nests past the parser's depth


@settings(max_examples=300)
@given(st.binary(max_size=512))
@example(DEEP)
@example(b'{"a": ' * 5000)
@example(b"\xff\xfe")
@example(b"null")
def test_decode_payload_returns_an_object_or_a_protocol_error(body):
    try:
        payload = decode_payload(body)
    except ProtocolError:
        return
    assert isinstance(payload, dict)


# -- frame readers: a header is a claim, not an allocation ------------------
MAX_FRAME = 256
SKIP_CHUNK = 1 << 16  # the server discards an oversized body in chunks


class _RecordingSocket:
    """Feeds ``data`` to a frame reader (the client's or the server's),
    recording every size it asks for."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self.asked = []

    def recv(self, n: int) -> bytes:
        self.asked.append(n)
        chunk, self._data = self._data[:n], self._data[n:]
        return chunk

    def settimeout(self, timeout) -> None:
        pass

    def close(self) -> None:
        pass


@pytest.fixture(scope="module")
def net():
    with serve_tcp(random_linear_mod(4, seed=3)) as server:
        yield server


@settings(max_examples=300)
@given(header=st.binary(min_size=4, max_size=4), body=st.binary(max_size=600))
@example(header=b"\xff\xff\xff\xff", body=b"")
@example(header=HEADER.pack(MAX_FRAME + 1), body=b"x" * (MAX_FRAME + 1))
def test_client_frame_reader_never_reads_past_the_cap(net, header, body):
    client = RemoteQueryClient(*net.address, max_frame=MAX_FRAME)
    try:
        client._drop_socket()
        sock = client._sock = _RecordingSocket(header + body)
        try:
            client._read_frame()
        except (ProtocolError, ConnectionError):
            pass
        assert max(sock.asked) <= MAX_FRAME
        (announced,) = HEADER.unpack(header)
        if announced > MAX_FRAME:
            assert client._sock is None  # dropped: framing is lost
    finally:
        client.close()


@settings(max_examples=300)
@given(header=st.binary(min_size=4, max_size=4), body=st.binary(max_size=600))
@example(header=b"\xff\xff\xff\xff", body=b"")
@example(header=HEADER.pack(MAX_FRAME + 1), body=b"x" * (MAX_FRAME + 1))
def test_server_frame_reader_never_reads_past_the_cap(header, body):
    server = QueryNetServer(
        QueryServer(random_linear_mod(2, seed=1)),
        NetConfig(max_frame=MAX_FRAME),
    )
    (announced,) = HEADER.unpack(header)
    cap = max(MAX_FRAME, SKIP_CHUNK)
    # The peer goes on sending the body it announced, well past the cap.
    more = bytes(2 * cap) if announced >= len(body) + 2 * cap else b""
    sock = _RecordingSocket(header + body + more)
    conn = _Connection(1, sock)  # past its handshake: frames are requests
    while server._on_readable(conn):
        if announced > MAX_FRAME:
            assert len(conn.inbuf) <= cap
    assert max(sock.asked) <= cap
    server.server.shutdown()


# -- the regression: one oversized push must not poison the client ----------
def test_client_is_usable_after_an_oversized_frame():
    db = random_linear_mod(200, seed=11, extent=30.0, speed=3.0)
    with serve_tcp(db) as net:
        client = RemoteQueryClient(*net.address, max_frame=1500, retries=0)
        session = client.open_knn([0.0, 0.0], k=190)
        with pytest.raises(FrameTooLargeError):  # 190 oids cannot fit
            client.request("members", {"session": session.session_id})
        # The unread body is gone with the socket; the next request
        # reconnects on clean framing instead of parsing body bytes as
        # a header — and the session id survived.
        assert client.ping() == db.last_update_time
        assert client.ping() == db.last_update_time
        with pytest.raises(FrameTooLargeError):
            client.request("members", {"session": session.session_id})
        assert client.ping() == db.last_update_time
        client.close()

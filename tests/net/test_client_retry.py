"""One retry loop, two callers, and a session check on every verb.

``RemoteQueryClient.request`` and the push-stream recovery run the
same attempts / jittered-doubling-capped-backoff / next-endpoint loop;
each keeps its own success test and final typed error.  The sleep
sequence is a pure function of ``seed``.
"""

import random
import socket

import pytest

from repro.core.api import serve_tcp
from repro.net import ProtocolError, connect
from repro.net import client as client_module
from repro.net.client import RemoteQueryClient
from repro.net.errors import ConnectionLostError
from repro.workloads.generator import random_linear_mod

from tests.net._wire import raw_connect, recv_response, send_frame


def _dead_endpoint():
    """An address nothing listens on (bound, then closed)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()


def _expected_sleeps(rng, attempts, backoff, max_backoff, jitter):
    delay, out = backoff, []
    for _ in range(attempts - 1):
        out.append(delay * (1.0 - jitter * rng.random()))
        delay = min(delay * 2, max_backoff)
    return out


def test_both_callers_sleep_the_seeded_sequence(monkeypatch):
    slept = []
    monkeypatch.setattr(client_module.time, "sleep", slept.append)
    options = dict(retries=4, backoff=0.05, max_backoff=0.15, jitter=0.25)
    client = RemoteQueryClient(*_dead_endpoint(), seed=11, **options)
    rng = random.Random(11)

    with pytest.raises(ConnectionLostError, match="'ping' failed after 5"):
        client.request("ping")
    assert slept == _expected_sleeps(rng, 5, 0.05, 0.15, 0.25)
    assert slept[-1] <= 0.15  # capped

    del slept[:]
    with pytest.raises(ConnectionLostError, match="push stream stalled"):
        client._recover_stream()
    # The same generator keeps drawing: one loop, one jitter stream.
    assert slept == _expected_sleeps(rng, 5, 0.05, 0.15, 0.25)
    # A lone endpoint has nowhere to fail over to.
    assert client.failovers == 0


def test_retry_rotates_endpoints_and_request_stays_on_the_class(monkeypatch):
    monkeypatch.setattr(client_module.time, "sleep", lambda delay: None)
    db = random_linear_mod(4, seed=7, extent=30.0, speed=3.0)
    with serve_tcp(db) as net:
        client = RemoteQueryClient(
            endpoints=[_dead_endpoint(), net.address], retries=2, seed=1
        )
        assert isinstance(client.ping(), float)
        assert client.endpoint == tuple(net.address)
        assert client.failovers == 1
        client.close()
    assert "request" in vars(RemoteQueryClient)


@pytest.mark.parametrize("args", [{}, {"session": "x"}, {"session": None}])
def test_unsubscribe_validates_session_like_every_session_verb(args):
    db = random_linear_mod(4, seed=7, extent=30.0, speed=3.0)
    with serve_tcp(db) as net:
        client = connect(*net.address)
        for verb in ("unsubscribe", "subscribe", "members"):
            with pytest.raises(
                ProtocolError, match="request needs an integer 'session'"
            ):
                client.request(verb, args)
        client.close()
        sock, _ = raw_connect(net.address)
        send_frame(sock, {"id": "u1", "verb": "unsubscribe", **args})
        response = recv_response(sock, "u1")
        assert response["error"]["type"] == "ProtocolError"
        sock.close()


def test_unsubscribe_of_an_unknown_session_stays_a_no_op():
    db = random_linear_mod(4, seed=7, extent=30.0, speed=3.0)
    with serve_tcp(db) as net:
        client = connect(*net.address)
        assert client.request("unsubscribe", {"session": 424242}) == {
            "unsubscribed": 424242
        }
        client.close()

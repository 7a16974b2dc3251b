"""Every verb reads its request fields through one reader.

A missing or ill-typed field is a ``ProtocolError`` that names the
field — never a bare ``KeyError`` (the type an unknown session answers
with), ``ValueError`` (a close before the session's start) or
``TypeError`` leaking out of a conversion.  Semantic errors keep their
own types (``tests/net/test_netserve.py``).
"""

import pytest

from repro.core.api import serve_tcp
from repro.workloads.generator import random_linear_mod
from tests.net._wire import raw_connect, recv_response, send_frame

SESSION = object()  # stands for the id of a freshly opened knn session

CASES = [
    ("advance", {"session": SESSION}, "to"),
    ("advance", {"session": SESSION, "to": "soon"}, "to"),
    ("open", {"kind": "knn", "query": [0.0, 0.0], "k": "three"}, "k"),
    ("open", {"kind": "knn", "query": [0.0, "x"]}, "query"),
    ("open", {"kind": "knn", "query": [0.0, 0.0], "priority": "high"}, "priority"),
    ("open", {"kind": "within", "query": [0.0, 0.0], "distance": "far"}, "distance"),
    ("open", {"kind": "multiknn", "query": [0.0, 0.0], "ks": [1, "two"]}, "ks"),
    ("close", {"session": SESSION, "at": [1]}, "at"),
    ("explain", {"session": SESSION, "at": "later"}, "at"),
]


@pytest.mark.parametrize(
    "verb, args, field", CASES, ids=[f"{v}-{f}-{len(a)}" for v, a, f in CASES]
)
def test_a_bad_field_is_a_protocol_error_naming_it(verb, args, field):
    db = random_linear_mod(4, seed=7, extent=30.0, speed=3.0)
    with serve_tcp(db) as net:
        sock, _ = raw_connect(net.address)
        try:
            send_frame(
                sock,
                {"id": "o", "verb": "open", "kind": "knn", "query": [0.0, 0.0]},
            )
            sid = recv_response(sock, "o")["result"]["session"]
            args = {k: sid if v is SESSION else v for k, v in args.items()}
            send_frame(sock, {"id": "r", "verb": verb, **args})
            response = recv_response(sock, "r")
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert f"'{field}'" in response["error"]["message"]
            # Nothing ran: the session still advances.
            send_frame(sock, {"id": "a", "verb": "advance", "session": sid, "to": 1.0})
            assert recv_response(sock, "a")["ok"] is True
        finally:
            sock.close()


def test_a_verb_that_is_no_string_is_a_protocol_error():
    """A list is unhashable: looking it up in the verb table must not
    kill the connection's handler without a response."""
    db = random_linear_mod(4, seed=7, extent=30.0, speed=3.0)
    with serve_tcp(db) as net:
        sock, _ = raw_connect(net.address)
        try:
            send_frame(sock, {"id": "v", "verb": ["open"]})
            response = recv_response(sock, "v")
            assert response["error"]["type"] == "ProtocolError"
            send_frame(sock, {"id": "p", "verb": "ping"})
            assert recv_response(sock, "p")["ok"] is True
        finally:
            sock.close()

"""Fault injection against the TCP frontend.

The cases the wire adds beyond in-process serving: connections dying
mid-request (retry + idempotent replay), slow push consumers (bounded
queues + shed-through-admission), and graceful drain under load.
"""

import logging
import socket as socketlib
import time

import pytest

from repro.core.api import serve_tcp
from repro.geometry.vectors import Vector
from repro.mod.updates import ChangeDirection, New
from repro.net import (
    ConnectionLostError,
    NetConfig,
    RemoteQueryClient,
    connect,
)
from repro.net.protocol import MAX_OPEN_SHARDS, answer_to_wire, members_to_wire
from repro.obs import Instrumentation
from repro.server import (
    ServerClosedError,
    ServerConfig,
    SessionQuarantinedError,
    SessionShedError,
)
from repro.workloads.generator import random_linear_mod
from tests.net._wire import raw_connect, recv_response, send_frame


def _db(count=8, seed=7):
    return random_linear_mod(count, seed=seed, extent=30.0, speed=3.0)


def _newborn(oid, t, x, y):
    return New(
        oid, t, position=Vector.of(x, y), velocity=Vector.of(0.0, 0.0)
    )


class _ResponseLossClient(RemoteQueryClient):
    """Simulates a connection dying between the server processing a
    request and the client reading the response: sends normally, then
    kills its own socket instead of reading, forcing the retry path to
    reconnect and resend the *same* request id."""

    lose_next = 0

    def _await_response(self, rid):
        if self.lose_next > 0:
            self.lose_next -= 1
            self._drop_socket()
            raise ConnectionError("injected: response lost")
        return super()._await_response(rid)


class TestRetryIdempotency:
    def test_lost_close_response_replays_the_same_answer(self):
        db = _db()
        with serve_tcp(db) as net:
            client = _ResponseLossClient(*net.address, retries=3)
            session = client.open_knn([0.0, 0.0], k=2)
            db.apply(_newborn("nb1", 1.0, 0.01, 0.0))
            # The server WILL process this close; the client loses the
            # response and must retry with the same id.  Without the
            # idempotency cache the retry would hit SessionClosedError.
            client.lose_next = 1
            answer = session.close(at=2.0)
            assert answer is not None
            assert answer.interval.hi == 2.0
            assert net.stats.replays == 1
            assert net.server.stats.closed == 1  # applied exactly once

    def test_mid_request_drop_retries_until_success(self):
        db = _db()
        with serve_tcp(db) as net:
            client = _ResponseLossClient(*net.address, retries=4)
            session = client.open_knn([0.0, 0.0], k=1)
            client.lose_next = 2  # two consecutive losses, then succeed
            members = session.advance_to(1.5)
            assert members == session.members

    def test_retries_exhausted_surfaces_typed_transport_error(self):
        db = _db()
        with serve_tcp(db) as net:
            client = _ResponseLossClient(
                *net.address, retries=1, backoff=0.01
            )
            session = client.open_knn([0.0, 0.0], k=1)
            client.lose_next = 10
            with pytest.raises(ConnectionLostError):
                session.advance_to(1.0)

    def test_raw_replay_returns_cached_response_verbatim(self):
        db = _db()
        with serve_tcp(db) as net:
            sock, _ = raw_connect(net.address)
            send_frame(
                sock,
                {
                    "id": "rid-1",
                    "verb": "open",
                    "kind": "knn",
                    "query": [0.0, 0.0],
                    "k": 1,
                },
            )
            first = recv_response(sock, "rid-1")
            assert first["ok"]
            sock.close()
            # a "new client" retrying the same id after reconnect
            sock2, _ = raw_connect(net.address)
            send_frame(
                sock2,
                {
                    "id": "rid-1",
                    "verb": "open",
                    "kind": "knn",
                    "query": [0.0, 0.0],
                    "k": 1,
                },
            )
            second = recv_response(sock2, "rid-1")
            assert second == first
            assert net.server.stats.registered == 1  # not re-applied
            sock2.close()


class TestOpenShardsField:
    """``open``'s ``shards`` is outside input: an integer from 1 to
    ``MAX_OPEN_SHARDS`` or absent, anything else a typed error — it
    used to go through ``int()`` into ``partition_database`` (a million
    shard MODs and a timed-out verb; ``2.7`` and ``true`` accepted)."""

    @pytest.mark.parametrize(
        "shards", [0, -1, "x", [2], 2.7, True, MAX_OPEN_SHARDS + 1, 1000000]
    )
    def test_bad_values_are_protocol_errors_in_ordinary_time(self, shards):
        with serve_tcp(_db()) as net:
            sock, _ = raw_connect(net.address)
            began = time.perf_counter()
            send_frame(
                sock,
                {"id": "o1", "verb": "open", "kind": "knn", "query": [0, 0],
                 "shards": shards},
            )
            response = recv_response(sock, "o1")
            assert time.perf_counter() - began < 2.0
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert "'shards'" in response["error"]["message"]
            sock.close()
            assert not net.server.sessions()

    @pytest.mark.parametrize("shards", [None, 1, 2, MAX_OPEN_SHARDS])
    def test_legal_values_answer_like_an_open_without_the_field(self, shards):
        with serve_tcp(_db()) as net:
            client = connect(*net.address)
            plain = client.open_knn([0.0, 0.0], k=2)
            result = client.request(
                "open", {"kind": "knn", "query": [0.0, 0.0], "k": 2, "shards": shards}
            )
            sid = result["session"]
            assert net.server.session(sid).shards == (shards or 1)
            members = client.request("advance", {"session": sid, "to": 3.0})
            assert members["members"] == members_to_wire(plain.advance_to(3.0))
            closed = client.request("close", {"session": sid, "at": 6.0})
            assert closed["answer"] == answer_to_wire(plain.close(at=6.0))
            client.close()


class TestSlowConsumerShed:
    def test_full_push_queue_sheds_subscribed_sessions(self):
        db = _db()
        with serve_tcp(
            db, net_config=NetConfig(max_push_queue=2)
        ) as net:
            client = connect(*net.address)
            session = client.open_knn([0.0, 0.0], k=1)
            session.subscribe()
            # Stall the connection's writer so pushes pile up in the
            # bounded queue instead of draining into the OS buffer.
            (conn,) = net._connections
            conn.paused = True
            # Each newborn closer than the last changes the k=1 answer.
            for i in range(5):
                db.apply(
                    _newborn(f"nb{i}", 1.0 + i, 0.01 / (i + 1), 0.0)
                )
            assert net.stats.sheds >= 1
            assert net.server.stats.shed >= 1
            conn.paused = False
            # The shed notice reached the client, typed like in-process.
            events = session.changes(poll=0.5)
            assert any(e["event"] == "shed" for e in events)
            with pytest.raises(SessionShedError):
                _ = session.members

    def test_responses_survive_push_overflow(self):
        db = _db()
        with serve_tcp(
            db, net_config=NetConfig(max_push_queue=2)
        ) as net:
            client = connect(*net.address)
            victim = client.open_knn([0.0, 0.0], k=1, priority=0)
            bystander = client.open_knn([5.0, 5.0], k=1, priority=5)
            victim.subscribe()
            (conn,) = net._connections
            conn.paused = True
            for i in range(5):
                db.apply(
                    _newborn(f"nb{i}", 1.0 + i, 0.01 / (i + 1), 0.0)
                )
            conn.paused = False
            # The connection still answers requests: only the victim's
            # unsolicited stream was shed, not the wire itself.
            assert bystander.members is not None
            answer = bystander.close(at=10.0)
            assert answer.interval.hi == 10.0


class _FailingView:
    """A view whose instant read raises an engine fault."""

    def __init__(self, view) -> None:
        self._view = view

    def __getattr__(self, name):
        if name == "members":
            raise RuntimeError("view corrupted")
        return getattr(self._view, name)


class TestLostNotice:
    """A subscription whose session is shed or quarantined ends with
    exactly one typed ``lost`` frame — however the session died."""

    @staticmethod
    def _turn(db, t):
        db.apply(ChangeDirection("o1", t, Vector.of(1.0, -1.0)))

    @staticmethod
    def _lost(session):
        return [e for e in session.changes() if e["event"] == "lost"]

    def test_a_quarantine_during_the_update_tells_every_subscriber(self, caplog):
        db = _db()
        observe = Instrumentation()
        with serve_tcp(
            db, config=ServerConfig(quarantine_after=0), observe=observe
        ) as net:
            with connect(*net.address) as client:
                a = client.open_knn([0.0, 0.0], k=2)
                b = client.open_knn([0.0, 0.0], k=2)
                a.subscribe()
                b.subscribe()
                # The shared clock runs ahead; the update lands in the
                # engine's past, the group faults in ``group.apply`` and —
                # no heal budget — every tenant is quarantined before the
                # fan-out looks at it.
                a.advance_to(50.0)
                with caplog.at_level(logging.WARNING, logger="repro.net.server"):
                    self._turn(db, 1.0)
                    client.ping()
                for session in (a, b):
                    (event,) = session.changes()
                    assert event["event"] == "lost"
                    assert event["session"] == session.session_id
                    assert event["error"]["type"] == "SessionQuarantinedError"
                    assert str(session.session_id) in event["error"]["message"]
                    with pytest.raises(SessionQuarantinedError):
                        _ = session.members
                (conn,) = net._connections
                assert conn.subscriptions == {}
                lines = [
                    r.getMessage() for r in caplog.records if r.name == "repro.net.server"
                ]
                assert lines == [
                    f"subscription to session {s.session_id} lost "
                    f"(connection {conn.cid}): SessionQuarantinedError"
                    for s in (a, b)
                ]
                assert (
                    observe.snapshot()['net_events_total{event="lost"}'] == 2
                )
                # Told once: the next update has nobody left to tell.
                self._turn(db, 60.0)
                client.ping()
                assert a.changes() == b.changes() == []
                assert observe.snapshot()['net_events_total{event="lost"}'] == 2

    def test_an_op_rate_shed_tells_the_victim_only(self):
        db = _db()
        with serve_tcp(
            db, config=ServerConfig(op_rate_ceiling=1e-6, op_rate_window=1)
        ) as net:
            with connect(*net.address) as client:
                vip = client.open_knn([0.0, 0.0], k=1, priority=10)
                low = client.open_knn([0.0, 0.0], k=1, priority=1)
                vip.subscribe()
                low.subscribe()
                self._turn(db, 1.0)
                client.ping()
                (event,) = self._lost(low)
                assert event["error"]["type"] == "SessionShedError"
                assert self._lost(vip) == []
                with pytest.raises(SessionShedError):
                    _ = low.members
                assert vip.members is not None
                (conn,) = net._connections
                assert list(conn.subscriptions) == [vip.session_id]

    def test_a_fault_inside_the_fan_outs_own_read_tells_every_subscriber(self):
        db = _db()
        with serve_tcp(db, config=ServerConfig(quarantine_after=0)) as net:
            with connect(*net.address) as client:
                a = client.open_knn([0.0, 0.0], k=2)
                b = client.open_knn([0.0, 0.0], k=2)
                bystander = client.open_knn([9.0, 9.0], k=2)  # another group
                for session in (a, b, bystander):
                    session.subscribe()
                group = net.server.session(a.session_id).group
                for key, view in group._views.items():
                    group._views[key] = _FailingView(view)
                self._turn(db, 1.0)  # group.apply is fine; the read is not
                client.ping()
                for session in (a, b):
                    (event,) = self._lost(session)
                    assert event["error"]["type"] == "SessionQuarantinedError"
                assert self._lost(bystander) == []
                (conn,) = net._connections
                assert list(conn.subscriptions) == [bystander.session_id]
                self._turn(db, 2.0)
                client.ping()
                assert self._lost(a) == self._lost(b) == []

    def test_a_session_its_owner_closed_ends_silently(self):
        db = _db()
        with serve_tcp(db) as net:
            with connect(*net.address) as client:
                session = client.open_knn([0.0, 0.0], k=2)
                session.subscribe()
                # Closed behind the wire's back (in-process): the
                # subscription is still there when the next update flushes.
                net.server.session(session.session_id).close()
                self._turn(db, 1.0)
                client.ping()
                assert session.changes() == []
                (conn,) = net._connections
                assert conn.subscriptions == {}


class TestDrainUnderLoad:
    def test_updates_after_drain_raise_instead_of_vanishing(self):
        db = _db()
        net = serve_tcp(db)
        client = connect(*net.address)
        client.open_knn([0.0, 0.0], k=1)
        net.drain()
        # The frontend is still subscribed (close() detaches it); a
        # write now reaches a shut-down server and must NOT be dropped
        # silently — this is the ServerClosedError regression surface.
        with pytest.raises(ServerClosedError):
            db.apply(_newborn("late", 50.0, 1.0, 1.0))
        net.close()
        # After close() the frontend is detached: writes flow again.
        db.apply(_newborn("later", 51.0, 1.0, 1.0))

    def test_drain_with_queued_session_cancels_it(self):
        from repro.server import ServerConfig

        db = _db()
        net = serve_tcp(
            db,
            config=ServerConfig(max_sessions=1, admission_policy="queue"),
        )
        client = connect(*net.address)
        active = client.open_knn([0.0, 0.0], k=1)
        waiting = client.open_knn([1.0, 1.0], k=1)
        assert waiting.state == "queued"
        drained = net.drain()
        assert set(drained) == {active.session_id}
        assert net.server.stats.cancelled == 1
        net.close()


class TestConnectionLifecycle:
    def test_sessions_survive_their_connection(self):
        db = _db()
        with serve_tcp(db) as net:
            first = connect(*net.address)
            session = first.open_knn([0.0, 0.0], k=2)
            sid = session.session_id
            first.close()
            time.sleep(0.05)
            second = connect(*net.address)
            result = second.request("members", {"session": sid})
            assert isinstance(result["members"], list)

    def test_handshake_timeout_drops_silent_connections(self):
        db = _db()
        with serve_tcp(
            db, net_config=NetConfig(handshake_timeout=0.2)
        ) as net:
            sock = socketlib.create_connection(net.address, timeout=5.0)
            sock.settimeout(2.0)
            # say nothing: the server must hang up on its own
            assert sock.recv(1) == b""
            sock.close()
            assert net.stats.handshake_failures == 1

"""End-to-end behavior of the TCP serving frontend.

Each test spins a real :func:`~repro.core.api.serve_tcp` frontend on
an ephemeral port and drives it with :class:`~repro.net.RemoteQueryClient`
over loopback — verbs, typed errors, the handshake, push
subscriptions, EXPLAIN stages, and graceful drain.
"""

import pytest

from repro.core.api import serve, serve_tcp
from repro.geometry.vectors import Vector
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.io import answer_to_dict
from repro.mod.updates import ChangeDirection, New
from repro.net import NetConfig, ProtocolError, connect
from repro.obs import Instrumentation
from repro.server import SessionClosedError
from repro.workloads.generator import random_linear_mod
from tests.net._wire import raw_connect, recv_response, send_frame


def _db(count=8, seed=7):
    return random_linear_mod(count, seed=seed, extent=30.0, speed=3.0)


def _stir(db, times, seed=0):
    import random

    rng = random.Random(seed)
    oids = sorted(db.object_ids)
    for t in times:
        db.apply(
            ChangeDirection(
                rng.choice(oids),
                t,
                Vector.of(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            )
        )


class TestRemoteMatchesInProcess:
    def test_all_three_kinds_agree_with_local_server(self):
        db_local, db_remote = _db(), _db()
        gd = SquaredEuclideanDistance([0.0, 0.0])
        local = serve(db_local)
        sessions_local = {
            "knn": local.register_knn(gd, k=2),
            "within": local.register_within(gd, 60.0),
            "multiknn": local.register_multiknn(gd, (1, 3)),
        }
        with serve_tcp(db_remote) as net:
            client = connect(*net.address)
            sessions_remote = {
                "knn": client.open_knn([0.0, 0.0], k=2),
                # raw g-distance units, matching register_within's
                # GDistance semantics
                "within": client.open_within([0.0, 0.0], threshold=60.0),
                "multiknn": client.open_multiknn([0.0, 0.0], ks=[1, 3]),
            }
            _stir(db_local, [1.0, 2.0, 3.0])
            _stir(db_remote, [1.0, 2.0, 3.0])
            for kind in sessions_local:
                assert (
                    sessions_remote[kind].advance_to(3.5)
                    == sessions_local[kind].advance_to(3.5)
                ), kind
            for kind in sessions_local:
                a = sessions_local[kind].close(at=4.0)
                b = sessions_remote[kind].close(at=4.0)
                if kind == "multiknn":
                    assert set(a) == set(b)
                    for k in a:
                        assert answer_to_dict(a[k]) == answer_to_dict(b[k])
                else:
                    assert answer_to_dict(a) == answer_to_dict(b)
        local.shutdown()

    def test_within_distance_squares_like_point_queries(self):
        db_a, db_b = _db(), _db()
        with serve_tcp(db_a) as net:
            client = connect(*net.address)
            via_distance = client.open_within([0.0, 0.0], distance=8.0)
            local = serve(db_b)
            # the in-process GDistance path with the squared constant
            reference = local.register_within(
                SquaredEuclideanDistance([0.0, 0.0]), 64.0
            )
            assert via_distance.members == reference.members
            local.shutdown()


class TestVerbSurface:
    def test_ping_and_stats(self):
        db = _db()
        with serve_tcp(db) as net:
            client = connect(*net.address)
            assert client.ping() == db.last_update_time
            session = client.open_knn([0.0, 0.0], k=1)
            session.advance_to(1.0)
            stats = client.stats()
            assert stats["server"]["registered"] == 1
            assert stats["net"]["requests"] >= 3
            assert stats["groups"] == 1
            assert "applier" not in stats

    def test_typed_errors_cross_the_wire(self):
        db = _db()
        with serve_tcp(db) as net:
            client = connect(*net.address)
            session = client.open_knn([0.0, 0.0], k=1)
            session.close(at=1.0)
            with pytest.raises(SessionClosedError):
                session.advance_to(2.0)
            # the close-window ValueError (clip bugfix) crosses typed
            late = client.open_knn([0.0, 0.0], k=1)
            with pytest.raises(ValueError):
                late.close(at=late.start - 1.0)
            with pytest.raises(KeyError):
                client.request("members", {"session": 99999})
            with pytest.raises(ProtocolError):
                client.request("warp", {})

    def test_unknown_session_field_is_protocol_error(self):
        db = _db()
        with serve_tcp(db) as net:
            client = connect(*net.address)
            with pytest.raises(ProtocolError):
                client.request("members", {})


class TestHandshake:
    def test_version_mismatch_is_refused(self):
        db = _db()
        with serve_tcp(db) as net:
            sock, response = raw_connect(net.address, version=99)
            assert response["ok"] is False
            assert response["error"]["type"] == "VersionMismatchError"
            sock.close()
            assert net.stats.handshake_failures == 1

    def test_first_frame_must_be_hello(self):
        db = _db()
        with serve_tcp(db) as net:
            import socket as socketlib

            sock = socketlib.create_connection(net.address, timeout=5.0)
            send_frame(sock, {"id": "r1", "verb": "ping"})
            response = recv_response(sock, "r1")
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            sock.close()


class TestPushStream:
    def test_answer_changes_are_pushed_after_each_applied_update(self):
        db = _db()
        with serve_tcp(db) as net:
            client = connect(*net.address)
            session = client.open_knn([0.0, 0.0], k=2)
            baseline = session.subscribe()
            assert baseline == session.members
            # Drive membership changes: newborn objects right on the
            # query point displace the previous nearest neighbors.
            db.apply(
                New(
                    "nb1",
                    1.0,
                    position=Vector.of(0.01, 0.0),
                    velocity=Vector.of(0.0, 0.0),
                )
            )
            db.apply(
                New(
                    "nb2",
                    2.0,
                    position=Vector.of(0.0, 0.01),
                    velocity=Vector.of(0.0, 0.0),
                )
            )
            events = session.changes(poll=0.5)
            changes = [e for e in events if e["event"] == "answer_change"]
            assert changes, "no answer_change pushed"
            assert changes[-1]["members"] == {"nb1", "nb2"}
            assert changes[-1]["members"] == session.members
            # Unsubscribed sessions stop receiving pushes.
            session.unsubscribe()
            db.apply(
                New(
                    "nb3",
                    3.0,
                    position=Vector.of(0.005, 0.0),
                    velocity=Vector.of(0.0, 0.0),
                )
            )
            assert session.changes(poll=0.3) == []


class TestExplain:
    def test_remote_explain_carries_net_stages(self):
        db = _db()
        observe = Instrumentation()
        with serve_tcp(db, observe=observe) as net:
            client = connect(*net.address)
            session = client.open_multiknn([0.0, 0.0], ks=[1, 2])
            _stir(db, [1.0, 2.0])
            report = session.explain_close(at=3.0)
            names = {stage["name"] for stage in report.stages}
            assert {"net.decode", "net.dispatch", "net.encode"} <= names
            dispatch = next(
                s for s in report.stages if s["name"] == "net.dispatch"
            )
            nested = {child["name"] for child in dispatch.get("children", [])}
            assert "server.close" in nested
            text = report.text()
            assert "net.dispatch" in text and "server.close" in text
            assert report.report["kind"] == "net.multiknn"
            assert report.query_id
            # the decoded answer matches a fresh close on a twin run
            assert set(report.answer) == {1, 2}


class TestDrain:
    def test_drain_closes_sessions_and_pushes_final_answers(self):
        db_net, db_ref = _db(), _db()
        gd = SquaredEuclideanDistance([0.0, 0.0])
        net = serve_tcp(db_net)
        client = connect(*net.address)
        session = client.open_knn([0.0, 0.0], k=2)
        _stir(db_net, [1.0, 2.0])
        session.advance_to(2.5)
        drained = net.drain()
        assert set(drained) == {session.session_id}
        # reference: identical in-process run closed at the same time
        ref_server = serve(db_ref)
        ref = ref_server.register_knn(gd, k=2)
        _stir(db_ref, [1.0, 2.0])
        ref.advance_to(2.5)
        expected = ref.close()
        assert answer_to_dict(drained[session.session_id]) == answer_to_dict(
            expected
        )
        ref_server.shutdown()
        # the client received the same final answer as a drain event
        events = session.changes(poll=0.5)
        drain_events = [e for e in events if e["event"] == "drain"]
        assert len(drain_events) == 1
        assert answer_to_dict(drain_events[0]["answer"]) == answer_to_dict(
            expected
        )
        goodbye = client.events_for(None)
        assert any(e["event"] == "goodbye" for e in goodbye)
        assert net.stats.drained == 1
        net.close()

    def test_draining_server_refuses_new_connections(self):
        db = _db()
        net = serve_tcp(db)
        client = connect(*net.address)
        client.open_knn([0.0, 0.0], k=1)
        net.drain()
        import socket as socketlib

        with pytest.raises(OSError):
            probe = socketlib.create_connection(net.address, timeout=0.5)
            # Linux may accept into the backlog before the close lands;
            # a read then sees EOF, which we surface as ConnectionError.
            probe.settimeout(0.5)
            data = probe.recv(1)
            probe.close()
            if data == b"":
                raise ConnectionResetError("server closed the socket")
        net.close()


class TestNetConfigValidation:
    def test_bad_knobs_are_rejected(self):
        with pytest.raises(ValueError):
            NetConfig(max_frame=8)
        with pytest.raises(ValueError):
            NetConfig(max_push_queue=0)
        with pytest.raises(ValueError):
            NetConfig(handshake_timeout=0.0)

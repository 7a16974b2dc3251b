"""A shed is a state transition an operator pages on: one warning per
shed session, naming the session, its kind and priority, and which
controller pulled the trigger — from every path that sheds."""

import logging

from repro.core.api import serve, serve_tcp
from repro.geometry.vectors import Vector
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.mod.updates import ChangeDirection, New
from repro.net import NetConfig, connect
from repro.replication import DurableQueryServer, recover_server
from repro.server import ServerConfig
from repro.workloads.generator import random_linear_mod

SERVER_LOG = "repro.server.server"


def _db():
    return random_linear_mod(8, seed=7, extent=30.0, speed=3.0)


def _turn(db, t):
    db.apply(ChangeDirection(sorted(db.object_ids)[0], t, Vector.of(1.0, -1.0)))


def _messages(caplog):
    return [
        r.getMessage()
        for r in caplog.records
        if r.name == SERVER_LOG and r.levelno == logging.WARNING
    ]


def test_the_op_rate_controller_names_its_victim(caplog):
    db = _db()
    server = serve(db, ServerConfig(op_rate_ceiling=1e-6, op_rate_window=1))
    gd = SquaredEuclideanDistance([0.0, 0.0])
    vip = server.register_knn(gd, k=1, priority=10)
    low = server.register_within(gd, 40.0, priority=1)
    with caplog.at_level(logging.WARNING, logger=SERVER_LOG):
        _turn(db, 1.0)
    assert (low.state, vip.state) == ("shed", "active")
    assert _messages(caplog) == [
        f"session {low.session_id} (within, priority 1) "
        "shed by op-rate controller"
    ]
    server.shutdown()


def test_a_direct_shed_logs_once_and_a_repeat_logs_nothing(caplog):
    server = serve(_db())
    session = server.register_knn(SquaredEuclideanDistance([0.0, 0.0]), k=2)
    with caplog.at_level(logging.WARNING, logger=SERVER_LOG):
        server.shed(session)
        server.shed(session)  # already shed: no transition
    assert _messages(caplog) == [
        f"session {session.session_id} (knn, priority 0) shed by caller"
    ]
    assert server.stats.shed == 1
    server.shutdown()


def test_the_slow_consumer_policy_names_itself(caplog):
    db = _db()
    with serve_tcp(db, net_config=NetConfig(max_push_queue=2)) as net:
        client = connect(*net.address)
        session = client.open_knn([0.0, 0.0], k=1)
        session.subscribe()
        (conn,) = net._connections
        conn.paused = True  # pushes pile up in the bounded queue
        with caplog.at_level(logging.WARNING, logger=SERVER_LOG):
            for i in range(5):
                db.apply(
                    New(
                        f"nb{i}",
                        1.0 + i,
                        position=Vector.of(0.01 / (i + 1), 0.0),
                        velocity=Vector.of(0.0, 0.0),
                    )
                )
        conn.paused = False
        assert net.server.stats.shed == 1
    assert _messages(caplog) == [
        f"session {session.session_id} (knn, priority 0) "
        "shed by slow-consumer policy"
    ]


def test_a_replayed_shed_says_so(tmp_path, caplog):
    db = _db()
    server = DurableQueryServer(db, directory=str(tmp_path))
    session = server.register_knn([0.0, 0.0], k=1, priority=3)
    server.shed(session)
    server.journal.close()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger=SERVER_LOG):
        recovered = recover_server(str(tmp_path))
    assert _messages(caplog) == [
        f"session {session.session_id} (knn, priority 3) "
        "shed by journal replay"
    ]
    recovered.shutdown()

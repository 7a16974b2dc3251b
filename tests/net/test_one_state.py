"""The frontend mirrors nothing: sessions and replies are the server's.

:class:`~repro.net.QueryNetServer` reads the one session table and the
one reply table its :class:`~repro.server.QueryServer` owns (DESIGN §4
decision 32).  So a session registered in-process after the frontend
started is drained and served over the wire like a remote one, and a
promoted standby answers a retried request id exactly as the primary
last answered it — one retention bound, on both.  A standby's own
refusal of a session verb is no answer to remember, and a standby that
is closed unpromoted closes none of the primary's sessions.
"""

from repro.core.api import evaluate_knn, serve_tcp
from repro.geometry.vectors import Vector
from repro.mod.updates import ChangeDirection
from repro.net import QueryNetServer, RemoteQueryClient, RemoteQuerySession
from repro.replication import (
    DurableQueryServer,
    StandbyReplica,
    recover_server,
)
from repro.server.session import ACTIVE, CLOSED
from repro.workloads.generator import random_linear_mod
from tests._oracle import ANSWER_ATOL
from tests.net._wire import RawClient, raw_connect, recv_response, send_frame

POINT = [0.0, 0.0]
K = 2


def _db():
    return random_linear_mod(8, seed=11, extent=30.0, speed=3.0)


def _stir(db, times):
    oids = sorted(db.object_ids)
    for j, t in enumerate(times):
        oid = oids[j % len(oids)]
        db.apply(ChangeDirection(oid, t, Vector.of(1.5 - j, 0.5 * j - 1.0)))


def _assert_is_the_past_query(db, answer):
    window = answer.interval
    assert window.hi > window.lo
    cold = evaluate_knn(db, POINT, window, k=K)
    assert answer.approx_equals(cold, atol=ANSWER_ATOL)


def test_drain_closes_a_session_registered_in_process_after_start():
    db = _db()
    net = serve_tcp(db)
    try:
        session = net.server.register_knn(POINT, k=K)
        _stir(db, [1.0, 2.0, 3.0])
        drained = net.drain()
        assert list(drained) == [session.session_id]
        assert session.state == CLOSED
        _assert_is_the_past_query(db, drained[session.session_id])
    finally:
        net.close()


def test_a_remote_client_reads_and_closes_an_in_process_session():
    db = _db()
    net = serve_tcp(db)
    client = RemoteQueryClient(*net.address)
    try:
        session = net.server.register_knn(POINT, k=K)
        _stir(db, [1.0, 2.0])
        remote = RemoteQuerySession(
            client, session.session_id, "knn", session.state, session.start
        )
        assert remote.members == session.members
        answer = remote.close(at=2.5)
        assert remote.state == CLOSED and session.state == CLOSED
        _assert_is_the_past_query(db, answer)
    finally:
        client.close()
        net.close()


def _resend(address, request):
    """Send one frame with an explicit request id; its response."""
    sock, _ = raw_connect(address)
    try:
        send_frame(sock, request)
        return recv_response(sock, request["id"])
    finally:
        sock.close()


def test_a_promoted_standby_answers_a_retried_id_as_the_primary_did():
    db = random_linear_mod(6, seed=17, extent=20.0, speed=3.0)
    server = DurableQueryServer(db, checkpoint_interval=64)
    net = QueryNetServer(server).start(port=0)
    sb = StandbyReplica(net.address, poll_interval=1.0).start()
    raw = RawClient(net.address, tag="a")
    try:
        # 600 mutating requests with distinct ids, each journaled (its
        # ops and its reply) and acknowledged by the sync standby.
        early = {"id": "c-000001", "verb": "open", "kind": "knn"}
        early.update(query=POINT, k=K)
        opened = _resend(net.address, early)
        sid = opened["result"]["session"]
        tau = db.last_update_time
        for _ in range(599):
            raw.request("advance", session=sid, to=tau)
        assert sb.applied_seq == server.journal.seq

        seq = server.journal.seq
        assert _resend(net.address, early) == opened
        assert server.journal.seq == seq, "the primary re-executed a retry"

        net.kill()
        promoted = sb.promote()
        seq = sb.server.journal.seq
        assert _resend(promoted.address, early) == opened
        assert sb.server.journal.seq == seq, "the standby re-executed a retry"
        assert [s.session_id for s in sb.server.sessions()] == [sid]
    finally:
        raw.close()
        sb.close()
        if not net._closed:
            net.close()


def test_a_retried_integer_id_is_replayed():
    db = random_linear_mod(6, seed=17, extent=20.0, speed=3.0)
    server = DurableQueryServer(db, checkpoint_interval=64)
    net = QueryNetServer(server).start(port=0)
    try:
        request = {"id": 7, "verb": "open", "kind": "knn"}
        request.update(query=POINT, k=K)
        opened = _resend(net.address, request)
        assert opened["ok"], opened
        seq = server.journal.seq
        assert _resend(net.address, request) == opened
        assert server.journal.seq == seq, "the retry was re-executed"
        assert len(server.sessions()) == 1
    finally:
        net.close()


def test_a_standby_close_leaves_the_primary_s_sessions_as_they_are(tmp_path):
    db = random_linear_mod(6, seed=17, extent=20.0, speed=3.0)
    server = DurableQueryServer(db, checkpoint_interval=64)
    net = QueryNetServer(server).start(port=0)
    client = RemoteQueryClient(*net.address)
    before = client.open_knn(POINT, k=K)  # in the standby's bootstrap
    directory = str(tmp_path / "standby")
    sb = StandbyReplica(net.address, directory=directory, poll_interval=1.0)
    sb.start()
    try:
        after = client.open_knn(POINT, k=K)  # streamed to the standby
        sids = [before.session_id, after.session_id]
        assert sb.applied_seq == server.journal.seq
        seq = sb.server.journal.seq
        # Not promoted, the standby serves nothing of its own: closing it
        # closes no session and journals no close.
        sb.close()
        assert sb.server.journal.seq == seq
        assert [sb.server.session(sid).state for sid in sids] == [ACTIVE] * 2
        recovered = recover_server(directory)
        try:
            states = [recovered.session(sid).state for sid in sids]
            assert states == [ACTIVE] * 2
        finally:
            recovered.journal.close()
        assert [server.session(sid).state for sid in sids] == [ACTIVE] * 2
    finally:
        sb.close()
        client.close()
        net.close()


def test_a_standby_refusal_is_not_remembered_as_the_reply():
    db = random_linear_mod(6, seed=17, extent=20.0, speed=3.0)
    server = DurableQueryServer(db, checkpoint_interval=64)
    net = QueryNetServer(server).start(port=0)
    sb = StandbyReplica(net.address, poll_interval=1.0).start()
    try:
        # A client that reached the standby before its promotion resends
        # the same id once it is promoted: the refusal was no execution.
        request = {"id": "r-1", "verb": "open", "kind": "knn"}
        request.update(query=POINT, k=K)
        refused = _resend(sb.address, request)
        assert refused["error"]["type"] == "NotPrimaryError"
        net.kill()
        promoted = sb.promote()
        opened = _resend(promoted.address, request)
        assert opened["ok"], opened
        assert sb.server.session(opened["result"]["session"]).state == ACTIVE
    finally:
        sb.close()
        if not net._closed:
            net.close()

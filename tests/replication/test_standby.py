"""Warm-standby replication: streaming, resume, promotion.

Each test runs a real durable primary behind a TCP frontend and a
:class:`~repro.replication.StandbyReplica` attached over loopback.
"""

import time

import pytest

from repro.io import database_to_dict
from repro.net import (
    NetConfig,
    NotPrimaryError,
    QueryNetServer,
    RemoteQueryClient,
)
from repro.replication import DurableQueryServer, StandbyReplica
from repro.workloads.generator import UpdateStream, random_linear_mod


def _wait(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def primary():
    db = random_linear_mod(6, seed=13, extent=20.0, speed=3.0)
    server = DurableQueryServer(db, checkpoint_interval=8)
    net = QueryNetServer(
        server, NetConfig(heartbeat_interval=0.05)
    ).start(port=0)
    try:
        yield db, server, net
    finally:
        if not net._closed:
            net.close()


class TestStreaming:
    def test_acked_writes_are_already_on_the_standby(self, primary):
        db, server, net = primary
        with StandbyReplica(net.address, poll_interval=0.01).start() as sb:
            stream = UpdateStream(db, seed=13, extent=20.0, speed=3.0)
            for _ in range(10):
                stream.step()
                # Sync replication: db.apply's return IS the ack
                # barrier, so the watermark is current immediately.
                assert sb.applied_seq == server.journal.seq
            assert database_to_dict(sb.server.db) == database_to_dict(db)

    def test_standby_re_journals_in_seq_lockstep(self, primary):
        db, server, net = primary
        with StandbyReplica(net.address, poll_interval=0.01).start() as sb:
            stream = UpdateStream(db, seed=13, extent=20.0, speed=3.0)
            for _ in range(6):
                stream.step()
            assert sb.server.journal.seq == server.journal.seq

    def test_sessions_replicate_with_their_answers(self, primary):
        db, server, net = primary
        client = RemoteQueryClient(*net.address)
        with StandbyReplica(net.address, poll_interval=0.01).start() as sb:
            session = client.open_knn([0.0, 0.0], k=2)
            stream = UpdateStream(db, seed=13, extent=20.0, speed=3.0)
            for _ in range(6):
                stream.step()
            final = session.close(at=db.last_update_time)
            mirror = sb.server.session(session.session_id)
            assert mirror.state == "closed"
            assert final.approx_equals(mirror.answer, atol=1e-6)
        client.close()


class TestStandbyGate:
    def test_session_verbs_are_refused_until_promotion(self, primary):
        db, server, net = primary
        with StandbyReplica(net.address, poll_interval=0.01).start() as sb:
            client = RemoteQueryClient(*sb.address, retries=0)
            assert client.ping() == pytest.approx(db.last_update_time)
            with pytest.raises(NotPrimaryError):
                client.open_knn([0.0, 0.0], k=1)
            client.close()


class TestLinkLoss:
    def test_cut_link_resumes_from_watermark(self, primary):
        db, server, net = primary
        with StandbyReplica(net.address, poll_interval=0.01).start() as sb:
            stream = UpdateStream(db, seed=13, extent=20.0, speed=3.0)
            for _ in range(4):
                stream.step()
            assert sb.cut_link()
            for _ in range(4):
                stream.step()
            assert _wait(lambda: sb.applied_seq == server.journal.seq)
            assert sb.resync_count == 0, "resume should not need a snapshot"
            assert not sb.primary_lost and not sb.detached
            assert database_to_dict(sb.server.db) == database_to_dict(db)

    def test_retain_floor_follows_the_slowest_replica(self, primary):
        db, server, net = primary
        with StandbyReplica(net.address, poll_interval=0.01).start() as sb:
            stream = UpdateStream(db, seed=13, extent=20.0, speed=3.0)
            for _ in range(20):
                stream.step()
            # Checkpoints ran (interval 8), yet the suffix past the
            # standby's ack watermark is still resumable.
            assert server.journal.records_since(sb.applied_seq) == []


class TestPrimaryLoss:
    def test_graceful_drain_marks_primary_lost_without_promoting(
        self, primary
    ):
        db, server, net = primary
        with StandbyReplica(net.address, poll_interval=0.01).start() as sb:
            net.close()
            assert _wait(lambda: sb.primary_lost)
            assert not sb.is_promoted

    def test_kill_with_auto_promote_flips_the_standby(self, primary):
        db, server, net = primary
        sb = StandbyReplica(
            net.address, poll_interval=0.01, auto_promote=True
        ).start()
        try:
            stream = UpdateStream(db, seed=13, extent=20.0, speed=3.0)
            for _ in range(4):
                stream.step()
            net.kill()
            assert _wait(lambda: sb.is_promoted)
            assert sb.primary_lost
            # The promoted frontend accepts session verbs now.
            client = RemoteQueryClient(*sb.address)
            session = client.open_knn([0.0, 0.0], k=1)
            session.close(at=sb.server.db.last_update_time)
            client.close()
        finally:
            sb.close()

    def test_explicit_promote_adopts_replicated_sessions(self, primary):
        db, server, net = primary
        sb = StandbyReplica(net.address, poll_interval=0.01).start()
        client = RemoteQueryClient(
            endpoints=[net.address, sb.address], retries=5, backoff=0.02
        )
        try:
            session = client.open_knn([0.0, 0.0], k=2)
            stream = UpdateStream(db, seed=13, extent=20.0, speed=3.0)
            for _ in range(5):
                stream.step()
            net.kill()
            assert _wait(lambda: sb.primary_lost)
            sb.promote()
            assert sb.is_promoted
            # The same session id, closed through the promoted replica.
            final = session.close(at=sb.server.db.last_update_time)
            assert client.failovers >= 1
            assert final is not None
        finally:
            client.close()
            sb.close()


class TestDrainAfterStandbyLeft:
    def test_close_does_not_wait_out_the_reconnect_grace(self):
        """A draining primary waits for attached replicas' acks, not
        for a departed one to re-attach: its listener is closed, so the
        reconnect grace (one ``repl_ack_timeout``) has nothing left to
        wait for."""
        db = random_linear_mod(6, seed=13, extent=20.0, speed=3.0)
        server = DurableQueryServer(db, checkpoint_interval=8)
        net = QueryNetServer(
            server, NetConfig(heartbeat_interval=0.05, repl_ack_timeout=5.0)
        ).start(port=0)
        try:
            with StandbyReplica(net.address, poll_interval=0.01).start() as sb:
                stream = UpdateStream(db, seed=13, extent=20.0, speed=3.0)
                for _ in range(3):
                    stream.step()
                assert sb.applied_seq == server.journal.seq
            # The standby closed: the reconnect grace is armed.
            assert _wait(lambda: not server.feed.replicas())
            started = time.monotonic()
            net.close()
            assert time.monotonic() - started < 1.0
        finally:
            if not net._closed:
                net.close()

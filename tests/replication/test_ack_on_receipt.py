"""The sync-replication barrier is a wake-up, not a sleep.

The standby's pump blocks on the replication link and acks each batch
the moment it lands, so ``poll_interval`` is only the idle period at
which the pump re-checks its stop flag: update latency must not depend
on it, and stopping an idle standby must not take longer than it.
"""

import time

import pytest

from repro.io import database_to_dict
from repro.net import NetConfig, QueryNetServer, RemoteQueryClient
from repro.replication import DurableQueryServer, StandbyReplica
from repro.workloads.generator import UpdateStream, random_linear_mod

SLACK = 1.0


@pytest.fixture
def primary():
    # No heartbeats: nothing but journal records may wake the pump.
    db = random_linear_mod(6, seed=17, extent=20.0, speed=3.0)
    server = DurableQueryServer(db, checkpoint_interval=8)
    net = QueryNetServer(server, NetConfig()).start(port=0)
    try:
        yield db, server, net
    finally:
        if not net._closed:
            net.close()


def test_update_latency_does_not_depend_on_poll_interval(primary):
    db, server, net = primary
    with StandbyReplica(net.address, poll_interval=1.0).start() as sb:
        stream = UpdateStream(db, seed=17, extent=20.0, speed=3.0)
        began = time.monotonic()
        for _ in range(20):
            stream.step()
            assert sb.applied_seq == server.journal.seq
        assert time.monotonic() - began < 2.0, (
            "20 sync-replicated updates took a poll interval each"
        )
        assert database_to_dict(sb.server.db) == database_to_dict(db)


def test_requests_ack_on_receipt_too(primary):
    db, server, net = primary
    client = RemoteQueryClient(*net.address)
    with StandbyReplica(net.address, poll_interval=1.0).start() as sb:
        began = time.monotonic()
        sessions = [client.open_knn([0.0, 0.0], k=2) for _ in range(5)]
        for session in sessions:
            session.close(at=db.last_update_time)
        assert time.monotonic() - began < 2.0
        assert sb.applied_seq == server.journal.seq
        for session in sessions:
            assert sb.server.session(session.session_id).state == "closed"
    client.close()


@pytest.mark.parametrize("stop", ["close", "promote", "kill"])
def test_stopping_an_idle_standby_is_noticed_within_poll_interval(primary, stop):
    db, server, net = primary
    poll_interval = 0.5
    sb = StandbyReplica(net.address, poll_interval=poll_interval).start()
    try:
        time.sleep(0.1)  # the pump is parked in its idle wait
        began = time.monotonic()
        getattr(sb, stop)()
        assert time.monotonic() - began < poll_interval + SLACK
        sb._pump.join(timeout=poll_interval + SLACK)
        assert not sb._pump.is_alive(), "the pump must see the stop flag"
    finally:
        sb.close()


def test_no_acked_write_is_lost_across_a_primary_kill(primary):
    db, server, net = primary
    sb = StandbyReplica(net.address, poll_interval=1.0).start()
    client = RemoteQueryClient(
        endpoints=[net.address, sb.address], retries=5, backoff=0.02
    )
    try:
        session = client.open_within([0.0, 0.0], distance=15.0)
        stream = UpdateStream(db, seed=17, extent=20.0, speed=3.0)
        for _ in range(12):
            stream.step()  # returns = acked by the standby
        acked = database_to_dict(db)
        seq = server.journal.seq
        net.kill()
        sb.promote()
        assert sb.applied_seq == seq
        assert database_to_dict(sb.server.db) == acked
        final = session.close(at=sb.server.db.last_update_time)
        assert client.failovers >= 1
        assert final is not None
    finally:
        client.close()
        sb.close()

"""A replica's frame leaves before the pushes of the same update.

An update that moves subscribed answers queues one push per subscriber
connection and one ``repl.append`` per replica, and then waits in the
ack barrier — on the replicas alone.  The loop writes the queued
connections at the end of its turn; it must hand the replica links
their frames first, so the barrier's wait does not also pay for every
subscriber's write.
"""

import time

import pytest

from repro.geometry.vectors import Vector
from repro.mod.updates import New
from repro.net import NetConfig, QueryNetServer
from repro.replication import DurableQueryServer, StandbyReplica
from repro.workloads.generator import random_linear_mod
from tests.net._wire import RawClient

SUBSCRIBERS = 8


@pytest.fixture
def primary():
    db = random_linear_mod(8, seed=7, extent=30.0, speed=3.0)
    server = DurableQueryServer(db, checkpoint_interval=None)
    net = QueryNetServer(server, NetConfig()).start(port=0)
    try:
        yield db, server, net
    finally:
        if not net._closed:
            net.close()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def test_the_replica_link_is_flushed_before_the_subscribers(primary, monkeypatch):
    db, server, net = primary
    clients = [RawClient(net.address, tag=f"c{i}") for i in range(SUBSCRIBERS)]
    for client in clients:
        sid = client.request("open", kind="knn", query=[0.0, 0.0], k=1)["session"]
        client.request("subscribe", session=sid)
    subscribers = set(net._connections)
    with StandbyReplica(net.address, poll_interval=1.0).start() as sb:
        _wait_for(lambda: len(server.feed.replicas()) == 1)
        _wait_for(lambda: sb.applied_seq == server.journal.seq)
        (replica,) = server.feed.replicas()
        flushed = []
        flush = net._flush

        def spy(conn):
            flushed.append(conn)
            flush(conn)

        monkeypatch.setattr(net, "_flush", spy)
        # A newborn at the origin: every knn-1 answer changes.
        db.apply(New("nb", db.last_update_time + 1.0,
                     position=Vector.of(0.0, 0.0), velocity=Vector.of(0.0, 0.0)))
        assert sb.applied_seq == server.journal.seq  # the barrier held
        _wait_for(lambda: subscribers <= set(flushed))
        monkeypatch.undo()
        order = [c for c in flushed if c is replica or c in subscribers]
        assert order[0] is replica, [c.cid for c in order]
        for client in clients:  # every subscriber got the push
            client.request("ping")
            assert [e["event"] for e in client.events] == ["answer_change"]
    for client in clients:
        client.close()

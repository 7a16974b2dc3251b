"""A departed replica's reconnect grace protects its resume point.

The replica feed derives the retention floor from its one table: a link
that departed keeps its acknowledged seq in the floor until its own
grace deadline, whether or not other replicas stay attached.  With a
single replica the ack barrier holds every write through the grace, so
nothing is trimmed anyway; the case that matters has a second replica
acknowledging the writes while the first is away.
"""

import threading
import time

from repro.net import NetConfig, QueryNetServer, RemoteQueryClient
from repro.replication import (
    DurableQueryServer,
    ReplicaFeed,
    ServerWal,
    StandbyReplica,
)
from repro.workloads.generator import UpdateStream, random_linear_mod


def test_a_replica_back_inside_its_grace_resumes_from_records_beside_another():
    db = random_linear_mod(6, seed=13, extent=20.0, speed=3.0)
    server = DurableQueryServer(db, checkpoint_interval=4)
    net = QueryNetServer(server, NetConfig(repl_ack_timeout=3.0)).start(port=0)
    stream = UpdateStream(db, seed=13, extent=20.0, speed=3.0)
    try:
        with StandbyReplica(net.address, poll_interval=0.01).start() as held:
            for _ in range(3):
                stream.step()
            away = RemoteQueryClient(*net.address, retries=0)
            reply = away.request("repl.subscribe", {"from": 0})
            assert reply["mode"] == "snapshot" and reply["seq"] == 3
            away.request("repl.ack", {"seq": 3})
            away.close()
            # The other replica holds every write; checkpoints run.
            for _ in range(12):
                stream.step()
            assert held.applied_seq == server.journal.seq == 15
            assert server.journal.snapshot_seq == 12
            back = RemoteQueryClient(*net.address, retries=0)
            try:
                reply = back.request("repl.subscribe", {"from": 3})
                assert reply["mode"] == "records"
                assert [r["seq"] for r in reply["records"]] == list(range(4, 16))
                back.request("repl.ack", {"seq": 15})
            finally:
                back.close()
    finally:
        net.close()


def test_a_departed_link_pins_the_floor_until_its_own_deadline():
    journal = ServerWal(None)
    for i in range(6):
        journal.append("update", i=i)
    feed = ReplicaFeed(journal, threading.RLock(), snapshot=None)
    feed.attach("away", 2)
    feed.attach("held", 5)
    feed.depart("away", grace=0.2)
    assert feed.replicas() == ["held"]
    assert feed.floor(6) == 2
    journal.write_snapshot({"seq": 6})
    assert [r["seq"] for r in journal.records_since(2)] == [3, 4, 5, 6]
    time.sleep(0.3)
    assert feed.floor(6) == 5
    journal.write_snapshot({"seq": 6})
    assert journal.records_since(2) is None
    assert [r["seq"] for r in journal.records_since(5)] == [6]

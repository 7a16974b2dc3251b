"""A replica holds only what the primary streamed to it.

The sync barrier trusts a replica's acknowledged sequence, so the
primary must not take a replica's word for records it never sent: a
resume ``from`` past the journal is a lost suffix (answered with a
snapshot, as when retention moved on), and an ack past what the link
streamed is a protocol error that is not counted.
"""

import pytest

from repro.net import NetConfig, QueryNetServer, RemoteQueryClient
from repro.net.errors import ProtocolError
from repro.replication import DurableQueryServer
from repro.workloads.generator import UpdateStream, random_linear_mod


@pytest.fixture
def primary():
    """A durable primary at journal seq 2, a bare replication link and
    a second connection that reads the primary's stats."""
    db = random_linear_mod(6, seed=23, extent=20.0, speed=3.0)
    server = DurableQueryServer(db, checkpoint_interval=8)
    net = QueryNetServer(server, NetConfig(repl_ack_timeout=0.2)).start(port=0)
    stream = UpdateStream(db, seed=23, extent=20.0, speed=3.0)
    stream.step()
    stream.step()
    assert server.journal.seq == 2
    link = RemoteQueryClient(*net.address, retries=0)
    observer = RemoteQueryClient(*net.address)
    try:
        yield server, net, link, lambda: observer.stats()["replication"], stream
    finally:
        link.close()
        observer.close()
        net.close()


def test_a_resume_from_beyond_the_journal_is_a_lost_suffix(primary):
    server, net, link, replication, stream = primary
    result = link.request("repl.subscribe", {"from": 7})
    assert result["mode"] == "snapshot"
    assert result["seq"] == 2
    state = replication()
    assert state["min_acked"] == 2
    assert state["lag"] == 0


def test_a_resume_from_the_journal_head_is_an_empty_suffix(primary):
    server, net, link, replication, stream = primary
    result = link.request("repl.subscribe", {"from": 2})
    assert result["mode"] == "records" and result["records"] == []
    assert replication()["lag"] == 0


def test_an_ack_beyond_what_was_streamed_is_refused_and_not_counted(primary):
    server, net, link, replication, stream = primary
    assert link.request("repl.subscribe", {"from": 2})["mode"] == "records"
    with pytest.raises(ProtocolError, match="beyond"):
        link.request("repl.ack", {"seq": 102})
    state = replication()
    assert state["min_acked"] == 2
    assert state["lag"] == 0
    # The next write is not covered by the refused claim: the link never
    # acks it, so the barrier drops it at the ack timeout.
    stream.step()
    assert replication()["replicas"] == 0


def test_an_ack_of_what_was_streamed_is_counted(primary):
    server, net, link, replication, stream = primary
    link.request("repl.subscribe", {"from": 1})
    assert link.request("repl.ack", {"seq": 2})["acked"] == 2
    assert replication()["min_acked"] == 2

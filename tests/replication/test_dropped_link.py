"""A connection the primary has marked closing dispatches nothing more.

A standby dropped for an ack timeout is told ``repl.dropped`` and its
link closes.  Its pump resubscribes at once, on whatever link it still
holds; that request must not run on the dropped link (the feed would
attach it, the link's close would depart it again and re-arm the
reconnect grace, and the response would go nowhere).  It runs on the
fresh connection the standby's client reconnects with.
"""

import time

from repro.net import NetConfig, QueryNetServer
from repro.net import server as net_server
from repro.replication import DurableQueryServer, StandbyReplica
from repro.workloads.generator import UpdateStream, random_linear_mod


def test_a_dropped_replica_resubscribes_only_on_a_fresh_connection(monkeypatch):
    calls = []
    entry = net_server._VERBS["repl.subscribe"]

    def spy(net, conn, request):
        calls.append((conn.cid, conn.closing))
        return entry.handler(net, conn, request)

    monkeypatch.setitem(
        net_server._VERBS, "repl.subscribe", entry._replace(handler=spy)
    )
    db = random_linear_mod(6, seed=19, extent=20.0, speed=3.0)
    server = DurableQueryServer(db, checkpoint_interval=8)
    net = QueryNetServer(server, NetConfig(repl_ack_timeout=0.3)).start(port=0)
    sb = StandbyReplica(net.address, poll_interval=0.05).start()
    stream = UpdateStream(db, seed=19, extent=20.0, speed=3.0)
    try:
        stream.step()
        # Wedged for one update: the standby receives it but never acks,
        # so the barrier drops its link at the ack timeout.
        sb._apply_records = lambda records: False
        stream.step()
        del sb._apply_records
        deadline = time.monotonic() + 5.0
        while len(net.server.feed.replicas()) < 1 or len(calls) < 2:
            assert time.monotonic() < deadline, f"never re-attached: {calls}"
            time.sleep(0.01)
        stream.step()  # acknowledged through the fresh link
        assert sb.applied_seq == server.journal.seq
    finally:
        sb.kill()
        net.close()
    assert calls == [(1, False), (2, False)]

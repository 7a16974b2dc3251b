"""The write path: frames reach the socket without a writer task.

A frame is queued in order and handed to its transport by the loop as
soon as the loop holds no lock — right after the locked section that
queued it, or in the one callback an update schedules.  So:

- a paused connection is signalled, not polled: nothing on the loop
  wakes up to look at it until it is unpaused, and then its queue goes
  out at once;
- a connection's frames stay FIFO across the two write paths: a
  response queued on the loop never overtakes a push an update queued
  on the applying thread before it.
"""

import sys
import threading
import time

from repro.core.api import serve_tcp
from repro.geometry.vectors import Vector
from repro.mod.updates import New
from repro.net import NetConfig
from repro.net.protocol import members_to_wire
from repro.workloads.generator import random_linear_mod
from tests.net._wire import RawClient, recv_frame
from tests.net.test_push_fanout import serve_crossing


def _db():
    return random_linear_mod(8, seed=7, extent=30.0, speed=3.0)


def _closer(i):
    """The i-th newborn, each closer to the origin than the last: every
    one changes a knn-1 answer at the origin."""
    return New(
        f"nb{i}",
        1.0 + i,
        position=Vector.of(0.01 / (i + 1), 0.0),
        velocity=Vector.of(0.0, 0.0),
    )


def _watching(net):
    """A raw client subscribed to one knn-1 session at the origin, and
    the server side of its connection."""
    client = RawClient(net.address)
    sid = client.request("open", kind="knn", query=[0.0, 0.0], k=1)["session"]
    client.request("subscribe", session=sid)
    (conn,) = net._connections
    return client, conn


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def test_a_paused_connection_is_not_polled(monkeypatch):
    with serve_tcp(_db()) as net:
        client, conn = _watching(net)
        try:
            time.sleep(0.05)  # the loop is idle in its select
            timers = net._timers
            turns = []

            def counted():  # once per loop turn
                turns.append(time.monotonic())
                return timers()

            monkeypatch.setattr(net, "_timers", counted)
            conn.paused = True
            net.server.db.apply(_closer(0))
            assert len(conn.queue) == 1  # the push waits in the queue
            time.sleep(0.2)
            polls = len(turns)
            conn.paused = False
            client.sock.settimeout(0.5)
            frame = recv_frame(client.sock)  # within 0.5 s of the unpause
            assert frame["event"] == "answer_change"
            assert polls == 1  # the update's one wake-up, then no poll
        finally:
            client.close()


def test_a_response_never_overtakes_a_push_queued_before_it():
    with serve_tcp(_db()) as net:
        client, conn = _watching(net)
        try:
            conn.paused = True
            for i in range(5):
                net.server.db.apply(_closer(i))
            assert len(conn.queue) == 5
            pinged = []
            helper = threading.Thread(
                target=lambda: pinged.append(client.request("ping"))
            )
            helper.start()
            _wait_for(lambda: len(conn.queue) == 6)  # the pong, queued last
            conn.paused = False
            helper.join(5.0)
            assert pinged and pinged[0]["pong"]
            # RawClient keeps what it read before the response.
            assert [e["event"] for e in client.events] == ["answer_change"] * 5
            assert [e["time"] for e in client.events] == [1.0, 2.0, 3.0, 4.0, 5.0]
        finally:
            client.close()


def test_every_push_of_an_update_arrives_before_the_next_pong():
    base_db, stream, opens, subscribed = serve_crossing()
    db = base_db()
    with serve_tcp(db) as net:
        client = RawClient(net.address)
        try:
            for request, subscribe in zip(opens, subscribed):
                sid = client.request("open", **request)["session"]
                if subscribe:
                    client.request("subscribe", session=sid)
            for update in stream[:200]:
                db.apply(update)
                client.request("ping")
                assert len(client.events) == net.stats.pushes
            assert net.stats.pushes > 20
        finally:
            client.close()


def test_no_frame_is_lost_or_reordered_under_three_threads():
    """A writer thread applies updates, the client pings on its own
    thread and a third thread pauses and unpauses the connection, with
    thread switches forced often: every push still arrives, in update
    order per session, and each session's last push is its answer."""
    base_db, stream, opens, _ = serve_crossing()
    db = base_db()
    config = NetConfig(max_push_queue=100_000)  # never shed here
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with serve_tcp(db, net_config=config) as net:
            client = RawClient(net.address)
            try:
                sids = [client.request("open", **r)["session"] for r in opens]
                for sid in sids:
                    client.request("subscribe", session=sid)
                (conn,) = net._connections
                done = threading.Event()

                def write():
                    for update in stream:
                        db.apply(update)
                    done.set()

                def ping():
                    while not done.is_set():
                        client.request("ping")

                def toggle():
                    while not done.is_set():
                        conn.paused = True
                        time.sleep(0.0005)
                        conn.paused = False
                        time.sleep(0.0005)

                threads = [threading.Thread(target=f) for f in (write, ping, toggle)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert not any(thread.is_alive() for thread in threads)
                conn.paused = False
                client.request("ping")
                pushes = [e for e in client.events if e["event"] == "answer_change"]
                assert len(pushes) == net.stats.pushes > 20
                for sid in sids:
                    mine = [e for e in pushes if e["session"] == sid]
                    times = [e["time"] for e in mine]
                    assert times == sorted(set(times))
                    with db.lock:
                        answer = members_to_wire(net.server.session(sid).members)
                    assert mine[-1]["members"] == answer
            finally:
                client.close()
    finally:
        sys.setswitchinterval(interval)


def test_drain_delivers_its_notices_to_a_paused_connection():
    """A closing connection hands over all it queued, paused or not."""
    db = _db()
    net = serve_tcp(db)
    try:
        client, conn = _watching(net)
        conn.paused = True
        net.drain()
        client.sock.settimeout(5.0)
        events = [recv_frame(client.sock)["event"] for _ in range(2)]
        assert events == ["drain", "goodbye"]
        client.close()
    finally:
        net.close()

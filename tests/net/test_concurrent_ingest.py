"""One writer and two clients at once, over one serving lock.

A writer thread applies a crossing-rich update stream (news, terminates
and chdirs) while two client threads open, subscribe to, read and close
sessions over TCP at the same time — each open at a fresh point, so
each builds a new engine group mid-stream — against ``serve_tcp`` and
against a durable server with a synchronous standby.  The MOD's lock
is held across each update and its fan-out, and the frontend takes it
around every verb, so:

- no group is ever built from a half-applied update (a group that
  missed half of a ``terminate`` faults on that object's next update
  and heals): ``server_heal_total`` stays 0;
- every close equals the cold one-shot query over the same window on
  the final MOD (the MOD keeps every trajectory's history, Theorem 4);
- nothing times out: no thread waits for another while holding the
  lock (a deadlock would surface as a client or writer timeout).
"""

import threading
import time

from repro.core.api import evaluate_knn, evaluate_within, serve_tcp
from repro.net import QueryNetServer, RemoteQueryClient
from repro.obs import Instrumentation
from repro.replication import DurableQueryServer, StandbyReplica
from repro.workloads.generator import UpdateStream, crossing_rich_mod

from tests._oracle import ANSWER_ATOL

OBJECTS = 60
UPDATES = 400
JOIN_TIMEOUT = 60.0
PACE = 0.002  # seconds between two updates: the clients get turns


def _db():
    return crossing_rich_mod(OBJECTS, seed=3)


def _stream():
    return UpdateStream(
        _db(), seed=5, mean_gap=0.05, weights=(0.2, 0.2, 0.6)
    ).run(UPDATES)


def _point(client, i):
    """A fresh query point per open (so every open builds a group)."""
    return [10.0 + ((client * 0.37 + i * 0.61) % 1.0) * OBJECTS, 0.5 + client]


def _client_loop(address, client_index, writing, closes, errors):
    client = RemoteQueryClient(*address, timeout=10.0)
    try:
        i = 0
        while writing.is_set():
            point = _point(client_index, i)
            if i % 2:
                session = client.open_within(point, distance=4.0)
                spec = ("within", point, 16.0)
            else:
                session = client.open_knn(point, k=2)
                spec = ("knn", point, 2)
            session.subscribe()
            for _ in range(3):
                session.members
            session.changes()
            closes.append((spec, session.close()))
            i += 1
    except Exception as exc:  # reported by the test, never swallowed
        errors.append(exc)
    finally:
        client.close()


def _drive(db, address):
    """Apply the stream on a writer thread while two clients churn
    sessions; returns (closes, errors) once every thread is done."""
    updates = _stream()
    writing = threading.Event()
    writing.set()
    closes, errors = [], []

    def write():
        try:
            for update in updates:
                db.apply(update)
                time.sleep(PACE)
        except Exception as exc:
            errors.append(exc)
        finally:
            writing.clear()

    threads = [threading.Thread(target=write, name="writer")] + [
        threading.Thread(
            target=_client_loop,
            args=(address, j, writing, closes, errors),
            name=f"client-{j}",
        )
        for j in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT)
    hung = [thread.name for thread in threads if thread.is_alive()]
    writing.clear()
    assert not hung, f"threads still running (a deadlock?): {hung}"
    return closes, errors


def _assert_served_right(db, closes, errors, observe):
    assert errors == []
    heals = {
        name: value
        for name, value in observe.metrics.snapshot().items()
        if name.startswith("server_heal_total") and value
    }
    assert heals == {}, f"a group healed: {heals}"
    compared = 0
    for (kind, point, param), answer in closes:
        window = answer.interval
        if window.hi <= window.lo:
            continue  # opened and closed between two updates
        if kind == "knn":
            cold = evaluate_knn(db, point, window, k=param)
        else:
            cold = evaluate_within(db, point, window, 4.0)
        assert answer.approx_equals(cold, atol=ANSWER_ATOL), (kind, point)
        compared += 1
    assert compared >= 20, f"only {compared} sessions spanned an update"


def test_serve_tcp_under_a_concurrent_writer():
    db = _db()
    observe = Instrumentation()
    with serve_tcp(db, observe=observe) as net:
        closes, errors = _drive(db, net.address)
    _assert_served_right(db, closes, errors, observe)


def test_durable_sync_standby_under_a_concurrent_writer(tmp_path):
    db = _db()
    observe = Instrumentation()
    server = DurableQueryServer(
        db, directory=str(tmp_path / "primary"), observe=observe
    )
    net = QueryNetServer(server).start(port=0)
    standby = StandbyReplica(
        net.address, directory=str(tmp_path / "standby"), poll_interval=0.01
    ).start()
    try:
        closes, errors = _drive(db, net.address)
        assert standby.applied_seq == server.journal.seq
    finally:
        standby.close()
        net.close()
        server.journal.close()
    _assert_served_right(db, closes, errors, observe)


"""The replication state transitions an operator would page on are
visible: an ack-latency histogram, a degrade counter, and one log line
each for replica drop, barrier degrade and promotion.

The ack barrier has two callers, and each barrier check runs through
both (``via``): the plain test is ``db.apply`` waiting on the applying
thread (``UPDATE``), its ``_through_a_verb`` twin a journaled request
whose response waits on one of the loop's executor workers."""

import logging
import sys
import threading
import time

import pytest

from repro.net import NetConfig, QueryNetServer, RemoteQueryClient
from repro.obs import Instrumentation
from repro.replication import DurableQueryServer, StandbyReplica
from repro.workloads.generator import UpdateStream, random_linear_mod

NET_LOG = "repro.net.server"


class _AdvanceStream:
    """``step()`` as a journaled verb: one ``advance`` on a remote
    session opened before any replica attached."""

    def __init__(self, db, net) -> None:
        self.client = RemoteQueryClient(*net.address)
        self._session = self.client.open_knn([0.0, 0.0], k=2)
        self._t = db.last_update_time

    def step(self) -> None:
        self._t += 0.25
        self._session.advance_to(self._t)


UPDATE = ("update", None)


@pytest.fixture
def verb():
    """The verb caller, and the client links to close after."""
    links = []
    yield "verb", links
    for link in links:
        link.close()


def _primary(obs, via=UPDATE, **net_kwargs):
    db = random_linear_mod(6, seed=19, extent=20.0, speed=3.0)
    server = DurableQueryServer(db, checkpoint_interval=8, observe=obs)
    net = QueryNetServer(server, NetConfig(**net_kwargs)).start(port=0)
    kind, links = via
    if kind == "verb":
        stream = _AdvanceStream(db, net)
        links.append(stream.client)
        return db, net, stream
    return db, net, UpdateStream(db, seed=19, extent=20.0, speed=3.0)


def _messages(caplog):
    return [r.getMessage() for r in caplog.records if r.name == NET_LOG]


def _ack_latency_is_observed_per_barrier_that_waited_on_a_replica(via):
    obs = Instrumentation()
    db, net, stream = _primary(obs, via)
    try:
        stream.step()  # no replica yet: nothing to time
        assert obs.snapshot().get("repl_ack_seconds_count", 0) == 0
        with StandbyReplica(net.address, poll_interval=1.0).start():
            for _ in range(5):
                stream.step()
        snapshot = obs.snapshot()
        assert snapshot["repl_ack_seconds_count"] == 5
        # Ack on receipt: five barriers cost far less than one poll.
        assert snapshot["repl_ack_seconds_sum"] < 1.0
        assert snapshot["repl_barrier_degraded_total"] == 0
    finally:
        net.close()


def test_ack_latency_is_observed_per_barrier_that_waited_on_a_replica():
    _ack_latency_is_observed_per_barrier_that_waited_on_a_replica(UPDATE)


def test_ack_latency_is_observed_per_barrier_that_waited_on_a_replica_through_a_verb(verb):
    _ack_latency_is_observed_per_barrier_that_waited_on_a_replica(verb)


def _barrier_degrade_is_counted_and_logged_once_per_departure(caplog, via):
    obs = Instrumentation()
    db, net, stream = _primary(obs, via, repl_ack_timeout=0.2)
    try:
        stream.step()  # never had a replica: not a degrade
        assert obs.snapshot()["repl_barrier_degraded_total"] == 0
        sb = StandbyReplica(net.address, poll_interval=0.05).start()
        stream.step()
        sb.kill()
        with caplog.at_level(logging.WARNING, logger=NET_LOG):
            began = time.monotonic()
            stream.step()  # holds through the reconnect grace, then degrades
            assert time.monotonic() - began < 2.0
            stream.step()  # async from here on: reported once
        assert obs.snapshot()["repl_barrier_degraded_total"] == 1
        degraded = [m for m in _messages(caplog) if "degraded to async" in m]
        assert len(degraded) == 1
    finally:
        net.close()


def test_barrier_degrade_is_counted_and_logged_once_per_departure(caplog):
    _barrier_degrade_is_counted_and_logged_once_per_departure(caplog, UPDATE)


def test_barrier_degrade_is_counted_and_logged_once_per_departure_through_a_verb(caplog, verb):
    _barrier_degrade_is_counted_and_logged_once_per_departure(caplog, verb)


def _an_ack_timeout_drop_is_logged(caplog, via):
    obs = Instrumentation()
    db, net, stream = _primary(obs, via, repl_ack_timeout=0.2)
    sb = StandbyReplica(net.address, poll_interval=0.05).start()
    try:
        stream.step()
        # Wedge the standby's apply path: it receives but never acks.
        sb._apply_records = lambda records: time.sleep(1.0)
        with caplog.at_level(logging.WARNING, logger=NET_LOG):
            stream.step()
        dropped = [m for m in _messages(caplog) if "replica dropped" in m]
        assert len(dropped) == 1 and "ack timeout" in dropped[0]
    finally:
        sb.kill()
        net.close()


def test_an_ack_timeout_drop_is_logged(caplog):
    _an_ack_timeout_drop_is_logged(caplog, UPDATE)


def test_an_ack_timeout_drop_is_logged_through_a_verb(caplog, verb):
    _an_ack_timeout_drop_is_logged(caplog, verb)


def _wedge(sb, received=None):
    """The standby receives journal records but never applies or acks
    them; ``received`` is set at the first batch."""

    def apply_nothing(records):
        if received is not None:
            received.set()
        return False

    sb._apply_records = apply_nothing


def _a_write_whose_replica_leaves_mid_barrier_holds_through_the_grace(
    caplog, via
):
    """The replica's link closes 0.15 s into the barrier: the reconnect
    grace it arms ends at 0.65 s, after the barrier's own 0.5 s deadline.
    The write holds through the grace (a primary kill inside it must not
    lose a write no standby saw), then counts its degrade."""
    timeout = 0.5
    obs = Instrumentation()
    db, net, stream = _primary(obs, via, repl_ack_timeout=timeout)
    sb = StandbyReplica(net.address, poll_interval=0.05).start()
    cut = threading.Timer(0.15, sb.kill)
    try:
        stream.step()
        _wedge(sb)
        with caplog.at_level(logging.WARNING, logger=NET_LOG):
            began = time.monotonic()
            cut.start()
            stream.step()
            elapsed = time.monotonic() - began
        assert 0.15 + timeout - 0.05 <= elapsed < 3 * timeout
        assert obs.snapshot()["repl_barrier_degraded_total"] == 1
        degraded = [m for m in _messages(caplog) if "degraded to async" in m]
        assert len(degraded) == 1
    finally:
        cut.cancel()
        sb.kill()
        net.close()


def test_a_write_whose_replica_leaves_mid_barrier_holds_through_the_grace(caplog):
    _a_write_whose_replica_leaves_mid_barrier_holds_through_the_grace(caplog, UPDATE)


def test_a_write_whose_replica_leaves_mid_barrier_holds_through_the_grace_through_a_verb(
    caplog, verb
):
    _a_write_whose_replica_leaves_mid_barrier_holds_through_the_grace(caplog, verb)


def test_a_flapping_replica_holds_a_write_at_most_three_ack_timeouts():
    """Ack timeout, grace, and a full timeout for a re-attached replica:
    however often the replica comes and goes, the write returns by then."""
    timeout = 0.3
    obs = Instrumentation()
    db, net, stream = _primary(obs, repl_ack_timeout=timeout)
    sb = StandbyReplica(net.address, poll_interval=0.02).start()
    stop = threading.Event()

    def flap():
        while not stop.wait(0.1):
            sb.cut_link()

    cutter = threading.Thread(target=flap, daemon=True)
    try:
        stream.step()
        _wedge(sb)
        cutter.start()
        began = time.monotonic()
        stream.step()
        assert time.monotonic() - began < 3 * timeout + 0.5
        assert obs.snapshot()["repl_barrier_degraded_total"] == 1
    finally:
        stop.set()
        cutter.join(timeout=5.0)
        sb.kill()
        net.close()


def _threads_in_barrier():
    return [
        ident
        for ident, frame in sys._current_frames().items()
        if any(f.f_code.co_name == "_repl_barrier" for f in _stack(frame))
    ]


def _stack(frame):
    while frame is not None:
        yield frame
        frame = frame.f_back


def test_a_verb_waiting_in_the_barrier_leaves_the_loop_free_and_dies_with_kill():
    obs = Instrumentation()
    db, net, stream = _primary(obs, repl_ack_timeout=5.0)
    writer = RemoteQueryClient(*net.address, retries=0, timeout=10.0)
    session = writer.open_knn([0.0, 0.0], k=2)  # no replica yet: no wait
    sb = StandbyReplica(net.address, poll_interval=0.05).start()
    pinger = RemoteQueryClient(*net.address)
    received = threading.Event()
    _wedge(sb, received)

    def advance():
        try:
            session.advance_to(db.last_update_time + 1.0)
        except Exception:
            pass  # the primary was killed under the request

    waiting = threading.Thread(target=advance, daemon=True)
    try:
        waiting.start()
        assert received.wait(5.0), "the verb's record never reached the replica"
        began = time.monotonic()
        pinger.ping()
        assert time.monotonic() - began < 0.5
        assert waiting.is_alive(), "the verb must still wait for its ack"
        began = time.monotonic()
        net.kill()
        assert time.monotonic() - began < 1.0
        time.sleep(1.0)
        assert _threads_in_barrier() == []
    finally:
        net.kill()
        waiting.join(timeout=10.0)
        pinger.close()
        writer.close()
        sb.kill()


def test_promotion_is_logged(caplog):
    obs = Instrumentation()
    db, net, stream = _primary(obs)
    sb = StandbyReplica(net.address, poll_interval=0.05).start()
    try:
        stream.step()
        net.kill()
        with caplog.at_level(logging.WARNING, logger=NET_LOG):
            sb.promote()
        promoted = [m for m in _messages(caplog) if "promoted to primary" in m]
        assert len(promoted) == 1
        assert f"seq {sb.server.journal.seq}" in promoted[0]
    finally:
        sb.close()

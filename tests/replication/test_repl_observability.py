"""The replication state transitions an operator would page on are
visible: an ack-latency histogram, a degrade counter, and one log line
each for replica drop, barrier degrade and promotion."""

import logging
import time

from repro.net import NetConfig, QueryNetServer
from repro.obs import Instrumentation
from repro.replication import DurableQueryServer, StandbyReplica
from repro.workloads.generator import UpdateStream, random_linear_mod

NET_LOG = "repro.net.server"


def _primary(obs, **net_kwargs):
    db = random_linear_mod(6, seed=19, extent=20.0, speed=3.0)
    server = DurableQueryServer(db, checkpoint_interval=8, observe=obs)
    net = QueryNetServer(server, NetConfig(**net_kwargs)).start(port=0)
    return db, net, UpdateStream(db, seed=19, extent=20.0, speed=3.0)


def _messages(caplog):
    return [r.getMessage() for r in caplog.records if r.name == NET_LOG]


def test_ack_latency_is_observed_per_barrier_that_waited_on_a_replica():
    obs = Instrumentation()
    db, net, stream = _primary(obs)
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


def test_barrier_degrade_is_counted_and_logged_once_per_departure(caplog):
    obs = Instrumentation()
    db, net, stream = _primary(obs, repl_ack_timeout=0.2)
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


def test_an_ack_timeout_drop_is_logged(caplog):
    obs = Instrumentation()
    db, net, stream = _primary(obs, repl_ack_timeout=0.2)
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

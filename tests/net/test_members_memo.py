"""The member memo never serves a stale answer.

A ``members`` request reads its view family through a memo the push
fan-out fills: a read is reused only while the server state (the
updates ingested), the group's engine (a read may heal it) and the
group's clock (an ``advance`` or a ``close(at)`` moves it) all stand.
Over the benchmark's serving streams, every session's ``members`` over
the wire must equal ``QueryServer._members`` read in process — after
every update, and after every event that can move an answer without an
update: an ``advance``, a sibling's ``close(at)``, a churn open into an
existing group, an in-process clock move, and an engine fault that
heals, then one that quarantines.
"""

import pytest

from repro.core.api import serve_tcp
from repro.net.protocol import members_to_wire
from repro.server import ServerConfig
from repro.server.errors import ServerError
from tests.net._wire import raw_connect, recv_response, send_frame
from tests.net.test_net_faults import _FailingView
from tests.net.test_push_fanout import churn_open, fanout_reads, serve_crossing

UPDATES = 150


class _Wire:
    """A raw connection whose responses may be errors (pushed events on
    the way are skipped)."""

    def __init__(self, address) -> None:
        self.sock, _ = raw_connect(address)
        self._seq = 0

    def call(self, verb: str, **args) -> dict:
        self._seq += 1
        rid = f"memo-{self._seq}"
        send_frame(self.sock, {"id": rid, "verb": verb, **args})
        return recv_response(self.sock, rid)

    def ok(self, verb: str, **args):
        response = self.call(verb, **args)
        assert response["ok"], response
        return response["result"]


def _outcome(read):
    try:
        return "ok", members_to_wire(read())
    except ServerError as exc:
        return "error", type(exc).__name__


def _check(net, wire, sids):
    """Every session's ``members`` over the wire, then in process."""
    server = net.server
    for sid in sids:
        response = wire.call("members", session=sid)
        got = (
            ("ok", response["result"]["members"])
            if response["ok"]
            else ("error", response["error"]["type"])
        )
        with server.db.lock:
            want = _outcome(lambda: server._members(server.session(sid)))
        assert got == want, (sid, got, want)


def _inject_fault(net, sid):
    """Corrupt the views of ``sid``'s group: its next read faults."""
    with net.server.db.lock:
        group = net.server.session(sid).group
        for key, view in group._views.items():
            group._views[key] = _FailingView(view)


@pytest.mark.parametrize("workload", [fanout_reads, serve_crossing])
def test_a_members_read_always_equals_the_in_process_read(workload):
    base_db, stream, opens, subscribed = workload()
    stream = stream[: UPDATES + 1]
    db = base_db()
    config = ServerConfig(quarantine_after=1)  # one heal, then quarantine
    with serve_tcp(db, config=config) as net:
        wire = _Wire(net.address)
        try:
            sids = []
            for request, subscribe in zip(opens, subscribed):
                sid = wire.ok("open", **request)["session"]
                if subscribe:
                    wire.ok("subscribe", session=sid)
                sids.append(sid)
            here = opens[0]["query"]
            family_member = None
            faults = []
            for i, update in enumerate(stream[:-1]):
                db.apply(update)
                _check(net, wire, sids)
                # A time strictly between this update and the next: a
                # clock moved there stays behind every later update.
                mid = (update.time + stream[i + 1].time) / 2
                step = i % 10
                with db.lock:
                    active = [
                        sid
                        for sid in sids
                        if net.server.session(sid).state == "active"
                    ]
                if step == 1:
                    # To the next update's own time: that update leaves
                    # this group's clock where it is.
                    wire.ok(
                        "advance",
                        session=active[i % len(active)],
                        to=stream[i + 1].time,
                    )
                elif step == 3:
                    # A sibling of session 0's family opens, is read,
                    # then closes ahead of the clock.
                    sibling = wire.ok("open", **opens[0])["session"]
                    _check(net, wire, [sibling])
                    wire.ok("close", session=sibling, at=mid)
                elif step == 5:
                    # A churn open into an existing group: a new family
                    # there, and (every other time) a new group too.
                    if family_member is not None:
                        wire.ok("close", session=family_member)
                    family_member = wire.ok(
                        "open", kind="knn", k=2, query=here
                    )["session"]
                    sids.append(family_member)
                    if i % 20 == 5:
                        sids.append(wire.ok("open", **churn_open(i))["session"])
                elif step == 7:
                    # An in-process caller moves a group clock.
                    with db.lock:
                        net.server.session(active[i % len(active)]).advance_to(mid)
                _check(net, wire, sids)
                if i in (49, 99):
                    # The next update's first read of session 1's group
                    # (the push's, or a ``members`` request's) faults:
                    # the group heals the first time and is quarantined
                    # the second.
                    _inject_fault(net, sids[1])
                    faults.append(i)
            assert len(faults) == 2
            stats = net.server.stats
            assert (stats.rebuilds, stats.quarantines) == (1, 1)
        finally:
            wire.sock.close()

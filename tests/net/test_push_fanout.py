"""The push fan-out pays for what changed: differential and cost gates.

Between ``db.apply(u)`` and the frame a subscriber reads, three costs
used to grow with things ``u`` did not touch — the audience (every
subscribed session read and encoded its own members), the age of the
trajectory (``chdir`` re-proved every old joint, twice) and a coroutine
per update across the thread hop.  Now ``_push_answer_changes`` reads
each view family once per flush and compares *sets*, and ``chdir``
proves one joint.

**Differential** — the per-session loop it replaced is kept in
``tests/net/_wire.reference_push_answer_changes``; over the benchmark's
own streams every connection must receive the same ``answer_change``
frames in the same order, for the same ``stats.pushes`` and
``stats.bytes_out``.

**Cost gates** — wall time cannot gate this on a shared machine,
Python-level calls can (``tests/gdist/test_curve_cost.py`` has the
method).  Counts at the parent (commit 2b3a93e, CPython 3.11):

==================================================  ======  ======  ======
per flush, 32 subscribers of 4 view families        parent  now     gate
==================================================  ======  ======  ======
``EngineGroup.members`` calls                           32       4  == families
``members_to_wire`` calls                               32    0-4   == families that moved
==================================================  ======  ======  ======

==================================================  ======  ======  ======
``with_direction_change``, Python calls             parent  now     gate
==================================================  ======  ======  ======
on a 1-piece trajectory                                173      74  <= 100
on a 40-piece trajectory                             5,557      74  within 10 of 1-piece
==================================================  ======  ======  ======
"""

import sys

import pytest

from repro.core.api import serve_tcp
from repro.geometry.vectors import Vector
from repro.net.protocol import members_to_wire
from repro.net.server import QueryNetServer
from repro.server.group import EngineGroup
from repro.trajectory.builder import linear_from
from repro.workloads.generator import UpdateStream, banded_mod, random_linear_mod
from tests.gdist.test_curve_cost import python_calls
from tests.net._wire import RawClient, reference_push_answer_changes

UPDATES = 300


# ---------------------------------------------------------------------------
# The benchmark's serving workloads (benchmarks/wall/workloads.py), unrotated
# ---------------------------------------------------------------------------
def cycled_opens(count, points, within):
    """``count`` ``open`` requests cycling knn 1 / within / multiknn
    (1, 3) / knn 3 over ``points``."""
    kinds = (
        {"kind": "knn", "k": 1},
        {"kind": "within", "distance": within},
        {"kind": "multiknn", "ks": [1, 3]},
        {"kind": "knn", "k": 3},
    )
    return [
        {"query": list(points[i % len(points)]), **kinds[i % 4]}
        for i in range(count)
    ]


def recorded_stream(base_db, **stream_kwargs):
    """The first ``UPDATES`` updates of a stream, recorded on a twin."""
    updates = []
    twin = base_db()
    twin.subscribe(updates.append)
    UpdateStream(twin, seed=2, **stream_kwargs).run(UPDATES)
    return updates


def fanout_reads():
    def base_db():
        return banded_mod(200, seed=1, band_gap=1.0)

    stream = recorded_stream(
        base_db, mean_gap=0.05, extent=30, speed=0.2, weights=(0.3, 0.3, 0.4)
    )
    opens = cycled_opens(32, [(0.0, 0.0)], within=40.5)
    return base_db, stream, opens, [True] * 32


def serve_crossing():
    def base_db():
        return random_linear_mod(200, seed=1)

    stream = recorded_stream(base_db, mean_gap=0.05, weights=(0.1, 0.1, 0.8))
    opens = cycled_opens(8, [(0.0, 0.0), (30.0, -20.0)], within=40.0)
    return base_db, stream, opens, [i % 2 == 0 for i in range(8)]


def churn_open(index):
    """The benchmark's churn: a knn at a point no other session uses."""
    x = ((index * 0.6180339887) % 1.0) * 100.0 - 50.0
    y = ((index * 0.7548776662) % 1.0) * 100.0 - 50.0
    return {"kind": "knn", "query": [x, y], "k": 2}


def pushes_of(client):
    return [
        (e["session"], e["time"], e["members"])
        for e in client.events
        if e["event"] == "answer_change"
    ]


def run_workload(workload, churn_every=0):
    """One connection, the workload's sessions, ``db.apply`` then
    ``ping`` per update: the frames the connection carried."""
    base_db, stream, opens, subscribed = workload
    db = base_db()
    with serve_tcp(db) as net:
        client = RawClient(net.address)
        try:
            baselines = []
            for request, subscribe in zip(opens, subscribed):
                sid = client.request("open", **request)["session"]
                if subscribe:
                    baselines.append(client.request("subscribe", session=sid))
            churn = {}
            for i, update in enumerate(stream):
                db.apply(update)
                client.request("ping")
                if churn_every and i % churn_every == 0:
                    opened = client.request("open", **churn_open(i))
                    churn[i + churn_every] = opened["session"]
                    if i in churn:
                        client.request("close", session=churn.pop(i))
            assert {e["event"] for e in client.events} <= {"answer_change"}
            return {
                "baselines": baselines,
                "pushes": pushes_of(client),
                "stats": (net.stats.pushes, net.stats.bytes_out),
            }
        finally:
            client.close()


def run_mixed(stream_of):
    """Two connections; a family shared across them (two sessions of one
    spec, and one session watched from both); a family opened with the
    legacy ``shards`` field (accepted and ignored); a subscriber that joins an existing family mid-stream, a new family
    mid-stream, and an unsubscribe."""
    base_db, stream, _, _ = stream_of
    db = base_db()
    here = {"query": [0.0, 0.0]}
    with serve_tcp(db) as net:
        a, b = RawClient(net.address, "a"), RawClient(net.address, "b")
        try:
            def watch(client, **request):
                sid = client.request("open", **request)["session"]
                client.request("subscribe", session=sid)
                return sid

            a_knn = watch(a, kind="knn", k=2, **here)
            a_within = watch(a, kind="within", distance=40.0, **here)
            watch(a, kind="knn", k=3, shards=2, **here)
            watch(b, kind="knn", k=2, **here)  # a_knn's family
            watch(b, kind="knn", k=3, shards=2, **here)  # its family
            b.request("subscribe", session=a_within)  # one session, twice
            for i, update in enumerate(stream):
                db.apply(update)
                a.request("ping")
                b.request("ping")
                if i == 100:
                    joiner = watch(a, kind="knn", k=2, **here)  # a family
                    newcomer = watch(b, kind="multiknn", ks=[1, 4], **here)
                if i == 200:
                    a.request("unsubscribe", session=a_knn)
                    b.request("unsubscribe", session=a_within)
            return {
                "a": pushes_of(a),
                "b": pushes_of(b),
                "stats": (net.stats.pushes, net.stats.bytes_out),
                "sids": (a_knn, a_within, joiner, newcomer),
            }
        finally:
            a.close()
            b.close()


@pytest.fixture
def reference_loop(monkeypatch):
    """Run the per-session loop in place of the fan-out."""

    def install():
        monkeypatch.setattr(
            QueryNetServer, "_push_answer_changes", reference_push_answer_changes
        )

    return install


# ---------------------------------------------------------------------------
# Differential
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "workload, churn_every, sessions",
    [(fanout_reads, 0, 32), (serve_crossing, 10, 8)],
    ids=["fanout_reads", "serve_crossing"],
)
def test_the_benchmark_streams_push_the_same_frames(
    reference_loop, workload, churn_every, sessions
):
    inputs = workload()
    assert len(inputs[1]) == UPDATES and len(inputs[2]) == sessions
    got = run_workload(inputs, churn_every)
    reference_loop()
    want = run_workload(inputs, churn_every)
    assert got["baselines"] == want["baselines"]
    assert got["pushes"] == want["pushes"]
    assert got["stats"] == want["stats"]
    # Not vacuous: the stream moves answers, and not on every update.
    moved = {time for _, time, _ in got["pushes"]}
    assert 10 < len(moved) < UPDATES
    watched = {sid for sid, _, _ in got["pushes"]}
    assert len(watched) > sum(inputs[3]) // 2


def test_joins_leaves_shared_and_sharded_families_push_the_same_frames(
    reference_loop,
):
    inputs = serve_crossing()
    got = run_mixed(inputs)
    reference_loop()
    want = run_mixed(inputs)
    assert got == want
    a_knn, a_within, joiner, newcomer = got["sids"]
    times = [update.time for update in inputs[1]]
    heard = lambda pushes, sid: [time for s, time, _ in pushes if s == sid]
    # The joiner and the new family are heard from, after they joined;
    # the leavers fall silent; the session watched twice is told twice.
    assert min(heard(got["a"], joiner)) > times[100]
    assert min(heard(got["b"], newcomer)) > times[100]
    assert heard(got["a"], a_knn) and max(heard(got["a"], a_knn)) <= times[200]
    assert heard(got["b"], a_within) == [
        time for time in heard(got["a"], a_within) if time <= times[200]
    ]
    assert max(heard(got["a"], a_within)) > times[200]


# ---------------------------------------------------------------------------
# Cost gates
# ---------------------------------------------------------------------------
def test_a_flush_reads_each_family_once_and_encodes_only_what_moved():
    base_db, stream, opens, _ = fanout_reads()
    counted = {EngineGroup.members.__code__: 0, members_to_wire.__code__: 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            counted[frame.f_code] += 1

    db = base_db()
    with serve_tcp(db) as net:
        client = RawClient(net.address)
        try:
            family_of = {}
            for request in opens:
                sid = client.request("open", **request)["session"]
                client.request("subscribe", session=sid)
                family_of[sid] = str(request)
            families = len(set(family_of.values()))
            assert (len(family_of), families) == (32, 4)
            quiet = moved = 0
            # The fan-out runs on the applying thread, under db.apply.
            sys.setprofile(profile)
            try:
                for update in stream[:120]:
                    before = len(client.events)
                    for code in counted:
                        counted[code] = 0
                    db.apply(update)
                    reads, encodes = counted.values()
                    client.request("ping")
                    pushed = {
                        family_of[e["session"]] for e in client.events[before:]
                    }
                    assert reads == families
                    assert encodes == len(pushed)
                    quiet += not pushed
                    moved += bool(pushed)
            finally:
                sys.setprofile(None)
            assert quiet > 20 and moved > 5
        finally:
            client.close()


def test_an_update_wakes_the_loop_once_if_it_pushed_and_never_if_not():
    """A journal-less ``db.apply`` off the loop thread fans out, pushes
    and queues its frames on the applying thread: the loop hears of it
    through one wake-up (for the flush) when something was pushed, and
    not at all when nothing was."""
    base_db, stream, opens, _ = fanout_reads()
    db = base_db()
    with serve_tcp(db) as net:
        client = RawClient(net.address)
        try:
            for request in opens:
                sid = client.request("open", **request)["session"]
                client.request("subscribe", session=sid)
            wake = net._wake
            wakes = []

            def counted():
                wakes.append(1)
                return wake()

            net._wake = counted
            quiet = moved = 0
            try:
                for update in stream[:120]:
                    before = len(client.events)
                    del wakes[:]
                    db.apply(update)
                    woken = len(wakes)
                    client.request("ping")
                    pushed = len(client.events) > before
                    assert woken == (1 if pushed else 0)
                    quiet += not pushed
                    moved += pushed
            finally:
                del net._wake
            assert quiet > 20 and moved > 5
        finally:
            client.close()


def test_a_chdir_costs_the_same_at_any_age():
    def aged(pieces):
        traj = linear_from(0.0, [0.0, 0.0], [1.0, 0.0])
        for i in range(1, pieces):
            traj = traj.with_direction_change(float(i), Vector((1.0, float(i % 3))))
        assert len(traj.pieces) == pieces
        return traj

    velocity = Vector((0.5, 0.5))
    young = python_calls(aged(1).with_direction_change, 1.5, velocity)
    old = python_calls(aged(40).with_direction_change, 40.5, velocity)
    assert young <= 100 and old <= 100
    assert abs(old - young) <= 10

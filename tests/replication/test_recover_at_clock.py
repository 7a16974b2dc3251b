"""Recover at the clock: a restored server never re-sweeps history.

``DurableQueryServer.restore`` builds every engine group at the
restored MOD's tau; a session that opened earlier keeps the unswept
span ``[start, tau]`` and its close answers that span as one past
query over the MOD's kept trajectories (Theorem 4).  Held to the
repo's standard: whatever is recovered — twice, with ingest and a
checkpoint in between — closes byte-equal (``answer_to_dict``) to an
uninterrupted ``serve()`` mirror, and agrees with the naive baseline.
"""

import itertools
import json

import pytest

from repro.baselines.naive import naive_knn_answer, naive_within_answer
from repro.core.api import serve
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.io import answer_to_dict
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import New
from repro.geometry.vectors import Vector
from repro.replication import DurableQueryServer, recover_server
from repro.server import ServerConfig
from repro.trajectory.builder import linear_from
from repro.workloads.generator import UpdateStream, random_linear_mod

POINT = [0.0, 0.0]
KINDS = ("knn", "within", "multiknn")
# Stream positions (indices into the 36-update stream): a second
# session opens at LATE, the first checkpoint falls at CKPT1, a third
# session opens in the tail behind it, the server is abandoned at
# CRASH1; after more ingest a second checkpoint (CKPT2), three more
# tail records, and a second abandonment at CRASH2.
LATE, CKPT1, TAIL_OPEN, CRASH1, CKPT2, CRASH2 = 4, 14, 16, 18, 28, 31


def _base(seed):
    return random_linear_mod(12, seed=seed, extent=20.0, speed=3.0)


def _stream(seed, n=36):
    return UpdateStream(
        _base(seed), seed=seed, mean_gap=0.5, extent=20.0, speed=3.0
    ).run(n)


def _register(server, kind, shards=None):
    """``shards`` is the journaled label the durable formats keep: it
    rides the ``open`` record and the snapshot and selects nothing."""
    if kind == "knn":
        return server.register_knn(POINT, k=2, shards=shards)
    if kind == "within":
        return server.register_within(POINT, 12.0, shards=shards)
    return server.register_multiknn(POINT, [1, 3], shards=shards)


def _dump(answer):
    if isinstance(answer, dict):
        payload = {k: answer_to_dict(a) for k, a in answer.items()}
    else:
        payload = answer_to_dict(answer)
    return json.dumps(payload, sort_keys=True)


def _other(kind):
    return "within" if kind == "knn" else "knn"


def _recover(server, directory):
    """Abandon ``server`` mid-flight (no shutdown, no final checkpoint)
    and rebuild from disk alone."""
    server.journal.close()
    return recover_server(
        directory, checkpoint_interval=None, checkpoint_on_recover=False
    )


def _mirror_run(seed, kind, shards, updates):
    """The uninterrupted server: sessions, the two snapshot clocks."""
    db = _base(seed)
    server = serve(db)
    sessions = [_register(server, kind, shards)]
    clocks = {}
    for i, update in enumerate(updates):
        if i == LATE:
            sessions.append(_register(server, kind, shards))
        if i == TAIL_OPEN:
            sessions.append(_register(server, _other(kind), shards))
        db.apply(update)
        if i in (CKPT1, CKPT2):
            clocks[i] = db.last_update_time
    return server, sessions, clocks


def _recovered_run(seed, kind, shards, updates, directory):
    """The same schedule, recovered twice on the way."""
    db = _base(seed)
    server = DurableQueryServer(
        db,
        directory=directory,
        checkpoint_interval=None,
    )
    sids = [_register(server, kind, shards).session_id]
    for i, update in enumerate(updates):
        if i == LATE:
            sids.append(_register(server, kind, shards).session_id)
        if i == TAIL_OPEN:
            sids.append(_register(server, _other(kind), shards).session_id)
        db.apply(update)
        if i in (CKPT1, CKPT2):
            server.checkpoint()
        if i in (CRASH1, CRASH2):
            server = _recover(server, directory)
            db = server.db
            assert server.recovered_tail > 0
    return server, [server.session(sid) for sid in sids]


@pytest.mark.parametrize(
    "kind,shards,where",
    list(itertools.product(KINDS, (1, 2), ("before", "between", "past"))),
)
def test_double_recovery_closes_byte_equal_to_the_live_mirror(
    tmp_path, kind, shards, where
):
    seed = 3
    updates = _stream(seed)
    mirror, live, clocks = _mirror_run(seed, kind, shards, updates)
    at = {
        "before": (updates[LATE].time + clocks[CKPT1]) / 2,
        "between": (clocks[CKPT1] + clocks[CKPT2]) / 2,
        "past": mirror.db.last_update_time + 1.5,
    }[where]
    want = [_dump(s.close(at=max(at, s.start))) for s in live]
    mirror.shutdown()

    server, sessions = _recovered_run(
        seed, kind, shards, updates, str(tmp_path)
    )
    tau2 = clocks[CKPT2]
    for session, twin in zip(sessions, live):
        assert session.start == twin.start
        assert session.group.epoch_start == tau2, "no engine is back-dated"
        assert session.unswept == Interval(session.start, tau2)
    got = [_dump(s.close(at=max(at, s.start))) for s in sessions]
    assert got == want
    server.journal.close()


def test_recovered_answers_agree_with_the_naive_baseline(tmp_path):
    seed = 5
    updates = _stream(seed)
    server, sessions = _recovered_run(seed, "knn", 1, updates, str(tmp_path))
    gd = SquaredEuclideanDistance(POINT)
    horizon = server.db.last_update_time + 1.0
    knn, late, within = sessions
    for session in (knn, late):
        answer = session.close(at=horizon)
        naive = naive_knn_answer(
            server.db, gd, Interval(session.start, horizon), 2
        )
        assert answer.approx_equals(naive, atol=1e-6)
    answer = within.close(at=horizon)
    naive = naive_within_answer(
        server.db, gd, Interval(within.start, horizon), 144.0
    )
    assert answer.approx_equals(naive, atol=1e-6)
    server.journal.close()


def test_a_queued_then_activated_session_survives_recovery(tmp_path):
    seed = 7
    updates = _stream(seed, 24)
    config = ServerConfig(max_sessions=1, admission_policy="queue")

    def run(server, db, crash):
        first = _register(server, "knn")
        queued = _register(server, "within")
        assert queued.state == "queued"
        sid = queued.session_id
        for i, update in enumerate(updates):
            db.apply(update)
            if i == 5:
                first.close(at=db.last_update_time)  # activates the queued one
            if crash and i == 12:
                server.checkpoint()
            if crash and i == 15:
                server = _recover(server, str(tmp_path))
                db = server.db
        session = server.session(sid)
        assert session.start == updates[5].time
        return _dump(session.close(at=db.last_update_time + 1.0))

    live_db = _base(seed)
    want = run(serve(live_db, config), live_db, crash=False)
    durable_db = _base(seed)
    durable = DurableQueryServer(
        durable_db, config=config, directory=str(tmp_path),
        checkpoint_interval=None,
    )
    assert run(durable, durable_db, crash=True) == want


def test_a_heal_after_a_recovery_keeps_the_answer(tmp_path):
    seed = 9
    updates = _stream(seed)
    mirror, live, clocks = _mirror_run(seed, "knn", 1, updates[:CRASH2 + 1])
    server, sessions = _recovered_run(
        seed, "knn", 1, updates[:CRASH2 + 1], str(tmp_path)
    )
    rest = updates[CRASH2 + 1:]
    for db in (mirror.db, server.db):
        for update in rest[:2]:
            db.apply(update)
    group = sessions[0].group
    server._heal(group, RuntimeError("forced"))
    assert server.stats.rebuilds == 1
    heal_tau = server.db.last_update_time
    for db in (mirror.db, server.db):
        for update in rest[2:]:
            db.apply(update)
    horizon = mirror.db.last_update_time + 1.0
    for session, twin in zip(sessions, live):
        assert session.unswept is not None
        # The third session (another kind) lives in a group of its own,
        # which no heal touched: its engines still date from the restore.
        assert session.unswept.hi == (
            heal_tau if session.group is group else clocks[CKPT2]
        )
        assert _dump(session.close(at=horizon)) == _dump(twin.close(at=horizon))
    mirror.shutdown()
    server.journal.close()


def _tied_db(twins):
    """``a`` and ``b`` swap rank at exactly t = 2 (|2 + t| vs |6 - t|);
    ``twins`` adds a second copy of ``a`` inserted *before* it under a
    later-sorting name, so they tie for ever."""
    db = MovingObjectDatabase(initial_time=0.0)
    if twins:
        db.install("z", linear_from(0.0, [2.0, 0.0], [1.0, 0.0]))
    db.install("a", linear_from(0.0, [2.0, 0.0], [1.0, 0.0]))
    db.install("b", linear_from(0.0, [6.0, 0.0], [-1.0, 0.0]))
    return db


@pytest.mark.parametrize("twins", [False, True])
@pytest.mark.parametrize("shards", [1, 2])
def test_a_tie_exactly_at_the_snapshot_clock(tmp_path, twins, shards):
    far = [
        New("f0", 1.0, Vector.of(0.0, 1.0), Vector.of(50.0, 0.0)),
        New("f1", 2.0, Vector.of(0.0, 1.0), Vector.of(60.0, 0.0)),  # the clock
        New("f2", 3.0, Vector.of(0.0, 1.0), Vector.of(70.0, 0.0)),
    ]
    live_db = _tied_db(twins)
    live = serve(live_db)
    twin = live.register_knn(POINT, k=1, shards=shards)
    for update in far:
        live_db.apply(update)
    want = twin.close(at=4.0)

    db = _tied_db(twins)
    server = DurableQueryServer(
        db, directory=str(tmp_path), checkpoint_interval=None
    )
    sid = server.register_knn(POINT, k=1, shards=shards).session_id
    db.apply(far[0])
    db.apply(far[1])
    server.checkpoint()
    server = _recover(server, str(tmp_path))
    session = server.session(sid)
    assert session.unswept == Interval(0.0, 2.0)
    server.db.apply(far[2])
    got = session.close(at=4.0)
    assert _dump(got) == _dump(want)
    assert got.objects == ({"z", "b"} if twins else {"a", "b"})
    assert got.at(1.0) == ({"z"} if twins else {"a"})
    assert got.at(3.0) == {"b"}
    server.journal.close()


def test_closing_a_recovered_session_at_its_own_start(tmp_path):
    seed = 3
    updates = _stream(seed)
    mirror, live, _ = _mirror_run(seed, "knn", 1, updates)
    server, sessions = _recovered_run(seed, "knn", 1, updates, str(tmp_path))
    for session, twin in zip(sessions, live):
        assert _dump(session.close(at=session.start)) == _dump(
            twin.close(at=twin.start)
        )
    mirror.shutdown()
    server.journal.close()

"""Concurrency soak: many interleaved sessions on one shared server.

Each seed drives one :class:`~repro.server.QueryServer` through a long
randomized schedule in which mixed-kind sessions (knn / within /
multiknn, varied parameters, shard counts 1-2) register, advance, and
close at interleaved points of one update stream.  Every session is
shadowed by a :class:`tests.server._mirrors.Mirror` — a fresh
standalone ``ContinuousQuerySession`` started at exactly the server
session's ``start`` over a twin database — and every probe is also
checked against the naive O(N^2) baseline:

    server members  ==  mirror members  ==  naive instant answer
    server close    ~=  mirror close    ~=  naive windowed answer

5 seeds x 12 sessions = 60 sessions total, well past the 50-session
soak floor, with registrations spread over the first ~60% of each
stream so late sessions join groups whose sweeps are mid-flight.
"""

import random

import pytest

from repro.baselines.naive import naive_knn_answer, naive_within_answer
from repro.core.api import serve
from repro.geometry.intervals import Interval
from repro.geometry.vectors import Vector
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New, Terminate
from tests._oracle import PROBE_FRACTION, answers_equal
from tests.server._mirrors import Mirror

SEEDS = range(5)
SESSIONS_PER_SEED = 12
STREAM_LENGTH = 24


def _build_world(rng):
    """An initial population plus a long chronological update stream."""
    objects = rng.randint(6, 9)
    initial = [
        New(
            f"o{i}",
            0.001 * (i + 1),
            velocity=Vector.of(rng.uniform(-4, 4), rng.uniform(-4, 4)),
            position=Vector.of(rng.uniform(-20, 20), rng.uniform(-20, 20)),
        )
        for i in range(objects)
    ]
    live = [u.oid for u in initial]
    born = 0
    stream = []
    t = 1.0
    for _ in range(STREAM_LENGTH):
        t += rng.uniform(0.4, 1.5)
        choice = rng.random()
        if choice < 0.18:
            born += 1
            oid = f"n{born}"
            stream.append(
                New(
                    oid,
                    t,
                    velocity=Vector.of(rng.uniform(-4, 4), rng.uniform(-4, 4)),
                    position=Vector.of(rng.uniform(-20, 20), rng.uniform(-20, 20)),
                )
            )
            live.append(oid)
        elif choice < 0.30 and len(live) > 3:
            stream.append(Terminate(live.pop(rng.randrange(len(live))), t))
        else:
            stream.append(
                ChangeDirection(
                    rng.choice(live),
                    t,
                    Vector.of(rng.uniform(-4, 4), rng.uniform(-4, 4)),
                )
            )
    return initial, stream


def _session_plans(rng, stream_length):
    """(kind, params, shards, register_index, close_index) per session;
    closes strictly follow registrations so every window is non-empty."""
    plans = []
    for _ in range(SESSIONS_PER_SEED):
        kind = rng.choice(("knn", "within", "multiknn"))
        if kind == "knn":
            params = {"k": rng.randint(1, 3)}
        elif kind == "within":
            params = {"threshold": rng.uniform(30.0, 350.0)}
        else:
            params = {
                "ks": tuple(sorted(rng.sample([1, 2, 3, 4], rng.randint(2, 3))))
            }
        reg = rng.randrange(0, int(stream_length * 0.6))
        close = rng.randrange(reg + 1, stream_length + 1)
        plans.append((kind, params, rng.choice((1, 2)), reg, close))
    return plans


def _naive_instant(db, gd, kind, params, t):
    instant = Interval(t, t)
    if kind == "knn":
        return naive_knn_answer(db, gd, instant, params["k"]).at(t)
    if kind == "within":
        return naive_within_answer(
            db, gd, instant, params["threshold"]
        ).at(t)
    return {
        k: naive_knn_answer(db, gd, instant, k).at(t) for k in params["ks"]
    }


def _naive_final(db, gd, kind, params, window):
    if kind == "knn":
        return naive_knn_answer(db, gd, window, params["k"])
    if kind == "within":
        return naive_within_answer(db, gd, window, params["threshold"])
    return {k: naive_knn_answer(db, gd, window, k) for k in params["ks"]}


def _register(server, kind, gd, params, shards):
    if kind == "knn":
        return server.register_knn(gd, k=params["k"], shards=shards)
    if kind == "within":
        return server.register_within(
            gd, params["threshold"], shards=shards
        )
    return server.register_multiknn(gd, params["ks"], shards=shards)


class _Tenant:
    """One live session with its mirror and bookkeeping."""

    def __init__(self, sid, kind, params, session, mirror):
        self.sid = sid
        self.kind = kind
        self.params = params
        self.session = session
        self.mirror = mirror

    def probe(self, t, db, gd, label):
        got = self.session.advance_to(t)
        if self.kind == "multiknn":
            got = {k: set(v) for k, v in got.items()}
        else:
            got = set(got)
        want = self.mirror.advance_to(t)
        assert got == want, f"{label}: server {got} != mirror {want}"
        naive = _naive_instant(db, gd, self.kind, self.params, t)
        assert got == naive, f"{label}: server {got} != naive {naive}"

    def close(self, at, db, gd, label):
        got = self.session.close(at=at)
        want = self.mirror.close(at=at)
        assert answers_equal(got, want), (
            f"{label}: close answer disagrees with the standalone mirror"
        )
        window = Interval(self.session.start, at)
        naive = _naive_final(db, gd, self.kind, self.params, window)
        assert answers_equal(got, naive), (
            f"{label}: close answer disagrees with the naive baseline"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_soak(seed):
    rng = random.Random(9100 + seed)
    initial, stream = _build_world(rng)
    plans = _session_plans(rng, len(stream))
    gd = SquaredEuclideanDistance(
        [rng.uniform(-5, 5), rng.uniform(-5, 5)]
    )

    db = MovingObjectDatabase(initial_time=0.0)
    mirror_db = MovingObjectDatabase(initial_time=0.0)
    for update in initial:
        db.apply(update)
        mirror_db.apply(update)

    server = serve(db)
    tenants = []
    try:
        for i, update in enumerate(stream):
            db.apply(update)
            mirror_db.apply(update)
            now = update.time
            for sid, (kind, params, shards, reg, _) in enumerate(plans):
                if reg != i:
                    continue
                session = _register(server, kind, gd, params, shards)
                assert session.start == now  # window opens at tau
                mirror = Mirror(
                    mirror_db, kind, gd, params, start=session.start
                )
                tenants.append(_Tenant(sid, kind, params, session, mirror))
            nxt = stream[i + 1].time if i + 1 < len(stream) else now + 1.0
            probe = now + PROBE_FRACTION * (nxt - now)
            if tenants and rng.random() < 0.8:
                sample = rng.sample(
                    tenants, rng.randint(1, min(4, len(tenants)))
                )
                for tenant in sample:
                    tenant.probe(
                        probe, db, gd, f"seed {seed} session {tenant.sid} t={probe}"
                    )
                now = probe
            closing = [t for t in tenants if plans[t.sid][4] == i + 1]
            for tenant in closing:
                tenant.close(
                    now, db, gd, f"seed {seed} session {tenant.sid} close={now}"
                )
                tenants.remove(tenant)
        horizon = stream[-1].time + rng.uniform(1.0, 3.0)
        for tenant in list(tenants):
            tenant.close(
                horizon, db, gd, f"seed {seed} session {tenant.sid} final"
            )
        # Every group was retired with its last tenant; the shared
        # applier never dropped or duplicated a fan-out application.
        assert server.group_count == 0
        assert server.stats.closed == SESSIONS_PER_SEED
        assert server.stats.updates == len(stream)
    finally:
        server.shutdown()


def test_soak_covers_fifty_sessions():
    """The soak matrix drives at least the 50 sessions the issue floor
    demands (5 seeds x 12 sessions)."""
    assert len(SEEDS) * SESSIONS_PER_SEED >= 50

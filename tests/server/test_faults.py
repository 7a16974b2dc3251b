"""Fault isolation: one tenant's engine failure never touches others.

The viable in-process poison is the sweep-past race: advance one
session's group far ahead of the MOD clock, then apply an update whose
timestamp the database accepts (it is after ``tau``) but the advanced
engine rejects ("update in the sweep's past").  The server heals the
failing group with the supervisor pattern — salvage, Theorem 5
rebuild, stitch at close — or quarantines it past the heal budget.
Either way the co-tenant groups must be *bitwise* unaffected: their
probe sets and final answers are compared against a no-fault control
run via exact ``answer_to_dict`` equality, not approximate tolerance.

Also here: WAL durability (a crashed server is rebuilt from
``recover()`` + the sessions' ``spec()``s and then tracks the original
exactly) and dirty-stream ingestion (rejected updates from a
``FaultInjector``-perturbed stream never reach any engine group).
"""

import random

import pytest

from repro.core.api import serve
from repro.geometry.intervals import Interval
from repro.geometry.vectors import Vector
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.io import answer_to_dict
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New
from repro.parallel.merge import clip_answer
from repro.resilience.wal import WriteAheadLog, recover
from repro.server import (
    ServerConfig,
    SessionQuarantinedError,
)
from repro.workloads.faults import FaultInjector
from tests._oracle import answers_equal

POISON_HORIZON = 50.0


def _gd():
    return SquaredEuclideanDistance([0.0, 0.0])


def _fresh_db(n=8, seed=13):
    rng = random.Random(seed)
    db = MovingObjectDatabase(initial_time=0.0)
    for i in range(n):
        db.apply(
            New(
                f"o{i}",
                0.01 * (i + 1),
                velocity=Vector.of(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                position=Vector.of(rng.uniform(-15, 15), rng.uniform(-15, 15)),
            )
        )
    return db


def _stream(times, seed=29, n=8):
    rng = random.Random(seed)
    return [
        ChangeDirection(
            f"o{rng.randrange(n)}",
            t,
            Vector.of(rng.uniform(-3, 3), rng.uniform(-3, 3)),
        )
        for t in times
    ]


def _drive(poison, quarantine_after=3):
    """One run; returns the within co-tenant's probes + final answer
    (exact dicts) plus the knn victim's outcome and server stats."""
    db = _fresh_db()
    server = serve(db, ServerConfig(quarantine_after=quarantine_after))
    gd = _gd()
    knn = server.register_knn(gd, k=2)
    within = server.register_within(gd, 60.0)
    probes = []
    updates = _stream([1.0, 2.0, 3.0, 4.0, 5.0])
    try:
        for update in updates[:2]:
            db.apply(update)
            probes.append(sorted(within.advance_to(update.time + 0.41)))
        if poison:
            # Push only the knn group's sweep far past the MOD clock;
            # the next accepted update is then in *its* past.
            knn.advance_to(POISON_HORIZON)
        for update in updates[2:]:
            db.apply(update)
            probes.append(sorted(within.advance_to(update.time + 0.41)))
        within_final = within.close(at=6.0)
        try:
            knn_final = knn.close(at=POISON_HORIZON)
        except SessionQuarantinedError:
            knn_final = None
        stats = server.stats
    finally:
        server.shutdown()
    return probes, answer_to_dict(within_final), knn_final, stats


class TestCotenantIsolation:
    def test_heal_leaves_cotenant_bitwise_unchanged(self):
        clean_probes, clean_within, clean_knn, clean_stats = _drive(
            poison=False
        )
        probes, within_dict, knn_final, stats = _drive(poison=True)
        # The fault really happened and was healed, not absorbed.
        assert clean_stats.rebuilds == 0
        assert stats.rebuilds >= 1
        assert stats.quarantines == 0
        # The co-tenant saw the exact same world: probe-by-probe and
        # bit-by-bit on the serialized final answer.
        assert probes == clean_probes
        assert within_dict == clean_within
        # The victim survived the heal with a stitched answer that
        # matches the no-fault run.
        assert knn_final is not None
        assert answers_equal(knn_final, clean_knn)

    def test_quarantine_leaves_cotenant_bitwise_unchanged(self):
        clean_probes, clean_within, _, _ = _drive(poison=False)
        # A zero heal budget turns the first failure into quarantine.
        probes, within_dict, knn_final, stats = _drive(
            poison=True, quarantine_after=0
        )
        assert stats.quarantines == 1
        assert knn_final is None  # typed error, no fabricated answer
        assert probes == clean_probes
        assert within_dict == clean_within


def _register_spec(server, spec):
    kind = spec["kind"]
    if kind == "knn":
        return server.register_knn(
            spec["query"], k=spec["k"], priority=spec["priority"],
            shards=spec["shards"],
        )
    if kind == "within":
        return server.register_within(
            spec["query"], spec["threshold"], priority=spec["priority"],
            shards=spec["shards"],
        )
    return server.register_multiknn(
        spec["query"], spec["ks"], priority=spec["priority"],
        shards=spec["shards"],
    )


class TestWalRecovery:
    def test_recovered_server_tracks_the_original(self, tmp_path):
        gd = _gd()
        db = MovingObjectDatabase(initial_time=0.0)
        wal = WriteAheadLog(str(tmp_path), sync="flush")
        rng = random.Random(3)
        for i in range(8):
            update = New(
                f"o{i}",
                0.01 * (i + 1),
                velocity=Vector.of(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                position=Vector.of(
                    rng.uniform(-15, 15), rng.uniform(-15, 15)
                ),
            )
            db.apply(update)
            wal.append(update)
        server = serve(db)
        server.register_knn(gd, k=2)
        server.register_within(gd, 80.0, shards=2)
        server.register_multiknn(gd, (1, 3))
        prefix = _stream([1.0, 2.0, 3.0], seed=31)
        for update in prefix[:2]:
            db.apply(update)
            wal.append(update)
        wal.checkpoint(db)  # exercise checkpoint + WAL-tail replay
        for update in prefix[2:]:
            db.apply(update)
            wal.append(update)
        specs = [s.spec() for s in server.sessions()]
        wal.close()  # crash point: only durable state survives

        db2, _ = recover(str(tmp_path))
        assert db2.last_update_time == db.last_update_time
        assert sorted(db2.object_ids) == sorted(db.object_ids)
        server2 = serve(db2)
        recovered = [_register_spec(server2, spec) for spec in specs]
        rec_start = db2.last_update_time
        originals = server.sessions()
        try:
            # Identical post-recovery tails...
            tail = _stream([4.0, 5.0, 6.0], seed=37)
            for update in tail:
                db.apply(update)
                db2.apply(update)
                probe = update.time + 0.41
                for a, b in zip(originals, recovered):
                    ma, mb = a.advance_to(probe), b.advance_to(probe)
                    if isinstance(ma, dict):
                        ma = {k: set(v) for k, v in ma.items()}
                        mb = {k: set(v) for k, v in mb.items()}
                    else:
                        ma, mb = set(ma), set(mb)
                    assert ma == mb, f"recovered members diverged at {probe}"
            # ...and identical answers over the shared span.
            for a, b in zip(originals, recovered):
                got = b.close(at=7.0)
                want = a.close(at=7.0)
                if isinstance(want, dict):
                    want = {
                        k: clip_answer(v, rec_start, 7.0)
                        for k, v in want.items()
                    }
                else:
                    want = clip_answer(want, rec_start, 7.0)
                assert answers_equal(got, want), (
                    "recovered session's answer diverged from the "
                    "original's over the post-recovery span"
                )
        finally:
            server.shutdown()
            server2.shutdown()


class TestDirtyStream:
    def test_rejected_updates_never_reach_groups(self):
        clean = _stream(
            [1.0, 1.7, 2.4, 3.1, 3.9, 4.6, 5.2, 6.0], seed=41
        )
        injector = FaultInjector(
            seed=5,
            corrupt_rate=0.3,
            duplicate_rate=0.25,
            reorder_rate=0.25,
            spurious_rate=0.2,
        )
        perturbed, report = injector.perturb(clean)
        assert report.total > 0, "the injector must actually inject"

        def build():
            db = _fresh_db(seed=43)
            server = serve(db)
            gd = _gd()
            return db, server, [
                server.register_knn(gd, k=2),
                server.register_within(gd, 70.0),
            ]

        db_dirty, server_dirty, dirty_sessions = build()
        accepted = []
        for update in perturbed:
            try:
                db_dirty.apply(update)
            except Exception:
                continue  # the MOD's validation quarantined it
            accepted.append(update)
        assert len(accepted) < len(perturbed)

        db_clean, server_clean, clean_sessions = build()
        for update in accepted:
            db_clean.apply(update)

        # The server only ever saw what the MOD accepted...
        assert server_dirty.stats.updates == len(accepted)
        assert server_dirty.stats.rebuilds == 0
        # ...so both servers are bitwise interchangeable.
        horizon = db_dirty.last_update_time + 1.0
        for a, b in zip(dirty_sessions, clean_sessions):
            assert answer_to_dict(a.close(at=horizon)) == answer_to_dict(
                b.close(at=horizon)
            )
        server_dirty.shutdown()
        server_clean.shutdown()

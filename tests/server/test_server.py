"""Unit tests for the multi-tenant :class:`~repro.server.QueryServer`.

Covers the shared fan-out architecture (group keying, view
refcounting, batching semantics), admission control, load shedding,
lifecycle/typed errors, cache deposit, telemetry, and EXPLAIN
integration.  The randomized end-to-end equivalences live in
``test_soak.py`` and ``tests/parallel/test_differential.py``.
"""

import random

import pytest

from repro.cache import QueryCache
from repro.core.api import serve
from repro.geometry.intervals import Interval
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.mod.updates import ChangeDirection, New
from repro.geometry.vectors import Vector
from repro.obs import Instrumentation
from repro.server import (
    AdmissionError,
    QueryServer,
    ServerConfig,
    ServerError,
    SessionClosedError,
    SessionQueuedError,
    SessionShedError,
)
from repro.workloads.generator import random_linear_mod
from tests._oracle import answers_equal
from tests.server._mirrors import Mirror


def _db(count=8, seed=7):
    return random_linear_mod(count, seed=seed, extent=30.0, speed=3.0)


def _gd(x=0.0, y=0.0):
    return SquaredEuclideanDistance([x, y])


def _stir(db, times, seed=0):
    """Apply one deterministic ChangeDirection per time in ``times``."""
    rng = random.Random(seed)
    oids = sorted(db.object_ids)
    for t in times:
        db.apply(
            ChangeDirection(
                rng.choice(oids),
                t,
                Vector.of(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            )
        )


class TestGroupSharing:
    def test_rank_queries_share_one_group(self):
        db = _db()
        server = serve(db)
        gd = _gd()
        server.register_knn(gd, k=1)
        server.register_knn(gd, k=3)
        server.register_multiknn(gd, (1, 2))
        # knn + multiknn need sentinel-free engines: one shared pool.
        assert server.group_count == 1
        server.register_within(gd, 50.0)
        # within needs its threshold among the engine constants.
        assert server.group_count == 2
        server.register_knn(gd, k=2, shards=3)
        # a shard count is a journaled label: the same engine pool.
        assert server.group_count == 2
        server.register_knn(_gd(9.0, 9.0), k=1)
        # a different g-distance never shares sweep state.
        assert server.group_count == 3
        server.shutdown()

    def test_identical_sessions_share_the_same_views(self):
        db = _db()
        server = serve(db)
        gd = _gd()
        a = server.register_knn(gd, k=2)
        b = server.register_knn(gd, k=2)
        assert a.group is b.group
        assert a.view_key == b.view_key
        assert a.group.tenant_count == 2
        _stir(db, [1.0, 2.0])
        a.close()
        # The group survives while a tenant remains...
        assert server.group_count == 1
        b.close()
        # ...and is retired (engines dropped) with the last tenant.
        assert server.group_count == 0
        server.shutdown()

    def test_fanout_applies_each_update_once_per_group(self):
        db = _db()
        server = serve(db)
        gd = _gd()
        server.register_knn(gd, k=1)
        server.register_within(gd, 40.0)
        _stir(db, [1.0, 2.0, 3.0])
        # 3 updates x 2 groups = 6 (group, update) applications.
        assert server.stats.fanout == 6
        assert server.stats.updates == 3
        server.shutdown()


class TestAnswerEquivalence:
    def test_mixed_tenants_match_standalone_sessions(self):
        db = _db(10, seed=21)
        mirror_db = random_linear_mod(10, seed=21, extent=30.0, speed=3.0)
        server = serve(db)
        gd = _gd(1.0, -2.0)
        specs = [
            ("knn", {"k": 2}),
            ("within", {"threshold": 75.0}),
            ("multiknn", {"ks": (1, 3)}),
        ]
        sessions = [
            server.register_knn(gd, k=2),
            server.register_within(gd, 75.0),
            server.register_multiknn(gd, (1, 3)),
        ]
        mirrors = [
            Mirror(mirror_db, kind, gd, params, start=s.start)
            for (kind, params), s in zip(specs, sessions)
        ]
        times = [1.0, 2.2, 3.1, 4.4, 5.0]
        for t in times:
            _stir(db, [t], seed=int(t * 10))
            _stir(mirror_db, [t], seed=int(t * 10))
            probe = t + 0.3
            for s, m in zip(sessions, mirrors):
                got = s.advance_to(probe)
                want = m.advance_to(probe)
                if isinstance(want, dict):
                    got = {k: set(v) for k, v in got.items()}
                else:
                    got = set(got)
                assert got == want, f"probe {probe}: {got} != {want}"
        for s, m in zip(sessions, mirrors):
            assert answers_equal(s.close(at=6.0), m.close(at=6.0))
        server.shutdown()

    def test_late_joiner_equals_fresh_session(self):
        db = _db(9, seed=4)
        mirror_db = random_linear_mod(9, seed=4, extent=30.0, speed=3.0)
        server = serve(db)
        gd = _gd()
        early = server.register_knn(gd, k=2)
        _stir(db, [1.0, 2.0], seed=1)
        _stir(mirror_db, [1.0, 2.0], seed=1)
        early.advance_to(2.5)
        late = server.register_knn(gd, k=2)  # joins the shared view
        assert late.group is early.group
        mirror = Mirror(mirror_db, "knn", gd, {"k": 2}, start=late.start)
        _stir(db, [3.0, 4.0], seed=2)
        _stir(mirror_db, [3.0, 4.0], seed=2)
        # The late joiner's clipped span equals a fresh engine started
        # at its registration time.
        assert answers_equal(late.close(at=5.0), mirror.close(at=5.0))
        early.close(at=5.0)
        server.shutdown()


class TestAdmission:
    def test_reject_policy(self):
        server = serve(_db(), ServerConfig(max_sessions=1))
        gd = _gd()
        first = server.register_knn(gd, k=1)
        with pytest.raises(AdmissionError):
            server.register_knn(gd, k=2)
        assert server.stats.rejected == 1
        first.close()
        # Capacity freed: the next registration is admitted.
        server.register_knn(gd, k=2)
        server.shutdown()

    def test_queue_policy_activates_fifo(self):
        db = _db()
        server = serve(
            db,
            ServerConfig(
                max_sessions=1, admission_policy="queue", max_queued=2
            ),
        )
        gd = _gd()
        active = server.register_knn(gd, k=1)
        q1 = server.register_knn(gd, k=2)
        q2 = server.register_within(gd, 30.0)
        assert q1.state == "queued" and q2.state == "queued"
        with pytest.raises(SessionQueuedError):
            _ = q1.members
        with pytest.raises(AdmissionError):  # queue full
            server.register_knn(gd, k=3)
        _stir(db, [1.0, 2.0])
        active.close()
        # FIFO: q1 activates first, with its window opening *now* —
        # not at its registration time.
        assert q1.state == "active" and q2.state == "queued"
        assert q1.start == db.last_update_time
        q1.close()
        assert q2.state == "active"
        q2.close()
        server.shutdown()

    def test_closing_a_queued_session_cancels_it(self):
        server = serve(
            _db(), ServerConfig(max_sessions=1, admission_policy="queue")
        )
        gd = _gd()
        active = server.register_knn(gd, k=1)
        queued = server.register_knn(gd, k=2)
        assert queued.close() is None
        assert server.stats.cancelled == 1
        active.close()
        # The cancelled session must never activate.
        assert queued.state == "closed"
        with pytest.raises(SessionClosedError):
            _ = queued.members
        server.shutdown()


class TestLifecycle:
    def test_close_is_terminal_and_answer_persists(self):
        db = _db()
        server = serve(db)
        session = server.register_knn(_gd(), k=1)
        _stir(db, [1.0])
        answer = session.close(at=2.0)
        assert session.answer is answer
        with pytest.raises(SessionClosedError):
            _ = session.members
        with pytest.raises(SessionClosedError):
            session.advance_to(3.0)
        with pytest.raises(SessionClosedError):
            session.close()
        server.shutdown()

    def test_register_after_shutdown_raises(self):
        db = _db()
        server = serve(db)
        server.shutdown()
        with pytest.raises(ServerError):
            server.register_knn(_gd(), k=1)
        # Shutdown detached the server: updates no longer fan out.
        _stir(db, [1.0])
        assert server.stats.updates == 0
        server.shutdown()  # idempotent

    def test_config_validation(self):
        for bad in (
            dict(admission_policy="drop"),
            dict(max_sessions=0),
            dict(max_queued=-1),
            dict(op_rate_ceiling=0.0),
            dict(op_rate_window=0),
            dict(quarantine_after=-1),
        ):
            with pytest.raises(ValueError):
                ServerConfig(**bad)

    def test_multiknn_requires_ks(self):
        server = serve(_db())
        with pytest.raises(ValueError):
            server.register_multiknn(_gd(), ())
        server.shutdown()


class TestShedding:
    def test_sheds_lowest_priority_first(self):
        db = _db()
        # window=1 and a sub-unity ceiling: the very first applied
        # update trips the shed check deterministically.
        server = serve(
            db,
            ServerConfig(op_rate_ceiling=1e-6, op_rate_window=1),
        )
        gd = _gd()
        vip = server.register_knn(gd, k=1, priority=10)
        low = server.register_within(gd, 40.0, priority=1)
        _stir(db, [1.0])
        assert low.state == "shed"
        assert vip.state == "active"
        assert server.stats.shed == 1
        with pytest.raises(SessionShedError):
            _ = low.members
        with pytest.raises(SessionShedError):
            low.close()
        # The survivor is still fully serviceable.
        vip.advance_to(1.5)
        vip.close(at=2.0)
        server.shutdown()


class TestObservability:
    def test_metrics_and_explain_stages(self):
        db = _db()
        observe = Instrumentation()
        server = serve(db, observe=observe)
        gd = _gd()
        session = server.register_knn(gd, k=2)
        other = server.register_within(gd, 60.0)
        _stir(db, [1.0, 2.0])
        session.advance_to(2.5)
        snap = observe.metrics.snapshot()
        assert snap['server_sessions_total{event="register"}'] == 2
        assert snap['server_sessions_total{event="activate"}'] == 2
        assert snap["server_active_sessions"] == 2
        assert snap["server_groups"] == 2
        assert snap["server_update_fanout_count"] == 2
        report = server.explain_close(session, at=3.0)
        names = {s["name"] for s in report.to_dict()["stages"]}
        assert "server.close" in names
        assert report.answer is session.answer
        other.close()
        assert observe.metrics.snapshot()["server_active_sessions"] == 0
        server.shutdown()

    def test_cache_deposit_on_close(self):
        db = _db()
        cache = QueryCache()
        server = serve(db, cache=cache)
        gd = _gd()
        session = server.register_knn(gd, k=2)
        _stir(db, [1.0, 2.0])
        answer = session.close(at=3.0)
        hit = cache.lookup("knn", gd, Interval(session.start, 3.0), k=2)
        assert hit is not None
        assert answers_equal(hit, answer)
        server.shutdown()

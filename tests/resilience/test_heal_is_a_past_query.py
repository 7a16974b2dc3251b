"""A heal is Theorem-5 re-initialisation plus a Theorem-4 past query.

An engine is disposable: when one fails, its owner re-opens it at the
database's ``tau`` and remembers ``tau``; the span before it is read
back from the MOD's recorded history at close, never from the failed
engine.  So a heal can lose nothing, whatever state the engine's view
was in — held here on both owners (a supervised session and a
``QueryServer`` group) against the naive baseline, the clean single
engine and the cold one-shot answer.
"""

import logging
import math

import pytest

from repro.baselines.naive import naive_knn_answer
from repro.cache import QueryCache
from repro.core.api import (
    evaluate_knn,
    evaluate_multiknn,
    evaluate_within,
    serve,
)
from repro.core.spec import QuerySpec
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.geometry.vectors import Vector
from repro.io import answer_to_dict
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import New
from repro.obs.explain import explain
from repro.resilience.supervisor import SupervisedQuerySession
from repro.server import ServerConfig
from repro.trajectory.builder import linear_from
from repro.workloads.generator import random_linear_mod

from tests._oracle import (
    KNN,
    MULTIKNN,
    WITHIN,
    BrokenView,
    answers_equal,
    assert_probes_equal,
    generate_scenario,
    run_healed_server,
    run_naive,
    run_single,
    run_supervised,
    sweep_ops,
)

SEEDS = range(12)
POINT = [0.0, 0.0]

# owner -> (runner, the kinds that owner has)
OWNERS = {
    "supervised": (run_supervised, (KNN, WITHIN)),
    "server group": (run_healed_server, (KNN, WITHIN, MULTIKNN)),
}
CASES = [
    (owner, mode) for owner, (_, modes) in OWNERS.items() for mode in modes
]


def _dump(answer):
    if isinstance(answer, dict):
        return {k: answer_to_dict(a) for k, a in answer.items()}
    return answer_to_dict(answer)


# -- (a) a view broken before the race loses nothing ----------------------
@pytest.mark.parametrize("owner,mode", CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_broken_view_heals_to_the_naive_answer(seed, owner, mode):
    sc = generate_scenario(seed)
    naive_final, naive_probes = run_naive(sc, mode)
    final, probes = OWNERS[owner][0](sc, mode, break_view=True)
    assert_probes_equal(probes, naive_probes, owner)
    assert answers_equal(final, naive_final), (
        f"seed {seed} {mode}: {owner} lost part of the answer"
    )


# -- (b) two races, two rebuilds, one answer ------------------------------
@pytest.mark.parametrize("owner,mode", CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_two_heals_in_one_session_match_the_clean_engine(seed, owner, mode):
    sc = generate_scenario(seed)
    clean_final, clean_probes = run_single(sc, mode)
    stats = {}
    final, probes = OWNERS[owner][0](sc, mode, races=2, stats_out=stats)
    # ``rebuilds`` on every owner, and ``failures`` where it is kept.
    assert set(stats.values()) == {2}, stats
    assert_probes_equal(probes, clean_probes, owner)
    assert answers_equal(final, clean_final), (
        f"seed {seed} {mode}: {owner} != clean single engine"
    )


# -- (c) ties exactly at the stitch point ---------------------------------
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


def _open_supervised(db):
    session = SupervisedQuerySession.knn(db, POINT, k=1)
    return session.advance_to, session.close, lambda: session.stats.rebuilds


def _open_server(db, shards=None):
    server = serve(db)
    session = server.register_knn(POINT, k=1, shards=shards)
    return session.advance_to, session.close, lambda: server.stats.rebuilds


TIED_OWNERS = {
    "supervised": _open_supervised,
    "server group": _open_server,
    # ``shards`` is a journaled label: the same one engine group heals.
    "server group shards=2": lambda db: _open_server(db, shards=2),
}


@pytest.mark.parametrize("twins", [False, True])
@pytest.mark.parametrize("owner", list(TIED_OWNERS))
def test_a_tie_exactly_at_the_heal_tau(owner, twins):
    db = _tied_db(twins)
    advance, close, rebuilds = TIED_OWNERS[owner](db)
    db.apply(New("f0", 1.0, Vector.of(0.0, 1.0), Vector.of(50.0, 0.0)))
    advance(2.5)
    # The raced update lands at t = 2: the heal's tau is the instant
    # the ranks swap (and, with twins, an eternal tie straddles it).
    db.apply(New("f1", 2.0, Vector.of(0.0, 1.0), Vector.of(60.0, 0.0)))
    assert rebuilds() == 1
    db.apply(New("f2", 3.0, Vector.of(0.0, 1.0), Vector.of(70.0, 0.0)))
    got = close(4.0)
    want = evaluate_knn(db, POINT, Interval(0.0, 4.0), k=1)
    assert _dump(got) == _dump(want)


# -- (d) a session older than every object: start = -inf ------------------
def _late_comers(db, advance):
    db.create("a", 1.0, position=[3.0, 0.0], velocity=[0.0, 0.0])
    db.create("b", 2.0, position=[5.0, 0.0], velocity=[-1.0, 0.0])
    advance(6.0)
    db.create("c", 3.0, position=[1.0, 0.0], velocity=[1.0, 0.0])  # raced


@pytest.mark.parametrize("owner", ["supervised", "server group"])
def test_a_session_on_an_empty_mod_heals_from_minus_infinity(owner):
    db = MovingObjectDatabase(initial_time=-math.inf)
    advance, close, rebuilds = TIED_OWNERS[owner](db)
    _late_comers(db, advance)
    assert rebuilds() == 1
    got = close(8.0)
    assert got.interval == Interval(-math.inf, 8.0)
    # Nothing exists before t = 1, so a finite window holds it all.
    window = Interval(0.0, 8.0)
    naive = naive_knn_answer(db, SquaredEuclideanDistance(POINT), window, 1)
    assert got.objects == naive.objects == {"a", "b", "c"}
    assert got.restrict(window).approx_equals(naive, atol=1e-6)


# -- (e) the healed past is the one Theorem-4 body, cached like any -------
def _stages(report, name, under=None):
    def walk(stages, inside):
        for stage in stages:
            if inside and stage["name"] == name:
                yield stage
            yield from walk(
                stage.get("children", []), inside or stage["name"] == under
            )

    return list(walk(report.to_dict()["stages"], under is None))


def _healed_pair(cache):
    """Two sessions of one fingerprint in one group, healed at t = 8."""
    db = random_linear_mod(60, seed=1)
    server = serve(db, cache=cache)
    sessions = [server.register_knn(POINT, k=3) for _ in range(2)]
    sessions[0].advance_to(9.0)
    db.create("late", 8.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
    assert server.stats.rebuilds == 1
    return db, server, sessions


def test_healed_close_explains_as_the_uncached_past_query():
    db, server, sessions = _healed_pair(cache=None)
    start = sessions[0].start
    assert sessions[0].unswept == Interval(start, 8.0)
    report = server.explain_close(sessions[0], at=10.0)
    for name in ("prune", "init", "sweep"):
        assert _stages(report, name, under="server.close"), name
    assert not _stages(report, "cache.probe")
    cold = explain(db, POINT, Interval(start, 8.0), "knn", k=3)
    assert sweep_ops(report) == sweep_ops(cold) > 0
    want = evaluate_knn(db, POINT, Interval(start, 10.0), k=3)
    assert _dump(report.answer) == _dump(want)


def test_second_healed_close_of_a_fingerprint_hits_the_cache():
    db, server, sessions = _healed_pair(cache=QueryCache())
    assert (
        sessions[0].query.fingerprint
        == sessions[1].query.fingerprint
        == QuerySpec.knn(POINT, 3).fingerprint
    )
    first, second = (server.explain_close(s, at=10.0) for s in sessions)
    assert _stages(first, "cache.probe")[0]["attrs"]["hit"] is False
    assert sweep_ops(first) > 0
    assert _stages(second, "cache.probe")[0]["attrs"]["hit"] is True
    assert sweep_ops(second) == 0
    assert _dump(second.answer) == _dump(first.answer)


# -- every kind, one cold comparison --------------------------------------
def test_every_kind_closes_equal_to_its_cold_one_shot():
    db = random_linear_mod(12, seed=5)
    server = serve(db)
    sessions = {
        KNN: server.register_knn(POINT, k=2),
        WITHIN: server.register_within(POINT, 30.0),
        MULTIKNN: server.register_multiknn(POINT, [1, 3]),
    }
    for session in sessions.values():
        views = session.group._views
        for key in views:
            views[key] = BrokenView(views[key])
        session.advance_to(6.0)
    db.create("late", 5.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
    assert server.stats.rebuilds == 2  # the rank group and the range group
    window = Interval(0.0, 9.0)
    cold = {
        KNN: evaluate_knn(db, POINT, window, k=2),
        WITHIN: evaluate_within(db, POINT, window, 30.0),
        MULTIKNN: evaluate_multiknn(db, POINT, window, [1, 3]),
    }
    for kind, session in sessions.items():
        assert _dump(session.close(at=9.0)) == _dump(cold[kind]), kind


# -- one log line per heal ------------------------------------------------
def _messages(caplog, logger):
    return [r.getMessage() for r in caplog.records if r.name == logger]


def test_a_host_rebuild_logs_one_line(caplog):
    db = random_linear_mod(4, seed=3)
    session = SupervisedQuerySession.knn(db, POINT, k=1)
    with caplog.at_level(logging.WARNING, logger="repro.server.group"):
        session.advance_to(10.0)
        db.create("late", 5.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
    session.close()
    lines = _messages(caplog, "repro.server.group")
    assert len(lines) == 1
    assert "tau=5.0" in lines[0] and "5 objects" in lines[0]


def test_a_server_heal_and_a_quarantine_log_one_line_each(caplog):
    db = random_linear_mod(4, seed=3)
    server = serve(db, ServerConfig(quarantine_after=1))
    session = server.register_knn(POINT, k=1)
    gid = session.group.gid
    with caplog.at_level(logging.WARNING, logger="repro.server.server"):
        session.advance_to(10.0)
        db.create("late", 5.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
        session.advance_to(12.0)
        db.create("later", 6.0, position=[1.0, 1.0], velocity=[0.0, 0.0])
    lines = _messages(caplog, "repro.server.server")
    assert len(lines) == 2
    assert f"group {gid} rebuilt after failure 1 (ValueError" in lines[0]
    assert f"group {gid} quarantined after failure 2 (ValueError" in lines[1]
    assert session.state == "quarantined"

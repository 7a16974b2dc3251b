"""Live engines order only their candidates: the edges of the planner.

Every live construction site — a plain session, a supervised one, a
bare engine group, a query server's groups — builds one :class:`~repro.sweep.live.LiveSweep`.  Each test
below engineers one edge of its plan / update / re-plan rules in a
hand-built scenario, asserts on the plain session's own host that the
edge really occurred (``tests/_oracle.py::run_session`` reports the
plan windows, candidate counts and re-plans by reason), and then holds
every driver to the two oracles that share nothing with the host: one
bare full-order :class:`~repro.sweep.engine.SweepEngine`
(``run_single``) and the naive O(N^2) baseline (``run_naive``).

The first horizon is pinned (``_seed_horizon`` patched to 2.0, start
0.5), and at a dozen objects halving never pays, so the plan windows
are ``[0.5, 2.5]``, ``[2.5, 6.5]``, ``[6.5, 14.5]`` ... unless an edge
re-plans in between — binary-exact instants an event can be put on.
"""

import math

import pytest

from repro.baselines.naive import naive_knn_answer, naive_within_answer
from repro.core.api import ContinuousQuerySession, evaluate_knn, serve
from repro.core.spec import QuerySpec
from repro.gdist.derived import ApproachRate
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.geometry.vectors import Vector
from repro.io import answer_to_dict
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New, Terminate
from repro.obs.metrics import MetricsRegistry
from repro.sweep.live import LiveSweep
from repro.trajectory.builder import linear_from
from repro.workloads.generator import (
    UpdateStream,
    crossing_rich_mod,
    random_linear_mod,
)
from tests._oracle import (
    KNN,
    MULTIKNN,
    WITHIN,
    Scenario,
    answers_equal,
    assert_probes_equal,
    run_group,
    run_naive,
    run_past,
    run_server,
    run_session,
    run_single,
    run_supervised,
)

START = 0.5
FIRST_HORIZON = 2.0
MODES = (KNN, WITHIN, MULTIKNN)


@pytest.fixture(autouse=True)
def pinned_first_horizon(monkeypatch):
    monkeypatch.setattr(
        LiveSweep, "_seed_horizon", lambda self, items, tau, k: FIRST_HORIZON
    )


def _crowd(count=12):
    """Slow objects far outside every reading below."""
    out = []
    for j in range(count):
        angle = 2.0 * math.pi * j / count
        radius = 100.0 + 3.0 * j
        out.append(
            (
                f"c{j}",
                (radius * math.cos(angle), radius * math.sin(angle)),
                (-0.05 * math.sin(angle), 0.05 * math.cos(angle)),
            )
        )
    return out


class _Scenario(Scenario):
    """A hand-built scenario; ``gd`` swaps the g-distance in."""

    gd = None

    def gdistance(self):
        return self.gd if self.gd is not None else super().gdistance()


def build(actors, stream, horizon, k=1, ks=(1, 3), threshold=16.0, crowd=12, gd=None):
    """Objects given by where they are at ``START`` (and their
    velocity), inserted in the order given, the last one at ``START``
    itself so every driver's window opens there."""
    objects = list(actors) + _crowd(crowd)
    initial = []
    for i, (oid, at_start, velocity) in enumerate(objects):
        born = START - 0.001 * (len(objects) - 1 - i)
        v = Vector.of(*velocity)
        initial.append(
            New(oid, born, velocity=v, position=Vector.of(*at_start) - v * (START - born))
        )
    sc = _Scenario(
        seed=0,
        initial=initial,
        stream=list(stream),
        start=START,
        horizon=horizon,
        point=(0.0, 0.0),
        k=k,
        ks=ks,
        threshold=threshold,
    )
    sc.gd = gd
    return sc


def chdir(oid, t, vx, vy):
    return ChangeDirection(oid, t, Vector.of(vx, vy))


def new(oid, t, x, y, vx=0.0, vy=0.0):
    return New(oid, t, velocity=Vector.of(vx, vy), position=Vector.of(x, y))


def _drivers(mode):
    """Every live construction site that can open ``mode``."""
    if mode != MULTIKNN:
        yield "session", lambda sc: run_session(sc, mode)
        yield "supervised", lambda sc: run_supervised(sc, mode, races=0)
    yield "group", lambda sc: run_group(sc, mode)
    yield "server", lambda sc: run_server(sc, mode)


def hold_every_driver(sc, mode):
    """host ≡ single ≡ naive, final answer and every probe."""
    single_final, single_probes = run_single(sc, mode)
    naive_final, naive_probes = run_naive(sc, mode)
    assert answers_equal(single_final, naive_final), "single vs naive"
    assert_probes_equal(single_probes, naive_probes, "single vs naive")
    for label, drive in _drivers(mode):
        final, probes = drive(sc)
        assert answers_equal(final, single_final), f"{label} vs single ({mode})"
        assert answers_equal(final, naive_final), f"{label} vs naive ({mode})"
        assert_probes_equal(probes, single_probes, f"{label} ({mode})")
    return single_final


def session_facts(sc, mode=KNN):
    facts = {}
    run_session(sc, mode, facts)
    return facts


# ---------------------------------------------------------------------------
# (a) a swap exactly on a horizon boundary
# ---------------------------------------------------------------------------
def swap_on_the_boundary():
    # b reaches a's radius (2) exactly at 2.5, the first horizon's end,
    # and w reaches the range threshold's radius (2.5) at the same instant.
    actors = [
        ("a", (2.0, 0.0), (0.0, 0.0)),
        ("b", (4.5, 0.0), (-1.25, 0.0)),
        ("w", (0.0, 5.0), (0.0, -1.25)),
        ("d", (0.0, -7.0), (0.0, 0.0)),
        ("e", (-8.0, 0.0), (0.0, 0.0)),
    ]
    stream = [chdir("c0", 1.0, 0.0, 0.05), chdir("c1", 4.0, 0.05, 0.0), chdir("c2", 7.5, 0.0, 0.0)]
    return build(actors, stream, 9.0, k=1, ks=(1, 2), threshold=6.25)


@pytest.mark.parametrize("mode", MODES)
def test_swap_exactly_on_a_horizon_boundary(mode):
    sc = swap_on_the_boundary()
    facts = session_facts(sc)
    assert facts["windows"][0] == (0.5, 2.5)
    assert (2.5, 6.5) in facts["windows"]
    final = hold_every_driver(sc, mode)
    if mode == KNN:
        assert final.intervals_for("a").intervals[0].approx_equals(Interval(0.5, 2.5))
        assert final.holds_at("b", 2.6) and not final.holds_at("a", 2.6)
    if mode == WITHIN:
        assert final.intervals_for("w").intervals[0].lo == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# (b) twins tied across the k boundary at a re-plan
# ---------------------------------------------------------------------------
def twins_at_a_replan():
    # t1 and t0 are one curve, inserted t1 first; x dives in during the
    # second horizon only, so the engine is rebuilt at 2.5 with the
    # twins tied at rank 1.
    actors = [
        ("t1", (3.0, 1.0), (0.5, -0.25)),
        ("t0", (3.0, 1.0), (0.5, -0.25)),
        ("c", (6.0, 0.0), (0.0, 0.0)),
        ("x", (20.0, 0.0), (-3.0, 0.0)),
    ]
    stream = [chdir("c0", 1.0, 0.0, 0.05), chdir("c1", 4.0, 0.05, 0.0), chdir("c2", 7.5, 0.0, 0.0)]
    return build(actors, stream, 9.0, k=1, ks=(1, 2), threshold=20.0)


@pytest.mark.parametrize("mode", MODES)
def test_twins_tied_across_rank_k_at_a_replan(mode):
    sc = twins_at_a_replan()
    facts = session_facts(sc)
    at_open, after = facts["candidates"][0], facts["candidates"][-1]
    assert (2.5, 6.5) in facts["windows"] and after != at_open, "engine rebuilt"
    hold_every_driver(sc, mode)
    cold = run_past(sc, mode)
    for label, drive in _drivers(mode):
        final, _ = drive(sc)
        if mode == MULTIKNN:
            got = {k: answer_to_dict(a) for k, a in final.items()}
            want = {k: answer_to_dict(a) for k, a in cold.items()}
        else:
            got, want = answer_to_dict(final), answer_to_dict(cold)
        assert got == want, f"{label}: live vs the cold one-shot"
    if mode == KNN:  # insertion order, on both sides of the re-plan
        assert "t0" not in cold.objects and cold.holds_at("t1", 1.0)
        assert cold.holds_at("t1", 3.0)


# ---------------------------------------------------------------------------
# (c) an update exactly on tau + H, and updates after the horizon lapsed
# ---------------------------------------------------------------------------
def updates_on_and_after_the_boundary():
    actors = [
        ("a", (3.0, 0.0), (0.0, 0.0)),
        ("b", (4.0, 0.0), (0.0, 0.0)),
        ("c", (0.0, 5.0), (0.0, 0.0)),
        ("d", (0.0, -6.0), (0.0, 0.0)),
        ("f", (60.0, 0.0), (0.0, 0.0)),
    ]
    stream = [
        chdir("b", 2.5, -1.0, 0.0),  # a candidate, on the boundary
        chdir("f", 2.5000001, -20.0, 0.0),  # a non-candidate right after it
        # Nothing moves the clock past 4.8 before these: both arrive
        # with the plan lapsed.  n is near: the re-plan at the lapse
        # builds an engine that already knows it.
        new("n", 8.0, 1.0, 0.5),
        # Candidates unchanged at the re-plan: the engine is kept and
        # has to hear of the update, once.
        chdir("a", 20.0, 0.2, 0.0),
    ]
    return build(actors, stream, 24.0, k=2, ks=(1, 3), threshold=20.0)


@pytest.mark.parametrize("mode", MODES)
def test_updates_on_the_boundary_and_after_a_lapse(mode):
    sc = updates_on_and_after_the_boundary()
    facts = session_facts(sc)
    assert facts["windows"][0] == (0.5, 2.5)
    assert facts["windows"][1] == (0.5, 2.5), "an update at tau + H is inside the plan"
    assert facts["replans"]["horizon"] >= 3
    final = hold_every_driver(sc, mode)
    if mode == KNN:
        assert final.holds_at("n", 9.0), "born after a lapse, swept once"


# ---------------------------------------------------------------------------
# (d) a witness chdirs away, witnesses terminate
# ---------------------------------------------------------------------------
def witnesses_lost():
    actors = [
        ("a", (3.0, 0.0), (0.0, 0.0)),
        ("b", (0.0, 4.0), (0.0, 0.0)),
        ("c", (-5.0, 0.0), (0.0, 0.0)),
        ("d", (0.0, -6.0), (0.0, 0.0)),
        ("e", (7.0, 0.0), (0.0, 0.0)),
    ]
    stream = [
        chdir("c", 0.9, -30.0, 0.0),
        Terminate("d", 1.3),
        Terminate("b", 1.7),  # the third of four witnesses: K = 2 no longer stand
        chdir("c0", 2.2, 0.0, 0.0),
        chdir("c1", 5.0, 0.0, 0.0),
    ]
    return build(actors, stream, 8.0, k=2, ks=(1, 2), threshold=30.0)


@pytest.mark.parametrize("mode", MODES)
def test_witness_chdir_away_and_terminate(mode):
    sc = witnesses_lost()
    facts = session_facts(sc)
    assert facts["replans"]["witness"] == 1
    assert (1.7, 3.7) in facts["windows"], "re-planned at the update that broke T"
    final = hold_every_driver(sc, mode)
    if mode == KNN:
        assert final.holds_at("e", 2.0), "the non-candidate the lost witnesses hid"


# ---------------------------------------------------------------------------
# (e) a tenant raises K mid-horizon; the widest tenant leaves
# ---------------------------------------------------------------------------
def _naive(db, gd, spec, lo, hi):
    if spec[0] == "knn":
        return naive_knn_answer(db, gd, Interval(lo, hi), spec[1])
    return naive_within_answer(db, gd, Interval(lo, hi), spec[1])


def test_tenant_raises_k_mid_horizon_and_the_widest_leaves():
    sc = witnesses_lost()
    db = sc.build_db()
    gd = sc.gdistance()
    registry = MetricsRegistry()
    server = serve(db, observe=registry)
    narrow = server.register_knn(gd, k=1)
    db.apply(sc.stream[0])
    assert narrow.advance_to(1.0) == {"a"}
    wide = server.register_knn(gd, k=4)  # same group: a wider plan, at 1.0
    assert wide.start == 1.0 and wide.group is narrow.group
    assert registry.snapshot()['sweep_replans_total{reason="tenant"}'] == 1
    for update in sc.stream[1:3]:
        db.apply(update)
    assert wide.advance_to(2.0) == {"a", "e", "c", "c0"}
    wide_answer = wide.close(at=2.0)  # the widest leaves; the plan stays wide
    db.apply(sc.stream[3])
    db.apply(sc.stream[4])
    narrow_answer = narrow.close(at=8.0)
    server.shutdown()
    assert answers_equal(wide_answer, _naive(db, gd, ("knn", 4), 1.0, 2.0))
    assert answers_equal(narrow_answer, _naive(db, gd, ("knn", 1), START, 8.0))


def test_host_attach_and_detach():
    sc = witnesses_lost()
    db = sc.build_db()
    gd = sc.gdistance()
    host = LiveSweep(db, gd, Interval.at_least(START))
    db.subscribe(host.on_update)
    assert host.engine is None and host.candidates == 0, "nothing read, nothing ordered"
    narrow = host.attach(QuerySpec.knn(gd, 1))
    first = host.engine
    assert host.attach(QuerySpec.knn(gd, 1)).members == narrow.members == {"a"}
    assert host.engine is first, "an attached reading is attached once"
    host.advance_to(0.75)
    wide = host.attach(QuerySpec.multiknn(gd, (2, 5)))
    assert host.replans == 1 and host.engine is not first
    assert wide.members(5) == {"a", "b", "c", "d", "e"}
    assert wide.partial_answers(0.75)[5].interval == Interval(0.75, 0.75)
    host.detach(QuerySpec.multiknn(gd, (2, 5)))
    for update in sc.stream:
        db.apply(update)
    host.advance_to(8.0)
    host.finalize()
    assert answers_equal(narrow.answer(), _naive(db, gd, ("knn", 1), START, 8.0))
    host.detach(QuerySpec.knn(gd, 1))
    assert host.engine is None


# ---------------------------------------------------------------------------
# (f) k >= N, and an empty MOD
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_k_at_least_n(mode):
    actors = [
        ("a", (3.0, 0.0), (0.0, 0.0)),
        ("b", (5.0, 0.0), (-1.0, 0.0)),
        ("c", (0.0, 9.0), (0.0, -0.5)),
    ]
    stream = [chdir("a", 1.0, 1.0, 0.0), Terminate("b", 3.0), new("n", 5.0, 1.0, 1.0)]
    sc = build(actors, stream, 7.0, k=5, ks=(2, 7), threshold=16.0, crowd=0)
    assert max(session_facts(sc)["candidates"]) == 4, "every object is a candidate"
    hold_every_driver(sc, mode)


@pytest.mark.parametrize("mode", MODES)
def test_empty_mod(mode):
    stream = [
        new("n0", 1.0, 3.0, 0.0, -0.5, 0.0),
        new("n1", 1.5, 0.0, 2.0),
        new("n2", 2.0, 9.0, 9.0, -1.0, -1.0),
        new("n3", 3.0, -6.0, 0.0),
        new("n4", 3.5, 0.0, -7.0),
        new("n5", 4.0, 30.0, 0.0),
        chdir("n0", 6.0, 2.0, 0.0),
        Terminate("n1", 8.0),
    ]
    sc = build([], stream, 12.0, k=1, ks=(1, 2), threshold=16.0, crowd=0)
    sc.initial, sc.start = [], START
    assert session_facts(sc)["candidates"][0] == 0
    hold_every_driver(sc, mode)
    empty = build([], [], 3.0, crowd=0)
    empty.initial = []
    hold_every_driver(empty, mode)


# ---------------------------------------------------------------------------
# (g) a settled-in member starts straddling; an object is born in the top-K
# ---------------------------------------------------------------------------
def settled_member_straddles():
    actors = [
        ("in", (1.0, 0.0), (0.0, 0.0)),
        ("near", (0.0, 2.0), (0.0, 0.0)),
        ("mid", (4.0, 0.0), (0.0, 0.0)),
        ("out", (0.0, 9.0), (0.0, 0.0)),
    ]
    stream = [
        chdir("in", 1.25, 4.0, 0.0),  # leaves radius 5 at 2.25, inside the horizon
        new("born", 1.625, 0.5, 0.5),  # nearer than everything, in range
        chdir("c0", 4.0, 0.0, 0.0),
    ]
    return build(actors, stream, 6.0, k=2, ks=(1, 3), threshold=25.0)


@pytest.mark.parametrize("mode", MODES)
def test_settled_member_straddles_and_birth_inside_top_k(mode):
    sc = settled_member_straddles()
    facts = session_facts(sc, WITHIN)
    assert facts["candidates"][0] == 0, "nothing straddles at the open"
    assert facts["candidates"][1] == 1, "the settled-in member entered the engine"
    final = hold_every_driver(sc, mode)
    if mode == WITHIN:
        stay = final.intervals_for("in").intervals
        assert len(stay) == 1 and stay[0].approx_equals(Interval(0.5, 2.25))
        assert final.intervals_for("born").intervals[0].lo == 1.625
    if mode == KNN:
        assert final.holds_at("born", 1.7)


# ---------------------------------------------------------------------------
# (h) a bare clock tick across two horizons
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_bare_tick_across_two_horizons(mode):
    actors = [
        ("a", (3.0, 0.0), (0.0, 0.0)),
        ("b", (6.5, 0.0), (-1.0, 0.0)),  # passes a at 4.0
        ("c", (0.0, 10.5), (0.0, -1.0)),  # passes a at 8.0
        ("d", (0.0, -7.0), (0.0, 0.0)),
        ("e", (-8.0, 0.0), (0.0, 0.0)),
    ]
    # The probe after the first update sits at 13.0: the clock crosses
    # 2.5 and 6.5 with no update in between.
    stream = [chdir("c0", 1.0, 0.0, 0.05), chdir("c1", 30.0, 0.05, 0.0)]
    sc = build(actors, stream, 32.0, k=1, ks=(1, 2), threshold=16.0)
    facts = session_facts(sc)
    assert facts["windows"][1] == (0.5, 2.5) and facts["windows"][2] == (6.5, 14.5)
    # ... and 14.5 on the way to the last update, 30.5 on the way to the close.
    assert facts["replans"] == {"horizon": 4, "witness": 0, "tenant": 0}
    hold_every_driver(sc, mode)


# ---------------------------------------------------------------------------
# (i) a value jump at the update, crossing T at t
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_value_jump_at_the_update_crosses_the_bar(mode):
    gd = ApproachRate([0.0, 0.0])
    actors = [
        ("m1", (8.0, 0.0), (-1.0, 0.0)),
        ("m2", (30.0, 0.0), (-0.2, 0.0)),
        ("m3", (0.0, 40.0), (0.0, -0.1)),
        ("j", (50.0, 0.0), (1.0, 0.0)),  # receding: the last of all
    ]
    stream = [
        chdir("j", 1.5, -3.0, 0.0),  # now diving: the first of all, at 1.5
        chdir("m1", 2.0, -1.0, 0.5),  # a member's own jump
        chdir("c0", 4.0, 0.0, 0.0),
    ]
    sc = build(actors, stream, 6.0, k=1, ks=(1, 2), threshold=-10.0, gd=gd)
    facts = session_facts(sc)
    assert facts["candidates"][1] == facts["candidates"][0] + 1, "j promoted at its jump"
    final = hold_every_driver(sc, mode)
    if mode == KNN:
        assert final.holds_at("m1", 1.4) and final.holds_at("j", 1.6)
        assert final.intervals_for("j").intervals[0].lo == 1.5


# ---------------------------------------------------------------------------
# open cost does not see history; the N = 1000 gate; the stop rule
# ---------------------------------------------------------------------------
def _with_history(turns):
    db = random_linear_mod(60, seed=4)
    stream = UpdateStream(db, seed=5, mean_gap=0.01, weights=(0.0, 0.0, 1.0))
    stream.run(60 * turns)
    return db


def test_open_cost_does_not_see_history(monkeypatch):
    monkeypatch.undo()  # the real first horizon
    old = _with_history(20)
    tau = old.last_update_time
    young = MovingObjectDatabase(initial_time=tau)
    for oid, trajectory in old.all_items():
        young.install(oid, trajectory.restricted(Interval.at_least(tau)))
    assert sum(len(t.pieces) for _, t in old.all_items()) > 10 * 60
    built = []
    real = SquaredEuclideanDistance.__call__

    def counting(self, trajectory):
        curve = real(self, trajectory)
        built.append(curve.piece_count)
        return curve

    monkeypatch.setattr(SquaredEuclideanDistance, "__call__", counting)
    counts = []
    for db in (old, young):
        built.clear()
        session = ContinuousQuerySession.knn(db, [7.0, -3.0], k=3)
        counts.append((sum(built), len(built), session.engine.primitive_ops()))
        session.close()
    assert counts[0] == counts[1]
    assert counts[0][0] == counts[0][1] == 60, "one piece per live object"


def test_live_session_orders_candidates_not_the_database(monkeypatch):
    monkeypatch.undo()
    db = random_linear_mod(1000, seed=1)
    session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=5)
    answer = session.close(at=10.0)
    # 1,974,304 at the parent (ROADMAP, re-anchor @ PR 20).
    assert session.engine.primitive_ops() <= 197_430
    assert answer.approx_equals(
        evaluate_knn(db, [0.0, 0.0], Interval(0.0, 10.0), k=5), atol=1e-6
    )


def test_nothing_prunes_costs_what_it_cost(monkeypatch):
    monkeypatch.undo()
    # One full-order engine over crossing_rich_mod(120) and [0, 10] does
    # 104,815 ops: the parent's live session, and PR 17's stop rule.
    full = 104_815
    # Every object is a candidate (k = N): the plan is that one engine,
    # kept across every re-plan, plus N bound checks per re-plan.
    db = crossing_rich_mod(120, seed=1)
    session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=120)
    session.close(at=10.0)
    host = session.engine
    assert host.candidates == 120 and host.stats.swaps > 6000
    assert host.primitive_ops() - host.bound_checks == full
    assert host.bound_checks <= 0.05 * full
    # At k = 5 the live planner does find horizons short enough to prune
    # on (the one-shot planner, starting from the whole window, does not):
    # the same answer for fewer ops, never more.
    db = crossing_rich_mod(120, seed=1)
    session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=5)
    answer = session.close(at=10.0)
    assert session.engine.primitive_ops() <= 1.05 * full
    assert answer == evaluate_knn(db, [0.0, 0.0], Interval(0.0, 10.0), k=5)


# ---------------------------------------------------------------------------
# scale and margin
# ---------------------------------------------------------------------------
class _Traced(LiveSweep):
    """A host that writes down every plan it makes."""

    def __init__(self, *args, **kwargs):
        self.plans = []
        super().__init__(*args, **kwargs)

    def _plan(self, tau, reason):
        built = super()._plan(tau, reason)
        self.plans.append(
            (
                reason,
                self._start,
                self._end,
                frozenset(self._candidates),
                frozenset(self._witnesses),
            )
        )
        return built


def _scaled_world(seed, space, time):
    """``random_linear_mod(80)`` and 150 of its stream's updates with
    every coordinate x ``space`` and every instant x ``time``."""
    base = random_linear_mod(80, seed=seed, extent=100.0, speed=8.0)
    db = MovingObjectDatabase(initial_time=base.last_update_time * time)
    for oid, traj in base.all_items():
        start = traj.domain.lo
        db.install(
            oid,
            linear_from(
                start * time,
                [c * space for c in traj.position(start)],
                [c * space / time for c in traj.velocity(start)],
            ),
        )
    recorded = []
    base.subscribe(recorded.append)
    UpdateStream(
        base, seed=seed + 100, mean_gap=0.1, extent=100.0, speed=8.0,
        weights=(0.1, 0.1, 0.8),
    ).run(150)
    updates = []
    for u in recorded:
        if isinstance(u, New):
            updates.append(
                New(u.oid, u.time * time, u.velocity * (space / time), u.position * space)
            )
        elif isinstance(u, ChangeDirection):
            updates.append(
                ChangeDirection(u.oid, u.time * time, u.velocity * (space / time))
            )
        else:
            updates.append(Terminate(u.oid, u.time * time))
    return db, updates


def _plan_trace(seed, space, time):
    # A rank reading's plans (a range reading has none: its host is one
    # record per curve).
    spec = QuerySpec.knn(SquaredEuclideanDistance([0.0, 0.0]), 3)
    db, updates = _scaled_world(seed, space, time)
    host = _Traced(db, spec.gdistance, Interval.at_least(db.last_update_time))
    host.attach(spec)
    db.subscribe(host.on_update)
    for update in updates:
        db.apply(update)
    host.advance_to(db.last_update_time + 1.0 * time)
    return [
        [
            (reason, lo / time, hi / time, cands, witnesses)
            for reason, lo, hi, cands, witnesses in host.plans
        ]
    ]


def _same_plans(got, want):
    assert len(got) == len(want)
    for trace, trace1 in zip(got, want):
        assert len(trace) == len(trace1), "the same number of re-plans"
        for (reason, lo, hi, *sets), (reason1, lo1, hi1, *sets1) in zip(trace, trace1):
            assert reason == reason1 and sets == sets1
            assert lo == pytest.approx(lo1, rel=1e-9, abs=0.0)
            assert hi == pytest.approx(hi1, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("seed", range(4))
def test_live_plan_does_not_depend_on_the_unit(monkeypatch, seed):
    """Coordinates x1e-6 ... x1e6, instants x1e-3 / x1e3: the same
    candidates and witnesses at the same (scaled)
    re-plan instants — the margin is relative and the first horizon is
    a ratio of the curves' own values and rates."""
    monkeypatch.undo()  # the real first horizon
    unit = _plan_trace(seed, 1.0, 1.0)
    assert all(len(trace) > 3 for trace in unit), "the scenario re-plans"
    for space in (1e-6, 1e-3, 1e3, 1e6):
        _same_plans(_plan_trace(seed, space, 1.0), unit)
    for time in (1e-3, 1e3):
        _same_plans(_plan_trace(seed, 1.0, time), unit)
    _same_plans(_plan_trace(seed, 1e3, 1e-3), unit)


def test_the_host_adds_no_absolute_tolerance():
    """Every bound comparison of the host goes through
    ``prune._REL_MARGIN`` x the operands' magnitudes: the only float
    literals in its source are an exact zero and the small whole
    numbers of "halve", "double" and the quadratic formula."""
    import io
    import tokenize

    from repro.sweep import live

    with open(live.__file__) as handle:
        source = handle.read()
    floats = {
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.NUMBER and not token.string.isdigit()
    }
    assert floats <= {"0.0", "2.0", "4.0"}, floats
    assert "_REL_MARGIN" not in source, "the margin stays prune.py's"


# ---------------------------------------------------------------------------
# a planner nobody can see is a planner nobody can tune
# ---------------------------------------------------------------------------
def test_replans_are_counted_logged_and_explained(monkeypatch, caplog):
    monkeypatch.undo()
    db = random_linear_mod(200, seed=1)
    registry = MetricsRegistry()
    server = serve(db, observe=registry)
    session = server.register_knn([0.0, 0.0], k=3)
    with caplog.at_level("DEBUG", logger="repro.sweep.live"):
        UpdateStream(db, seed=2, mean_gap=0.05, weights=(0.1, 0.1, 0.8)).run(200)
        session.advance_to(db.last_update_time)
    snapshot = registry.snapshot()
    replans = int(snapshot['sweep_replans_total{reason="horizon"}'])
    group = session.group
    candidates = group.candidates
    assert replans == group.replans > 0
    assert snapshot["sweep_live_candidates"] == candidates < 40
    lines = [r.getMessage() for r in caplog.records if "(horizon)" in r.getMessage()]
    assert len(lines) == replans
    assert "candidates of" in lines[0] and "H=" in lines[0] and "tau=" in lines[0]
    report = server.explain_close(session).to_dict()
    close = next(s for s in report["stages"] if s["name"] == "server.close")
    live = next(s for s in close["children"] if s["name"] == "server.live")
    assert live["attrs"] == {"replans": replans, "candidates": candidates}
    server.shutdown()


def test_a_session_opened_on_a_small_mod_prunes_once_it_can(monkeypatch):
    """Two objects at the open — no bar to draw, every object a
    candidate, no horizon to read off curves that are all at the bar —
    then a population arrives: the plan ends as its candidates double,
    and the next one prunes."""
    monkeypatch.undo()
    db = MovingObjectDatabase(initial_time=0.0)
    db.create("a", 0.1, position=[3.0, 0.0], velocity=[0.001, 0.0])
    db.create("b", 0.2, position=[0.0, 4.0], velocity=[0.0, 0.001])
    session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=1)
    host = session.engine
    assert host.candidates == 2 and host.plan_window.hi == math.inf
    for i in range(60):
        angle = 0.1 * i
        db.create(
            f"n{i}",
            0.3 + 0.01 * i,
            position=[(50.0 + 3 * i) * math.cos(angle), (50.0 + 3 * i) * math.sin(angle)],
            velocity=[-2.0 * math.sin(angle), 2.0 * math.cos(angle)],
        )
    assert db.object_count == 62 and host.candidates <= 8
    assert host.plan_window.hi < 100.0, "the horizon is the population's now"
    answer = session.close(at=5.0)
    gd = SquaredEuclideanDistance([0.0, 0.0])
    assert answer.approx_equals(naive_knn_answer(db, gd, Interval(0.2, 5.0), 1))

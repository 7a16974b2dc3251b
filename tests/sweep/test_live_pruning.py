"""Live engines order only the curves under a bar: the edges of the host.

Every live construction site — a plain session, a supervised one, a
bare engine group, a query server's groups — builds one
:class:`~repro.sweep.live.LiveSweep` for a rank reading (a range
reading's host is :class:`~repro.sweep.within.RangeSweep`).  Each test
below engineers one edge in a hand-built scenario — swaps, ties and
updates on binary-exact instants, members lost, a tenant raising K,
k >= N, the bar's own raise / lower / tenant re-bars — asserts on the
plain session's own host that the edge really occurred where it is a
fact of the host (``tests/_oracle.py::run_session`` reports member
counts and re-bars by reason), and then holds every driver to the two
oracles that share nothing with the host: one bare full-order
:class:`~repro.sweep.engine.SweepEngine` (``run_single``) and the naive
O(N^2) baseline (``run_naive``).

The scenarios start at 0.5 and put their events on binary-exact
instants (2.5, 6.5, 14.5 ...), where ties and simultaneous events are
exact.
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
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.sweep.live import LiveSweep, _Bar
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
MODES = (KNN, WITHIN, MULTIKNN)


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
    assert facts["candidates"][0] == 3, "K + 2 members: the twins and c"
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
    assert facts["replans"]["raise"] >= 1, "the bar rose as its members went"
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
    assert host.replans == 1 and host.engine is first, "a re-bar, one engine"
    assert wide.members(5) == {"a", "b", "c", "d", "e"}
    assert wide.partial_answers(0.75)[5].interval == Interval(0.75, 0.75)
    host.detach(QuerySpec.multiknn(gd, (2, 5)))
    for update in sc.stream:
        db.apply(update)
    host.advance_to(8.0)
    host.finalize()
    assert answers_equal(narrow.answer(), _naive(db, gd, ("knn", 1), START, 8.0))
    host.detach(QuerySpec.knn(gd, 1))
    assert host.engine is first


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
    live = [3, 3, 3, 2, 2, 3, 3]  # at the open and after each update and probe
    assert session_facts(sc)["candidates"] == live, "the bar is infinite"
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
    # 4.0 and 8.0 with no update in between.
    stream = [chdir("c0", 1.0, 0.0, 0.05), chdir("c1", 30.0, 0.05, 0.0)]
    sc = build(actors, stream, 32.0, k=1, ks=(1, 2), threshold=16.0)
    facts = session_facts(sc)
    assert facts["replans"] == {"raise": 0, "lower": 0, "tenant": 0}
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
    db = sc.build_db()
    host = LiveSweep(db, gd, Interval(START, 6.0))
    host.attach(QuerySpec.knn(gd, 1))
    db.subscribe(host.on_update)
    assert "j" not in host._bar.member_ids()
    db.apply(stream[0])
    assert host.engine.objects_in_order()[0] == "j", "j entered at its jump"
    final = hold_every_driver(sc, mode)
    if mode == KNN:
        assert final.holds_at("m1", 1.4) and final.holds_at("j", 1.6)
        assert final.intervals_for("j").intervals[0].lo == 1.5


# ---------------------------------------------------------------------------
# (j) the bar: a raise at a crossing, ties at T, a member terminating as
# the count hits K, births under T, a wider tenant mid-stream
# ---------------------------------------------------------------------------
def raise_at_a_crossing():
    # k = 2: the bar is the 4th value, d's 16.  d and c leave first;
    # then b crosses the bar at 4.5 (radius 4 = sqrt 16 ... plus the
    # margin) with only a under it: the raise comes at b's crossing, as
    # e crosses a (radius 2.5 at 2.5 + ...) on its way in.
    actors = [
        ("a", (1.0, 0.0), (0.0, 0.0)),
        ("b", (0.0, 2.0), (0.0, 0.5)),
        ("c", (3.0, 0.0), (1.0, 0.0)),
        ("d", (0.0, -4.0), (0.0, -1.0)),
        ("e", (0.0, 9.0), (0.0, -1.0)),
        ("f", (-7.0, 0.0), (0.0, 0.0)),
    ]
    stream = [chdir("c0", 2.0, 0.0, 0.05), chdir("e", 6.0, 0.0, 0.0), chdir("c1", 7.0, 0.0, 0.0)]
    return build(actors, stream, 9.0, k=2, ks=(1, 2), threshold=20.0)


@pytest.mark.parametrize("mode", MODES)
def test_a_raise_at_a_crossing_of_the_bar(mode):
    sc = raise_at_a_crossing()
    facts = session_facts(sc)
    assert facts["replans"]["raise"] >= 1
    assert min(facts["candidates"]) >= sc.k, "never fewer than K where it shows"
    hold_every_driver(sc, mode)


def twins_tied_at_the_bar():
    # k = 2: the twins are the two nearest and drift out together; c
    # and d, the rest of the bar's four, leave first.  The twins reach
    # the bar at one instant, and the raise must take both back with
    # their places: t1 (inserted first) stays ahead of t0.
    actors = [
        ("t1", (2.0, 1.0), (0.5, 0.25)),
        ("t0", (2.0, 1.0), (0.5, 0.25)),
        ("c", (0.0, 3.5), (0.0, 2.0)),
        ("d", (-3.8, 0.0), (-2.0, 0.0)),
        ("e", (0.0, -9.0), (0.0, 0.0)),
        ("f", (9.5, 0.0), (0.0, 0.0)),
    ]
    stream = [chdir("c0", 1.0, 0.0, 0.05), chdir("c1", 6.0, 0.0, 0.0)]
    return build(actors, stream, 8.0, k=2, ks=(1, 2), threshold=30.0)


@pytest.mark.parametrize("mode", MODES)
def test_k_curves_tied_at_the_bar(mode):
    sc = twins_tied_at_the_bar()
    facts = session_facts(sc)
    assert facts["replans"]["raise"] >= 1
    final = hold_every_driver(sc, mode)
    if mode == KNN:
        assert final.holds_at("t1", 3.0) and final.holds_at("t0", 3.0)
    if mode == MULTIKNN:
        assert final[1].holds_at("t1", 3.0) and not final[1].holds_at("t0", 3.0)


@pytest.mark.parametrize("spread", [0.0, 1e-13, 1e-9, 1e-7])
def test_curves_moving_out_together_hold_each_raise(spread):
    """Four curves leave the bar together, exactly or nearly tied: a
    raise clears every curve that left since the last re-bar, so the
    bar lands above the whole group, not a margin above one of them
    (where the group would reach it a moment later, raise after
    raise)."""
    db = MovingObjectDatabase(initial_time=0.0)
    for i in range(4):
        db.install(f"c{i}", linear_from(0.0, [3.0, 1.0 + i * spread], [0.5, 0.25]))
    db.install("far", linear_from(0.0, [60.0, 0.0], [0.0, 0.0]))
    db.install("far2", linear_from(0.0, [0.0, 70.0], [0.0, 0.0]))
    gd = SquaredEuclideanDistance([0.0, 0.0])
    session = ContinuousQuerySession.knn(db, gd, k=1, until=50.0)
    answer = session.close(at=50.0)
    assert session.engine.replans <= 2
    engine = SweepEngine(db, gd, Interval(0.0, 50.0))
    view = ContinuousKNN(engine, 1)
    engine.run_to_end()
    assert answers_equal(answer, view.answer())


def member_terminates_at_k():
    # k = 2: c and d leave the bar's four; then b terminates with the
    # count at K, so a raise follows at that very instant.
    actors = [
        ("a", (1.0, 0.0), (0.0, 0.0)),
        ("b", (0.0, 2.0), (0.0, 0.0)),
        ("c", (3.0, 0.0), (2.0, 0.0)),
        ("d", (0.0, -4.0), (0.0, -2.0)),
        ("e", (6.0, 0.0), (0.0, 0.0)),
        ("f", (0.0, 7.0), (0.0, 0.0)),
    ]
    stream = [
        chdir("c0", 1.5, 0.0, 0.05),
        Terminate("b", 2.5),
        chdir("e", 3.0, -1.0, 0.0),
        chdir("c1", 5.0, 0.0, 0.0),
    ]
    return build(actors, stream, 7.0, k=2, ks=(1, 2), threshold=20.0)


@pytest.mark.parametrize("mode", MODES)
def test_a_member_terminating_as_the_count_hits_k(mode):
    sc = member_terminates_at_k()
    facts = session_facts(sc)
    assert facts["replans"]["raise"] >= 1
    final = hold_every_driver(sc, mode)
    if mode == KNN:
        assert final.holds_at("e", 3.5), "the raise found the next curve"


def births_under_the_bar():
    # k = 2, the bar near radius 4: n1 is born inside the top 2, n2
    # under the bar but behind the top 2, n3 outside it, and enough of
    # them (with the crowd kept near) to crowd the bar into a lower.
    actors = [
        ("a", (1.0, 0.0), (0.0, 0.0)),
        ("b", (0.0, 2.0), (0.0, 0.0)),
        ("c", (3.0, 0.0), (0.0, 0.0)),
        ("d", (0.0, -4.0), (0.0, 0.0)),
    ]
    stream = [
        new("n1", 1.0, 0.5, 0.5),
        new("n2", 1.5, 0.0, -3.5, 0.0, 0.5),
        new("n3", 2.0, 8.0, 8.0, -1.0, -1.0),
    ] + [new(f"m{i}", 2.5 + 0.25 * i, 2.5 + 0.1 * i, -1.1) for i in range(12)] + [
        chdir("a", 6.0, 1.0, 0.0),
    ]
    return build(actors, stream, 8.0, k=2, ks=(1, 2), threshold=10.0)


@pytest.mark.parametrize("mode", MODES)
def test_births_under_the_bar(mode):
    sc = births_under_the_bar()
    facts = session_facts(sc)
    assert facts["candidates"][1] == facts["candidates"][0] + 1, "n1 entered"
    assert facts["replans"]["lower"] >= 1, "the births crowded the bar"
    final = hold_every_driver(sc, mode)
    if mode == KNN:
        assert final.holds_at("n1", 1.2)


def test_curves_coming_back_hold_one_entry_each():
    """The member engine lives as long as its host, and a curve that
    crosses down through the bar enters it afresh each time: its
    departed entries go as it comes back, so the engine holds at most
    one entry per object however many crossings the stream makes."""
    n = 20
    db = random_linear_mod(n, seed=2, extent=10.0)
    session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=2)
    stream = UpdateStream(db, seed=5, mean_gap=0.1, extent=10.0, weights=(0.0, 0.0, 1.0))
    stream.run(2000)
    engine = session.engine.engine
    assert engine.stats.insertions > 3 * n, "curves came back many times"
    assert len(engine.all_entries()) <= n
    session.close(at=db.last_update_time)


def test_a_wider_tenant_mid_stream_widens_the_engine():
    """A k=1 group whose engine capped at 1; a k=4 tenant at the same
    point widens the cap (the tournament's champions join the order)
    and re-bars: one engine, no heal, no past query, and both answers
    are the naive one's."""
    db = random_linear_mod(60, seed=3, extent=40.0)
    gd = SquaredEuclideanDistance([0.0, 0.0])
    registry = MetricsRegistry()
    server = serve(db, observe=registry)
    narrow = server.register_knn(gd, k=1)
    stream = UpdateStream(db, seed=4, mean_gap=0.05, weights=(0.1, 0.1, 0.8))
    group = narrow.group
    for _ in range(400):
        stream.step()
        if group.engine.engine.rank_cap is not None:
            break
    host = group.engine
    engine, ops = host.engine, group.primitive_ops()
    assert engine.rank_cap == 1, "the scenario capped the engine"
    wide = server.register_knn(gd, k=4)
    assert wide.group is group and group.engine is host and host.engine is engine
    assert engine.rank_cap == 4 and len(engine.order) == 4
    assert registry.snapshot()['sweep_replans_total{reason="tenant"}'] == 1
    assert group.primitive_ops() > ops and group.epoch_start == 0.0
    assert not any(
        v for name, v in registry.snapshot().items() if name.startswith("server_heal")
    )
    stream.run(60)
    end = db.last_update_time + 0.5
    wide_answer = wide.close(at=end)
    narrow_answer = narrow.close(at=end)
    server.shutdown()
    assert answers_equal(narrow_answer, naive_knn_answer(db, gd, Interval(0.0, end), 1))
    assert answers_equal(
        wide_answer, naive_knn_answer(db, gd, Interval(wide.start, end), 4)
    )


# ---------------------------------------------------------------------------
# open cost does not see history; the N = 1000 gate; the stop rule
# ---------------------------------------------------------------------------
def _with_history(turns):
    db = random_linear_mod(60, seed=4)
    stream = UpdateStream(db, seed=5, mean_gap=0.01, weights=(0.0, 0.0, 1.0))
    stream.run(60 * turns)
    return db


def test_open_cost_does_not_see_history(monkeypatch):
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
    # One piece per curve built, and not a curve per live object: the
    # bar reads the rest in closed form.
    assert counts[0][0] == counts[0][1] < 60, "one piece per curve built"


def test_live_session_orders_candidates_not_the_database():
    db = random_linear_mod(1000, seed=1)
    session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=5)
    answer = session.close(at=10.0)
    # 1,974,304 at the parent (ROADMAP, re-anchor @ PR 20).
    assert session.engine.primitive_ops() <= 197_430
    assert answer.approx_equals(
        evaluate_knn(db, [0.0, 0.0], Interval(0.0, 10.0), k=5), atol=1e-6
    )


def test_nothing_prunes_costs_what_it_cost():
    # One full-order engine over crossing_rich_mod(120) and [0, 10] does
    # 104,815 ops: the parent's live session, and PR 17's stop rule.
    full = 104_815
    # Every object is a member (k = N: fewer curves than K + 2, the bar
    # is infinite): the host is that one engine and a bar that never
    # computes a crossing.
    db = crossing_rich_mod(120, seed=1)
    session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=120)
    session.close(at=10.0)
    host = session.engine
    assert host.candidates == 120 and host.stats.swaps > 6000
    assert host.primitive_ops() - host.bound_checks == full
    assert host.bound_checks <= 0.05 * full
    # At k = 5 the bar prunes (the one-shot planner, bounding the whole
    # window, does not): the same answer for fewer ops, never more.
    db = crossing_rich_mod(120, seed=1)
    session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=5)
    answer = session.close(at=10.0)
    assert session.engine.primitive_ops() <= 1.05 * full
    assert answer == evaluate_knn(db, [0.0, 0.0], Interval(0.0, 10.0), k=5)


# ---------------------------------------------------------------------------
# scale and margin
# ---------------------------------------------------------------------------
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


def _bar_trace(seed, space, time, monkeypatch):
    """The members at the open and every re-bar — the reason, the
    instant and the members it drew — of a k=3 host over a scaled
    world, which a k=5 tenant joins at its last update (a range reading
    has no bar: its host is one record per curve)."""
    rebars = []
    real = _Bar.rebar

    def rebar(self, t, reason, k=None):
        real(self, t, reason, k)
        rebars.append((reason, t / time, frozenset(self.member_ids())))

    monkeypatch.setattr(_Bar, "rebar", rebar)
    gd = SquaredEuclideanDistance([0.0, 0.0])
    db, updates = _scaled_world(seed, space, time)
    host = LiveSweep(db, gd, Interval.at_least(db.last_update_time))
    host.attach(QuerySpec.knn(gd, 3))
    opened = frozenset(host._bar.member_ids())
    db.subscribe(host.on_update)
    for i, update in enumerate(updates):
        if i == len(updates) - 1:
            host.attach(QuerySpec.knn(gd, 5))
        db.apply(update)
    host.advance_to(db.last_update_time + 1.0 * time)
    monkeypatch.undo()
    return [opened] + rebars


def _same_bars(got, want):
    assert len(got) == len(want), "the same number of re-bars"
    assert got[0] == want[0], "the same members at the open"
    for (reason, t, members), (reason1, t1, members1) in zip(got[1:], want[1:]):
        assert reason == reason1 and members == members1
        assert t == pytest.approx(t1, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("seed", range(4))
def test_live_plan_does_not_depend_on_the_unit(monkeypatch, seed):
    """Coordinates x1e-6 ... x1e6, instants x1e-3 / x1e3: the same
    members at the open and the same re-bars, at the same (scaled)
    instants and drawing the same members — the margin is relative and
    the bar a rank of the curves' own values."""
    unit = _bar_trace(seed, 1.0, 1.0, monkeypatch)
    assert len(unit) > 1, "the scenario re-bars"
    for space in (1e-6, 1e-3, 1e3, 1e6):
        _same_bars(_bar_trace(seed, space, 1.0, monkeypatch), unit)
    for time in (1e-3, 1e3):
        _same_bars(_bar_trace(seed, 1.0, time, monkeypatch), unit)
    _same_bars(_bar_trace(seed, 1e3, 1e-3, monkeypatch), unit)


def test_the_host_adds_no_absolute_tolerance():
    """Every bound comparison of the host goes through
    ``prune._REL_MARGIN`` x the operands' magnitudes (through the bar's
    records): its source holds no float literal but an exact zero or a
    small whole number."""
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
def test_replans_are_counted_logged_and_explained(caplog):
    db = random_linear_mod(200, seed=1)
    registry = MetricsRegistry()
    server = serve(db, observe=registry)
    session = server.register_knn([0.0, 0.0], k=3)
    with caplog.at_level("DEBUG", logger="repro.sweep.live"):
        UpdateStream(db, seed=2, mean_gap=0.05, weights=(0.1, 0.1, 0.8)).run(200)
        session.advance_to(db.last_update_time)
    snapshot = registry.snapshot()
    replans = {
        reason: int(snapshot[f'sweep_replans_total{{reason="{reason}"}}'])
        for reason in ("raise", "lower", "tenant")
    }
    group = session.group
    candidates, rebars = group.candidates, group.replans
    assert sum(replans.values()) == rebars > 0
    assert snapshot["sweep_live_candidates"] == candidates < 40
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("re-bar")]
    assert len(lines) == rebars
    assert "members of" in lines[0] and "T=" in lines[0] and "tau=" in lines[0]
    report = server.explain_close(session).to_dict()
    close = next(s for s in report["stages"] if s["name"] == "server.close")
    live = next(s for s in close["children"] if s["name"] == "server.live")
    assert live["attrs"] == {"replans": rebars, "candidates": candidates}
    server.shutdown()


def test_a_session_opened_on_a_small_mod_prunes_once_it_can():
    """Two objects at the open — fewer than K + 2, so the bar is
    infinite and every object a member — then a population arrives: the
    members crowd the bar, it is lowered, and the engine prunes."""
    db = MovingObjectDatabase(initial_time=0.0)
    db.create("a", 0.1, position=[3.0, 0.0], velocity=[0.001, 0.0])
    db.create("b", 0.2, position=[0.0, 4.0], velocity=[0.0, 0.001])
    session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=1)
    host = session.engine
    assert host.candidates == 2 and host._bar.threshold == math.inf
    for i in range(60):
        angle = 0.1 * i
        db.create(
            f"n{i}",
            0.3 + 0.01 * i,
            position=[(50.0 + 3 * i) * math.cos(angle), (50.0 + 3 * i) * math.sin(angle)],
            velocity=[-2.0 * math.sin(angle), 2.0 * math.cos(angle)],
        )
    assert db.object_count == 62 and host.candidates <= 8
    assert host.replans >= 1 and host._bar.threshold < math.inf
    answer = session.close(at=5.0)
    gd = SquaredEuclideanDistance([0.0, 0.0])
    assert answer.approx_equals(naive_knn_answer(db, gd, Interval(0.2, 5.0), 1))

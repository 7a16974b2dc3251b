"""The pruned one-shot past path held to the oracle.

``evaluate_knn`` / ``evaluate_within`` / ``evaluate_multiknn`` without
``shards`` or ``cache`` bound every curve over slices of the window,
sweep only the candidates (:mod:`repro.sweep.prune`) and stitch.  Here
that path (``tests._oracle.run_past``) must equal a single full-order
engine and the naive baseline on every differential seed — as planned
(one initial slice), and with the planner started from 3 / 7 equal
slices — with and without a crowd of far
objects for the bounds to throw out; then the hand-built edges, the
candidate-superset and bracketing properties, and the margin's scale
property.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_knn_answer, naive_within_answer
from repro.cache.curve_store import CurveStore
from repro.core.api import (
    _single_sweep,
    evaluate_knn,
    evaluate_multiknn,
    evaluate_within,
)
from repro.core.spec import QuerySpec
from repro.gdist.base import CallableGDistance
from repro.gdist.derived import ApproachRate
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.geometry.piecewise import PiecewiseFunction
from repro.geometry.poly import Polynomial
from repro.geometry.vectors import Vector
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import New
from repro.obs import Instrumentation, explain
from repro.sweep.engine import SweepEngine
from repro.sweep.prune import candidate_mod, plan_sweep
from repro.sweep.within import ContinuousWithin, RangeSweep
from repro.trajectory.builder import from_waypoints, linear_from, stationary
from repro.workloads.generator import crossing_rich_mod, random_linear_mod
from tests._oracle import (
    KNN,
    MULTIKNN,
    WITHIN,
    answers_equal,
    generate_scenario,
    run_naive,
    run_past,
    run_single,
)
from tests.parallel.test_differential import (
    KNN_SEEDS,
    MULTIKNN_SEEDS,
    WITHIN_SEEDS,
)

ORIGIN = SquaredEuclideanDistance([0.0, 0.0])
SLICINGS = (1, 3, 7)  # 1 is the plan as shipped
FAR_EXTRAS = 12


def full_order(db, spec, window):
    """The answer of one full-order engine over ``window``: what the
    one-shot path was before it pruned."""
    engine = SweepEngine(db, spec.gdistance, window, constants=spec.constants)
    if spec.ranks:
        view = spec.view(engine)
    else:  # the range reading's sentinel view
        view = ContinuousWithin(engine, spec.threshold)
    engine.run_to_end()
    return spec.answer(view), engine


def with_far_extras(sc, count=FAR_EXTRAS):
    """``sc`` plus ``count`` slow objects far outside everything the
    scenario's objects can reach, created *before* them (so candidates
    are not a prefix of insertion order)."""
    rng = random.Random(sc.seed ^ 0x5EED)
    extras = []
    for j in range(count):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(400.0, 900.0)
        extras.append(
            New(
                f"far{j}",
                0.0009 * (j + 1) / (count + 1),
                velocity=Vector.of(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                position=Vector.of(
                    radius * math.cos(angle), radius * math.sin(angle)
                ),
            )
        )
    return dataclasses.replace(sc, initial=extras + list(sc.initial))


# -- the differential seeds ---------------------------------------------------
def _differential(seed, mode):
    """``run_past`` (as planned and from 3 / 7 initial slices) against
    ``run_single`` and ``run_naive``; then the same scenario with the
    far crowd against ``run_single`` (the O(N^2) baseline over the
    crowd on every fifth seed only — it is most of this file's time)."""
    sc = generate_scenario(seed)
    crowded = with_far_extras(sc)
    for scenario, naive in ((sc, True), (crowded, seed % 5 == 0)):
        references = {"single engine": run_single(scenario, mode)[0]}
        if naive:
            references["naive baseline"] = run_naive(scenario, mode)[0]
        for slices in SLICINGS:
            past = run_past(scenario, mode, slices)
            for name, reference in references.items():
                assert answers_equal(past, reference), (
                    f"seed {seed} slices={slices} "
                    f"objects={len(scenario.initial)}: past path "
                    f"disagrees with {name}"
                )


@pytest.mark.parametrize("seed", KNN_SEEDS)
def test_knn_past_equals_single_equals_naive(seed):
    _differential(seed, KNN)


@pytest.mark.parametrize("seed", WITHIN_SEEDS)
def test_within_past_equals_single_equals_naive(seed):
    _differential(seed, WITHIN)


@pytest.mark.parametrize("seed", MULTIKNN_SEEDS)
def test_multiknn_past_equals_single_equals_naive(seed):
    _differential(seed, MULTIKNN)


def test_far_extras_are_pruned():
    """The crowd is there to be thrown out — check that it is."""
    sc = with_far_extras(generate_scenario(3))
    db = sc.build_db()
    for update in sc.stream:
        db.apply(update)
    spec = QuerySpec.knn(sc.gdistance(), sc.k)
    plan = plan_sweep(
        db, spec, Interval(sc.start, sc.horizon), CurveStore()
    )
    swept = {oid for piece in plan.slices for oid in piece.candidates}
    assert not any(str(oid).startswith("far") for oid in swept)
    assert plan.objects == len(sc.initial) + sum(
        isinstance(u, New) for u in sc.stream
    )


# -- hand-built edges ---------------------------------------------------------
def _line(db, oid, x0, vx, y=0.0, start=0.0):
    db.install(oid, linear_from(start, [x0, y], [vx, 0.0]))


def _crowd(db, count=8, base=500.0):
    for j in range(count):
        _line(db, f"far{j}", base + 10.0 * j, 0.1)


def _all_slicings(db, spec, window):
    return [
        _single_sweep(db, spec, window, None, _slices=slices)
        for slices in SLICINGS
    ]


class TestHandBuiltEdges:
    def test_swap_exactly_on_a_slice_boundary(self):
        # |0.5 + t| and |10.5 - t| cross at exactly t = 5, where 2 and
        # 10 initial slices over [0, 10] both cut.  ``leaver`` is a
        # candidate before the cut only, so the planner keeps the cut
        # (equal neighbours would be one slice again).
        db = MovingObjectDatabase(initial_time=0.0)
        _line(db, "a", 0.5, 1.0)
        _line(db, "b", 10.5, -1.0)
        _line(db, "leaver", 5.0, 2.0)
        _crowd(db)
        window = Interval(0.0, 10.0)
        spec = QuerySpec.knn(ORIGIN, 1)
        expected, _ = full_order(db, spec, window)
        naive = naive_knn_answer(db, ORIGIN, window, 1)
        for slices in (1, 2, 10):
            got = _single_sweep(db, spec, window, None, _slices=slices)
            assert got.approx_equals(expected) and got.approx_equals(naive)
            # The cut leaves no trace: one membership interval each.
            assert got.segment_count() == expected.segment_count() == 2
        plan = plan_sweep(db, spec, window, CurveStore(), 2)
        assert 5.0 in [piece.lo for piece in plan.slices]

    def test_twins_straddling_rank_k(self):
        # Two identical curves compete for the last of k = 2 places.
        db = MovingObjectDatabase(initial_time=0.0)
        _line(db, "near", 1.0, 0.0)
        _line(db, "t1", 5.0, 0.5)
        _line(db, "t0", 5.0, 0.5)
        _crowd(db)
        window = Interval(0.0, 4.0)
        spec = QuerySpec.knn(ORIGIN, 2)
        expected, _ = full_order(db, spec, window)
        assert expected.objects == {"near", "t1"}  # insertion order
        for got in _all_slicings(db, spec, window):
            assert got == expected
        assert naive_knn_answer(db, ORIGIN, window, 2).approx_equals(expected)

    def test_born_terminated_and_turned_mid_slice(self):
        db = MovingObjectDatabase(initial_time=10.0)
        db.install("steady", stationary([6.0, 0.0]))
        # Born at 2 right next to the query, gone at 5.
        db.install(
            "visitor", from_waypoints([(2.0, [1.0, 0.0]), (5.0, [2.0, 0.0])])
        )
        # Turns around at 4: approaches, then recedes.
        db.install(
            "turner",
            from_waypoints([(0.0, [20.0, 0.0]), (4.0, [3.0, 0.0]), (9.0, [30.0, 0.0])]),
        )
        _crowd(db)
        window = Interval(0.0, 8.0)
        for spec, naive in (
            (QuerySpec.knn(ORIGIN, 1), naive_knn_answer(db, ORIGIN, window, 1)),
            (
                QuerySpec.within(ORIGIN, 36.0),
                naive_within_answer(db, ORIGIN, window, 36.0),
            ),
        ):
            expected, _ = full_order(db, spec, window)
            for got in _all_slicings(db, spec, window):
                assert got.approx_equals(expected)
                assert got.approx_equals(naive)

    def test_on_the_threshold_for_the_whole_window(self):
        # Distance exactly 5 from the query, forever: in (closed <=).
        db = MovingObjectDatabase(initial_time=0.0)
        db.install("rim", stationary([3.0, 4.0]))
        db.install("inside", stationary([1.0, 1.0]))
        _crowd(db)
        window = Interval(0.0, 6.0)
        spec = QuerySpec.within([0.0, 0.0], 5.0)
        expected, _ = full_order(db, spec, window)
        assert expected.objects == {"rim", "inside"}
        for got in _all_slicings(db, spec, window):
            assert got == expected
        # ``inside`` and the crowd are decided by their bounds; only
        # ``rim``'s crossing is computed (and there is none).
        host = RangeSweep(db, spec.gdistance, window, spec.threshold)
        assert host.bound_checks == 10 and host.stats.flip_computations == 1

    def test_tangent_to_the_threshold(self):
        # Passes the query at closest distance exactly 5, at t = 4.
        db = MovingObjectDatabase(initial_time=0.0)
        _line(db, "grazer", -8.0, 2.0, y=5.0)
        _crowd(db)
        window = Interval(0.0, 8.0)
        spec = QuerySpec.within([0.0, 0.0], 5.0)
        expected, _ = full_order(db, spec, window)
        for got in _all_slicings(db, spec, window):
            assert got.approx_equals(expected)

    def test_k_at_least_n(self):
        db = random_linear_mod(6, seed=4, extent=30.0)
        window = Interval(0.0, 5.0)
        for k in (6, 9):
            spec = QuerySpec.knn(ORIGIN, k)
            expected, _ = full_order(db, spec, window)
            assert expected.objects == set(db.object_ids)
            for got in _all_slicings(db, spec, window):
                assert got == expected

    def test_empty_mod(self):
        db = MovingObjectDatabase(initial_time=0.0)
        window = Interval(0.0, 5.0)
        assert evaluate_knn(db, [0.0, 0.0], window, k=2).objects == set()
        assert evaluate_within(db, [0.0, 0.0], window, 3.0).objects == set()
        assert {
            k: a.objects
            for k, a in evaluate_multiknn(db, [0.0, 0.0], window, [1, 2]).items()
        } == {1: set(), 2: set()}

    def test_point_window(self):
        db = random_linear_mod(40, seed=9)
        window = Interval(3.0, 3.0)
        for spec in (QuerySpec.knn(ORIGIN, 3), QuerySpec.within(ORIGIN, 60.0**2)):
            expected, _ = full_order(db, spec, window)
            assert _single_sweep(db, spec, window, None) == expected

    def test_discontinuous_gdistance(self):
        # Approach rates jump at every turn; a curve may leap over
        # non-neighbours there, and its bounds must hold both limits.
        db = MovingObjectDatabase(initial_time=10.0)
        db.install("slow", linear_from(0.0, [100.0, 0.0], [-0.005, 0.0]))
        db.install("medium", linear_from(0.0, [100.0, 0.0], [-0.01, 0.0]))
        db.install(
            "jumper",
            from_waypoints([(0, [100.0, 0.0]), (5, [102.0, 0.0]), (6, [97.0, 0.0])]),
        )
        for j in range(6):
            db.install(f"away{j}", linear_from(0.0, [50.0, 0.0], [3.0 + j, 0.0]))
        gd = ApproachRate([0.0, 0.0])
        window = Interval(0.0, 10.0)
        spec = QuerySpec.knn(gd, 1)
        expected, _ = full_order(db, spec, window)
        naive = naive_knn_answer(db, gd, window, 1)
        for got in _all_slicings(db, spec, window):
            assert got.approx_equals(expected, atol=1e-6)
            assert got.approx_equals(naive, atol=1e-6)
        assert expected.holds_at("jumper", 6.0)

    def test_degree_four_gdistance(self):
        # The squared squared distance: same ranking, quartic pieces,
        # stationary points from geometry/roots.py.
        quartic = CallableGDistance(
            lambda traj: ORIGIN(traj) * ORIGIN(traj), name="d^4"
        )
        db = random_linear_mod(60, seed=2, extent=60.0)
        window = Interval(0.0, 6.0)
        spec = QuerySpec.knn(quartic, 3)
        expected, _ = full_order(db, spec, window)
        plan = plan_sweep(db, spec, window, CurveStore())
        assert plan.candidates < plan.objects
        for got in _all_slicings(db, spec, window):
            assert got.approx_equals(expected)
        assert evaluate_knn(db, [0.0, 0.0], window, k=3).approx_equals(expected)


class TestNoPruneIdentity:
    """When nothing prunes, the path is the one engine it used to be."""

    def test_crossing_rich_costs_what_it_cost(self):
        db = crossing_rich_mod(60, seed=1)
        window = Interval(0.0, 10.0)
        expected, engine = full_order(db, QuerySpec.knn(ORIGIN, 5), window)
        report = explain(db, [0.0, 0.0], window, "knn", k=5)
        assert report.answer == expected
        stages = {s["name"]: s for s in report.to_dict()["stages"]}
        assert stages["prune"]["attrs"] == {
            "objects": 60,
            "candidates": 60,
            "slices": 1,
            "overlap_pairs": 60 * 59 // 2,
        }
        assert (
            stages["init"]["attrs"]["ops"] + stages["sweep"]["attrs"]["ops"]
            == engine.primitive_ops()
        )

    def test_candidate_mod_keeps_insertion_order(self):
        db = random_linear_mod(12, seed=3)
        db.terminate("o4", 1.0)
        picked = candidate_mod(db, ["o9", "o4", "o0", "o7"])
        assert [oid for oid, _ in picked.all_items()] == ["o0", "o7", "o9", "o4"]
        assert picked.last_update_time == db.last_update_time
        assert picked.trajectory("o7") is db.trajectory("o7")


class TestObservability:
    def test_explain_prune_stage_and_summed_ops(self):
        db = random_linear_mod(300, seed=1)
        window = Interval(0.0, 20.0)
        report = explain(db, [0.0, 0.0], window, "knn", k=3)
        stages = {s["name"]: s for s in report.to_dict()["stages"]}
        assert {"prune", "init", "sweep", "answer"} <= set(stages)
        prune = stages["prune"]["attrs"]
        assert prune["objects"] == 300
        assert prune["slices"] > 1
        assert prune["candidates"] < 300
        assert stages["init"]["count"] == prune["slices"]
        assert stages["init"]["attrs"]["ops"] > 0
        assert stages["sweep"]["attrs"]["ops"] > 0
        assert report.coverage >= 0.9
        expected, engine = full_order(db, QuerySpec.knn(ORIGIN, 3), window)
        assert report.answer.approx_equals(expected)
        assert (
            stages["init"]["attrs"]["ops"] + stages["sweep"]["attrs"]["ops"]
            < engine.primitive_ops() / 10
        )

    def test_prune_counters(self):
        obs = Instrumentation()
        db = random_linear_mod(100, seed=6)
        evaluate_knn(db, [0.0, 0.0], Interval(0.0, 2.0), k=2, observe=obs)
        evaluate_within(db, [0.0, 0.0], Interval(0.0, 2.0), 30.0, observe=obs)
        series = obs.metrics.snapshot()
        assert series["sweep_prune_objects_total"] == 200
        assert 0 < series["sweep_prune_candidates_total"] < 200
        assert series["sweep_prune_slices_total"] >= 2


# -- properties -----------------------------------------------------------------
@st.composite
def mods_and_windows(draw):
    count = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    extent = draw(st.sampled_from([5.0, 50.0, 500.0]))
    speed = draw(st.sampled_from([0.5, 5.0, 40.0]))
    lo = draw(st.floats(min_value=0.0, max_value=20.0))
    length = draw(st.floats(min_value=0.0, max_value=30.0))
    k = draw(st.integers(min_value=1, max_value=6))
    db = random_linear_mod(count, seed=seed, extent=extent, speed=speed)
    return db, Interval(lo, lo + length), k, extent


@settings(max_examples=120)
@given(mods_and_windows())
def test_every_answer_object_is_a_candidate_of_its_slice(case):
    db, window, k, extent = case
    spec = QuerySpec.knn(ORIGIN, k)  # a range reading has no plan
    expected, _ = full_order(db, spec, window)
    for slices in (1, 4):
        plan = plan_sweep(db, spec, window, CurveStore(), slices)
        for piece in plan.slices:
            here = expected.restrict(Interval(piece.lo, piece.hi))
            for oid in here.objects:
                if here.intervals_for(oid).total_length <= 1e-9:
                    continue  # touches the slice in one instant
                assert oid in piece.candidates, (oid, piece)


@st.composite
def curves_and_stretches(draw):
    degree = draw(st.integers(min_value=0, max_value=5))
    coefficient = st.floats(min_value=-50.0, max_value=50.0)
    cuts = sorted(
        draw(
            st.lists(
                st.floats(min_value=-10.0, max_value=10.0),
                min_size=2,
                max_size=4,
                unique=True,
            )
        )
    )
    pieces = [
        (
            Interval(a, b),
            Polynomial(draw(st.lists(coefficient, min_size=1, max_size=degree + 1))),
        )
        for a, b in zip(cuts, cuts[1:])
    ]
    lo = draw(st.floats(min_value=-12.0, max_value=12.0))
    hi = lo + draw(st.floats(min_value=0.0, max_value=24.0))
    return PiecewiseFunction(pieces), lo, hi


@settings(max_examples=400)
@given(curves_and_stretches())
def test_bounds_bracket_sampled_values(case):
    curve, lo, hi = case
    found = curve.bounds(lo, hi)
    a, b = max(lo, curve.domain.lo), min(hi, curve.domain.hi)
    if a > b:
        assert found is None
        return
    vmin, vmax, magnitude = found
    assert vmin <= vmax
    # Each sample and each bound is a float within a few ulps *of the
    # magnitude*; the margin the pruner leaves is 1e-9 of it.
    slack = 1e-12 * max(magnitude, 1.0)
    for i in range(64):
        t = a + (b - a) * i / 63.0
        assert vmin - slack <= curve(t) <= vmax + slack
        assert vmin - slack <= curve.value_after(t) <= vmax + slack
        assert abs(curve(t)) <= magnitude * (1.0 + 1e-12)


# -- the margin's scale property --------------------------------------------------
def _scaled(db, factor):
    out = MovingObjectDatabase(initial_time=db.last_update_time)
    for oid, traj in db.all_items():
        start = traj.domain.lo
        out.install(
            oid,
            linear_from(
                start,
                [c * factor for c in traj.position(start)],
                [c * factor for c in traj.velocity(start)],
            ),
        )
    return out


SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
SCALE_WINDOW = Interval(0.0, 6.0)


def _scale_specs(factor):
    return (
        QuerySpec.knn(ORIGIN, 3),
        QuerySpec.within(ORIGIN, (40.0 * factor) ** 2),
    )


def _scale_base(seed):
    return random_linear_mod(80, seed=seed, extent=100.0, speed=8.0)


@pytest.mark.parametrize("seed", range(6))
def test_candidates_do_not_depend_on_the_unit(seed):
    """Coordinates x1e-6 ... x1e6: the same slices and candidates, and
    the same curves whose crossing the range host computes, at every
    scale — the margin is relative."""
    base = _scale_base(seed)
    seen = {}
    for factor in SCALES:
        db = _scaled(base, factor)
        knn, within = _scale_specs(factor)
        plan = plan_sweep(db, knn, SCALE_WINDOW, CurveStore())
        host = RangeSweep(db, within.gdistance, SCALE_WINDOW, within.threshold)
        seen[factor] = (
            [(s.lo, s.hi, s.candidates) for s in plan.slices],
            host.stats.flip_computations,
        )
    for factor in SCALES:
        assert seen[factor] == seen[1.0], factor


def _memberships_match_the_unit_scale(seed, factor):
    """Memberships are sets of objects and endpoints in time: at
    ``factor`` the pruned answer is the full-order engine's and the
    x1 answer."""
    base = _scale_base(seed)
    db = _scaled(base, factor)
    for spec, spec1 in zip(_scale_specs(factor), _scale_specs(1.0)):
        answer = _single_sweep(db, spec, SCALE_WINDOW, None)
        answer1 = _single_sweep(base, spec1, SCALE_WINDOW, None)
        assert answer.approx_equals(full_order(db, spec, SCALE_WINDOW)[0])
        assert answer.objects == answer1.objects
        assert answer.approx_equals(answer1, atol=1e-6)


@pytest.mark.parametrize("seed", range(6))
def test_memberships_do_not_depend_on_the_unit(seed):
    for factor in (1e-3, 1e3, 1e6):
        _memberships_match_the_unit_scale(seed, factor)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 5: at x1e-6 the engine's absolute literals "
        "(_SIGN_ATOL = 1e-11 against squared distances of 1e-9) read a "
        "tie where there is a crossing, in a full-order engine as in a "
        "slice's, differently under a different horizon"
    ),
)
def test_memberships_at_a_millionth_of_the_unit():
    for seed in range(6):
        _memberships_match_the_unit_scale(seed, 1e-6)

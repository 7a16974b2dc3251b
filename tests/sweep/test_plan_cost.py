"""A deterministic call budget on the plan pass, and what it builds.

Theorem 5 prices initialisation at ``O(N log N)``: every curve written
down, bounded and keyed into the order.  Every open, re-bar, one-shot
past query and heal makes a pass over all ``N`` objects, so its
constant is the Python calls it makes per object.  Wall time cannot
gate that on a shared machine; the ``sys.setprofile`` count of
``tests/gdist/test_curve_cost.py`` can, the same number on every run.

Counts (CPython 3.11) at the parent of the closed-form Taylor key and
the lean curve store ("first"), before the pass read bounds in closed
form ("curves", when it built every curve first) and now, measured
exactly as below:

==================================================  =====  ======  =====  ======
what                                                first  curves   now   budget
==================================================  =====  ======  =====  ======
``forward_taylor(t, 3)``, one quadratic cell           14       2      3       3
one-piece ``CurveStore.tail`` miss                     21      10     10      12
``CurveStore.tail`` hit                                 4       1      1       1
open at a fresh point after 300 updates, per object  53.7    26.4   19.3      23
``plan_sweep`` knn k=5, N=400, ``[0, 2]``, per obj.  29.5    11.4    6.6       7
one-shot within 50, N=400, ``[0, 2]``, per object       -    22.5   15.8      18
==================================================  =====  ======  =====  ======

Every budget of the last column fails where it was set, and the first
three and the 32 / 18 budgets below fail at "first".  Curves built,
"curves" -> now: the knn plan 400 -> 9 (its candidates), the within
400 -> 9 (the records its bounds leave undecided), the open 198 -> 10
of 197 live objects.  A query moving through four waypoints had no
closed form until it walked both piece lists: after 50 updates to 200
objects its knn 3 and within 40 opens built all 197 live curves,
against 30 and 65 for a point query; now 21 and 58.
"""

import math

from repro.cache import CurveStore
from repro.core.api import _single_sweep
from repro.core.spec import QuerySpec
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.server import QueryServer
from repro.trajectory.builder import from_waypoints
from repro.sweep.prune import _REL_MARGIN, plan_sweep
from repro.workloads.generator import UpdateStream, random_linear_mod
from tests.gdist.test_curve_cost import make, python_calls


def test_a_taylor_key_is_a_piece_lookup_and_arithmetic():
    gd, one, _ = make()
    curve = gd(one)
    assert curve.pieces[0][1].degree == 2
    assert python_calls(curve.forward_taylor, 0.5, 3) <= 3


def test_a_one_piece_tail_miss_and_hit():
    gd, one, _ = make()
    store = CurveStore()
    assert python_calls(store.tail, gd, "o", one, 0.5) <= 12
    assert (store.hits, store.misses) == (0, 1)
    # The table at hand, one dict lookup, two identity checks.
    assert python_calls(store.tail, gd, "o", one, 0.5) <= 1
    assert (store.hits, store.misses) == (1, 1)


def test_an_open_per_live_object():
    db = random_linear_mod(200, seed=1)
    server = QueryServer(db)
    server.register_knn([0.0, 0.0], k=3)
    UpdateStream(db, seed=7, mean_gap=0.05, weights=(0.1, 0.1, 0.8)).run(300)
    live = len(db.object_ids)
    calls = python_calls(server.register_knn, [13.0, 5.0], 2)
    assert calls <= 32 * live, calls / live


def test_a_past_plan_per_object():
    db = random_linear_mod(400, seed=1)
    spec = QuerySpec.knn([0.0, 0.0], 5)
    calls = python_calls(plan_sweep, db, spec, Interval(0.0, 2.0), CurveStore())
    assert calls <= 18 * 400, calls / 400


# -- what is built ---------------------------------------------------------------
WINDOW = Interval(0.0, 2.0)


def counting_builds(monkeypatch):
    """Every squared-distance curve built from here on, one entry each."""
    built = []
    real = SquaredEuclideanDistance.__call__

    def counting(self, trajectory):
        built.append(trajectory)
        return real(self, trajectory)

    monkeypatch.setattr(SquaredEuclideanDistance, "__call__", counting)
    return built


def churned_server():
    db = random_linear_mod(200, seed=1)
    server = QueryServer(db)
    server.register_knn([0.0, 0.0], k=3)
    UpdateStream(db, seed=7, mean_gap=0.05, weights=(0.1, 0.1, 0.8)).run(300)
    return db, server


def test_a_past_knn_builds_only_its_candidates(monkeypatch):
    db = random_linear_mod(400, seed=1)
    spec = QuerySpec.knn([0.0, 0.0], 5)
    candidates = plan_sweep(db, spec, WINDOW, CurveStore()).candidates
    built = counting_builds(monkeypatch)
    _single_sweep(db, spec, WINDOW, None)
    assert len(built) <= candidates < 400 / 10, (len(built), candidates)


def test_a_one_shot_within_builds_only_its_undecided_records(monkeypatch):
    db = random_linear_mod(400, seed=1)
    spec = QuerySpec.within([0.0, 0.0], 50.0)
    c = spec.threshold
    undecided = 0
    for _, trajectory in db.all_items():
        vmin, vmax, magnitude = spec.gdistance(trajectory).bounds(0.0, 2.0)
        margin = _REL_MARGIN * (magnitude + abs(c))
        undecided += not (vmax < c - margin or vmin > c + margin)
    built = counting_builds(monkeypatch)
    _single_sweep(db, spec, WINDOW, None)
    assert len(built) == undecided < 400 / 10, (len(built), undecided)


def test_an_open_builds_a_tenth_of_the_live_curves_at_most(monkeypatch):
    db, server = churned_server()
    built = counting_builds(monkeypatch)
    server.register_knn([13.0, 5.0], 2)
    assert len(built) <= len(db.object_ids) / 10, len(built)


def test_a_moving_query_opens_like_a_point(monkeypatch):
    db = random_linear_mod(200, seed=1)
    server = QueryServer(db)
    UpdateStream(db, seed=7, mean_gap=0.05, weights=(0.1, 0.1, 0.8)).run(50)
    tau = db.last_update_time
    moving = from_waypoints(
        [(tau - 1.0, [0.0, 0.0]), (tau, [5.0, 5.0]), (tau + 1.0, [10.0, 0.0]), (tau + 2.0, [5.0, -5.0])]
    )
    assert len(moving.pieces) == 3
    built = counting_builds(monkeypatch)
    opens = {}
    for name, query in (("point", [5.0, 5.0]), ("moving", moving)):
        for kind, open_ in (("knn", server.register_knn), ("within", server.register_within)):
            del built[:]
            open_(query, 3 if kind == "knn" else 40.0)
            opens[name, kind] = len(built)
    for kind in ("knn", "within"):
        assert opens["moving", kind] <= 2 * opens["point", kind], opens
    assert opens["point", "within"] < len(db.object_ids) / 2, opens


# -- calls per object, reading bounds in closed form -------------------------------
def test_a_past_plan_reads_bounds_not_curves():
    db = random_linear_mod(400, seed=1)
    spec = QuerySpec.knn([0.0, 0.0], 5)
    calls = python_calls(plan_sweep, db, spec, WINDOW, CurveStore())
    assert calls <= 7 * 400, calls / 400


def test_a_one_shot_within_per_object():
    db = random_linear_mod(400, seed=1)
    spec = QuerySpec.within([0.0, 0.0], 50.0)
    calls = python_calls(_single_sweep, db, spec, WINDOW, None, CurveStore())
    assert calls <= 18 * 400, calls / 400


def test_an_open_reads_bounds_not_curves():
    db, server = churned_server()
    live = len(db.object_ids)
    calls = python_calls(server.register_knn, [13.0, 5.0], 2)
    assert calls <= 23 * live, calls / live

"""A deterministic call budget on the plan pass.

Theorem 5 prices initialisation at ``O(N log N)``: every curve written
down, bounded and keyed into the order.  Every open, horizon re-plan,
one-shot past query and heal makes that pass over all ``N`` objects, so
its constant is the Python calls it makes per object.  Wall time cannot
gate that on a shared machine; the ``sys.setprofile`` count of
``tests/gdist/test_curve_cost.py`` can, the same number on every run.

Counts at the parent of the closed-form Taylor key and the lean curve
store (CPython 3.11), measured exactly as below:

==================================================  ========  =======  ======
what                                                  parent   now     budget
==================================================  ========  =======  ======
``forward_taylor(t, 3)``, one quadratic cell              14       2       3
one-piece ``CurveStore.tail`` miss                        21      10      12
``CurveStore.tail`` hit                                    4       1       1
open at a fresh point after 300 updates, per object     53.7    26.4      32
``plan_sweep`` knn k=5, N=400, ``[0, 2]``, per object   29.5    11.4      18
==================================================  ========  =======  ======

Every budget fails at the parent.  The open's 26.4 is the bar host's
(one record and one closest approach per object); the horizon planner
it replaced made 19.5.
"""

from repro.cache import CurveStore
from repro.core.spec import QuerySpec
from repro.geometry.intervals import Interval
from repro.server import QueryServer
from repro.sweep.prune import plan_sweep
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

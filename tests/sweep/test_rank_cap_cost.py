"""A rank reading's cost follows its support, not the full order.

Theorem 4 prices a past query at ``O((m + N) log N)`` with ``m`` the
support changes *of the query*.  On ``crossing_rich_mod(N)`` every pair
of curves crosses inside ``[0, 10]``, so the full order pays ``N(N-1)/2``
swaps while the 5-NN answer changes a few dozen times; a capped engine
orders five curves and keeps the rest in a kinetic tournament.  Its flip
computations must fit ``c N log N`` better than ``c N^2`` (the full-order
twin still swaps every pair), and ``past_sweep``'s crossing query
(``N = 120``, k = 5: 21,526 flips and 104,815 primitive ops before the
cap) has an op budget.
"""

from repro.core.api import evaluate_knn
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.obs.audit import ComplexityAudit
from repro.obs.instrument import Instrumentation
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.sweep.support import SupportTracker
from repro.workloads.generator import crossing_rich_mod

ORIGIN = [0.0, 0.0]
WINDOW = Interval(0.0, 10.0)
SIZES = (40, 80, 160, 320)


def crossing_engine(n, full):
    engine = SweepEngine(
        crossing_rich_mod(n, seed=1), SquaredEuclideanDistance(ORIGIN), WINDOW
    )
    view = ContinuousKNN(engine, 5)
    if full:
        engine.add_listener(SupportTracker())
    engine.run_to_end()
    return engine, view.answer()


def test_flips_fit_n_log_n_while_the_full_twin_swaps_every_pair():
    audit = ComplexityAudit()
    for n in SIZES:
        capped, answer = crossing_engine(n, full=False)
        full, full_answer = crossing_engine(n, full=True)
        assert answer == full_answer
        assert full.stats.swaps == n * (n - 1) // 2
        assert capped.rank_cap == 5
        audit.record("flip computations", n, capped.stats.flip_computations)
        # Every tournament node hop is in here (as an order rank step).
        audit.record("primitive ops", n, capped.primitive_ops())
    for series in ("flip computations", "primitive ops"):
        n_log_n = audit.check(series, "n log n")
        n_squared = audit.check(series, "n^2")
        assert n_log_n.passed, audit.report()
        assert n_log_n.r_squared > n_squared.r_squared, audit.report()


def test_the_crossing_query_op_budget():
    obs = Instrumentation()
    evaluate_knn(crossing_rich_mod(120, seed=1), ORIGIN, WINDOW, k=5, observe=obs)
    snapshot = obs.snapshot()
    flips = snapshot["sweep_flip_computations_total"]
    ops = sum(
        value
        for name, value in snapshot.items()
        if name.startswith("sweep_primitive_ops{")
    )
    # Full order: 21,526 flips, 104,815 ops.
    assert flips <= 2_500 and ops <= 20_000, (flips, ops)

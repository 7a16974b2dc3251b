"""E-T4: Theorem 4 — past queries in O((m + N) log N).

Runs the full past-query sweep (continuous 2-NN over a bounded
interval) on random workloads of growing size, recording the wall time,
the object count N, and the measured number of support changes m.  The
time is then fitted against the claimed model ``(m + N) log N`` and the
competing models ``N^2`` and ``m + N`` (no log); the claimed model must
explain the data at least as well as the quadratic strawman.

That series drives one raw :class:`SweepEngine` over every curve, kept
in full order by a :class:`SupportTracker` (a 2-NN view alone would cap
it at its two lowest curves), so it stays the full-order Theorem-4 fit:
its ``m`` is every inversion of the order.  A second series runs the same query through ``evaluate_knn``,
which sweeps only the curves its interval bounds cannot rule out
(``repro.sweep.prune``): there ``m`` is the order changes among the
candidates — the support changes Lemma 8 says move the answer — and
the two are reported side by side.
"""

import math

import pytest

from repro.bench.fits import fit_model
from repro.bench.harness import format_table, time_callable
from repro.core.api import evaluate_knn
from repro.geometry.intervals import Interval
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.obs.explain import explain
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.sweep.support import SupportTracker
from repro.workloads.generator import random_linear_mod

from _support import publish_table

INTERVAL = Interval(0.0, 30.0)
SIZES = [32, 64, 128, 256]


def run_past_query(db):
    engine = SweepEngine(db, SquaredEuclideanDistance([0.0, 0.0]), INTERVAL)
    view = ContinuousKNN(engine, 2)
    engine.add_listener(SupportTracker())
    engine.run_to_end()
    return engine, view.answer()


@pytest.mark.parametrize("n", SIZES)
def test_past_query_scaling(benchmark, n):
    db = random_linear_mod(n, seed=n, extent=80.0, speed=6.0)
    engine, answer = benchmark(run_past_query, db)
    assert answer.objects
    benchmark.extra_info["N"] = n
    benchmark.extra_info["support_changes_m"] = engine.stats.support_changes


def pruned_series(db):
    """``evaluate_knn`` on the same query: wall time, candidate entries
    and the order changes among them (off one EXPLAIN)."""
    origin = [0.0, 0.0]
    elapsed = time_callable(
        lambda: evaluate_knn(db, origin, INTERVAL, 2), repeats=2, warmup=0
    )
    data = explain(db, origin, INTERVAL, "knn", k=2).to_dict()
    prune = next(s for s in data["stages"] if s["name"] == "prune")["attrs"]
    samples = data["metrics"]["samples"]
    changes = sum(
        sign * samples.get(f'sweep_order_changes_total{{kind="{kind}"}}', 0)
        for kind, sign in (
            ("swap", 1), ("insert", 1), ("remove", 1), ("reinsert", -1)
        )
    )
    return elapsed, prune["candidates"], changes


def test_theorem4_complexity_fit(benchmark):
    """Fit measured time against (m + N) log N."""

    def sweep_all():
        rows = []
        for n in SIZES:
            db = random_linear_mod(n, seed=n, extent=80.0, speed=6.0)
            elapsed = time_callable(lambda: run_past_query(db), repeats=2, warmup=0)
            engine, answer = run_past_query(db)
            m = engine.stats.support_changes
            assert evaluate_knn(db, [0.0, 0.0], INTERVAL, 2).approx_equals(answer)
            rows.append((n, m, elapsed, *pruned_series(db)))
        return rows

    rows = benchmark.pedantic(sweep_all, rounds=1, iterations=1)
    claimed_x = [(m + n) * math.log(n) for n, m, *_ in rows]
    naive_x = [n * n for n, *_ in rows]
    times = [row[2] for row in rows]
    claimed = fit_model(claimed_x, times, "n")
    quadratic = fit_model(naive_x, times, "n")
    publish_table(
        "theorem4_past",
        format_table(
            [
                "N", "m (full order)", "time (s)", "(m+N) log N",
                "evaluate_knn (s)", "candidates", "m (candidates)",
            ],
            [
                [n, m, t, x, pruned_t, candidates, pruned_m]
                for (n, m, t, pruned_t, candidates, pruned_m), x in zip(
                    rows, claimed_x
                )
            ],
            title=(
                "E-T4: past 2-NN sweep, raw full-order engine | fit vs "
                f"(m+N)logN: R^2={claimed.r_squared:.4f} | vs N^2: "
                f"R^2={quadratic.r_squared:.4f} | beside it the pruned "
                "one-shot path (evaluate_knn)"
            ),
        ),
    )
    # The claimed model must explain the data well.
    assert claimed.r_squared > 0.95
    assert claimed.scale > 0

"""Randomized differential tests: server vs pool vs single vs naive.

Every seeded scenario drives one identical update stream through the
naive O(N^2) baseline, a single eager :class:`SweepEngine`, a bare
:class:`~repro.server.group.EngineGroup` sweeping the source MOD, and a
shared :class:`~repro.server.QueryServer` session co-registered with
tenants of every other query kind — asserting that the final snapshot
answers and the instant answer sets at every probe time are equal
across all four paths, for kNN, within-range, and multiknn.

210 seeded cases run by default (90 kNN + 60 within + 60 multiknn).
"""

import pytest

from tests._oracle import (
    KNN,
    MULTIKNN,
    WITHIN,
    answers_equal,
    assert_probes_equal,
    generate_scenario,
    run_group,
    run_naive,
    run_server,
    run_single,
)

KNN_SEEDS = range(0, 90)
WITHIN_SEEDS = range(1000, 1060)
MULTIKNN_SEEDS = range(2000, 2060)


def _differential(seed: int, mode: str):
    sc = generate_scenario(seed)
    naive_final, naive_probes = run_naive(sc, mode)
    single_final, single_probes = run_single(sc, mode)
    assert answers_equal(
        single_final, naive_final
    ), f"seed {seed}: single engine disagrees with naive baseline"
    assert_probes_equal(single_probes, naive_probes, f"seed {seed} single")
    for label, run in (("pool", run_group), ("shared server", run_server)):
        final, probes = run(sc, mode)
        label = f"seed {seed} {label}"
        assert answers_equal(
            final, single_final
        ), f"{label}: disagrees with single engine"
        assert answers_equal(
            final, naive_final
        ), f"{label}: disagrees with naive baseline"
        assert_probes_equal(probes, naive_probes, label)


@pytest.mark.parametrize("seed", KNN_SEEDS)
def test_knn_differential(seed):
    _differential(seed, KNN)


@pytest.mark.parametrize("seed", WITHIN_SEEDS)
def test_within_differential(seed):
    _differential(seed, WITHIN)


@pytest.mark.parametrize("seed", MULTIKNN_SEEDS)
def test_multiknn_differential(seed):
    _differential(seed, MULTIKNN)


"""Randomized differential tests: server vs sharded vs single vs naive.

Every seeded scenario drives one identical update stream through the
naive O(N^2) baseline, a single eager :class:`SweepEngine`,
:class:`ShardedSweepEvaluator` at S in {1, 2, 7}, and a shared
:class:`~repro.server.QueryServer` session co-registered with tenants
of every other query kind — asserting that the final snapshot answers
and the instant answer sets at every probe time are equal across all
four paths, for kNN, within-range, and multiknn.

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
    run_naive,
    run_server,
    run_sharded,
    run_single,
)

SHARD_COUNTS = (1, 2, 7)

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
    for shards in SHARD_COUNTS:
        batch = 1 + (seed + shards) % 4  # vary batching across seeds
        sharded_final, sharded_probes = run_sharded(
            sc, mode, shards, batch_size=batch
        )
        label = f"seed {seed} S={shards} batch={batch}"
        assert answers_equal(
            sharded_final, single_final
        ), f"{label}: sharded disagrees with single engine"
        assert answers_equal(
            sharded_final, naive_final
        ), f"{label}: sharded disagrees with naive baseline"
        assert_probes_equal(sharded_probes, naive_probes, label)
        server_final, server_probes = run_server(
            sc, mode, shards=shards, batch_size=batch
        )
        label = f"seed {seed} server S={shards} batch={batch}"
        assert answers_equal(
            server_final, single_final
        ), f"{label}: shared server disagrees with single engine"
        assert answers_equal(
            server_final, naive_final
        ), f"{label}: shared server disagrees with naive baseline"
        assert_probes_equal(server_probes, naive_probes, label)


@pytest.mark.parametrize("seed", KNN_SEEDS)
def test_knn_differential(seed):
    _differential(seed, KNN)


@pytest.mark.parametrize("seed", WITHIN_SEEDS)
def test_within_differential(seed):
    _differential(seed, WITHIN)


@pytest.mark.parametrize("seed", MULTIKNN_SEEDS)
def test_multiknn_differential(seed):
    _differential(seed, MULTIKNN)


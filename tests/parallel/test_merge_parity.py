"""Shard-merge parity: the two sharded pools share one merge.

The same spec through a bare :class:`~repro.server.group.EngineGroup`
(the server's pool), a :class:`ShardedSweepEvaluator` (the evaluator's)
and one single engine must give bitwise-equal instant answers at every
probe and equal window answers, for all three kinds — both pools call
``merge_members`` / ``merge_answers`` of :mod:`repro.parallel.merge`.
A single-slot group reads its view directly and is held to the same
answers.
"""

import pytest

from repro.core.spec import QuerySpec
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.parallel.merge import (
    merge_knn_answers,
    merge_members,
    merge_multiknn_answers,
)
from repro.server.group import EngineGroup
from repro.workloads.generator import random_linear_mod

from tests._oracle import (
    KNN,
    MULTIKNN,
    WITHIN,
    answers_equal,
    assert_probes_equal,
    generate_scenario,
    run_group,
    run_sharded,
    run_single,
)

SHARDS = 3
SEEDS = {
    KNN: range(0, 12),
    WITHIN: range(1000, 1012),
    MULTIKNN: range(2000, 2012),
}


@pytest.mark.parametrize(
    "mode, seed",
    [(mode, seed) for mode, seeds in SEEDS.items() for seed in seeds],
)
def test_both_pools_agree_with_one_engine(mode, seed):
    sc = generate_scenario(seed)
    single_final, single_probes = run_single(sc, mode)
    paths = {
        "group S=3": run_group(sc, mode, SHARDS),
        "group S=1": run_group(sc, mode, 1),
        "evaluator S=3": run_sharded(sc, mode, SHARDS),
    }
    for label, (final, probes) in paths.items():
        assert_probes_equal(probes, single_probes, f"seed {seed} {mode} {label}")
        assert answers_equal(final, single_final), f"seed {seed} {mode} {label}"
    # Both pools merged the same per-shard answers: exactly equal.
    assert paths["group S=3"][0] == paths["evaluator S=3"][0]


def test_knn_merge_is_the_one_k_case_of_the_multiknn_merge():
    db = random_linear_mod(12, seed=5, extent=20.0, speed=3.0)
    gd = SquaredEuclideanDistance([0.0, 0.0])
    window = Interval(db.last_update_time, 8.0)
    spec = QuerySpec.multiknn(gd, [2, 4])
    group = EngineGroup(1, db, gd, SHARDS)
    group.acquire(spec)
    group.advance_to(window.hi)
    merged = group.partial(spec, window.lo, window.hi)
    widest = [
        view.partial_answers(window.hi)[4]
        for view in group._views[spec.view_key]
    ]
    assert merge_multiknn_answers(db, gd, window, [2, 4], widest) == merged
    for k in (2, 4):
        assert merge_knn_answers(db, gd, window, k, widest) == merged[k]


def test_range_merge_reads_no_values():
    """The within-range instant merge is the pooled oids as they are:
    no selection, no candidate value read."""
    spec = QuerySpec.within(SquaredEuclideanDistance([0.0, 0.0]), 9.0)
    assert merge_members(spec, [("a", None), ("b", None)]) == {"a", "b"}

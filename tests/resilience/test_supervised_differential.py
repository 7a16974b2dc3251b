"""Seeded differential for the heal path: a forced probe/update race.

Every scenario drives one update stream through the naive baseline, a
clean single :class:`SweepEngine`, and a
:class:`SupervisedQuerySession` hit by a race mid-stream (the sweep is
advanced past the middle update's timestamp just before that update
is applied).

All three must agree at every probe and at close — the stitched answer
is indistinguishable from one that never failed — and the session
must heal exactly once without losing a segment: the counts below are
what the per-owner heal routines this host replaced produced on these
seeds.
"""

import pytest

from tests._oracle import (
    KNN,
    WITHIN,
    answers_equal,
    assert_probes_equal,
    generate_scenario,
    run_naive,
    run_single,
    run_supervised,
)

SEEDS = range(48)

# One race, one engine failure, one rebuild — on every seed and both
# kinds.
SUPERVISOR_STATS = {"failures": 1, "rebuilds": 1}


@pytest.mark.parametrize("mode", (KNN, WITHIN))
@pytest.mark.parametrize("seed", SEEDS)
def test_raced_heal_paths_match_clean_and_naive(seed, mode):
    sc = generate_scenario(seed)
    naive_final, naive_probes = run_naive(sc, mode)
    clean_final, clean_probes = run_single(sc, mode)
    paths = {
        "supervised": (
            lambda stats: run_supervised(sc, mode, stats_out=stats),
            SUPERVISOR_STATS,
        ),
    }
    for name, (run, pinned) in paths.items():
        label = f"seed {seed} {mode} {name}"
        stats: dict = {}
        final, probes = run(stats)
        assert stats == pinned, f"{label}: heal counters moved"
        assert answers_equal(final, clean_final), f"{label}: vs clean single"
        assert answers_equal(final, naive_final), f"{label}: vs naive"
        assert_probes_equal(probes, clean_probes, f"{label} vs clean single")
        assert_probes_equal(probes, naive_probes, f"{label} vs naive")

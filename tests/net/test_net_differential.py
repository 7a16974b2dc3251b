"""Differential equivalence: remote ≡ in-process ≡ naive.

Every seeded scenario drives the same update stream through the naive
O(N^2) baseline, the in-process QueryServer, and a real TCP frontend
(:func:`tests._oracle.run_netserve`), asserting the final snapshot
answers and every instant probe agree across all three.  On top of the
clean sweep, a slice of the seeds re-runs with injected connection
drops (the client must reconnect + retry idempotently), and one case
forces an engine-group heal mid-stream — neither may perturb a single
answer.
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
    run_netserve,
    run_server,
)

MODES = (KNN, WITHIN, MULTIKNN)
CLEAN_SEEDS = range(16)
DROP_SEEDS = (101, 102)


class TestNetserveDifferential:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", CLEAN_SEEDS)
    def test_remote_matches_naive_and_server(self, seed, mode):
        sc = generate_scenario(seed)
        naive_final, naive_probes = run_naive(sc, mode)
        server_final, server_probes = run_server(sc, mode)
        net_final, net_probes = run_netserve(sc, mode)
        label = f"seed={seed} mode={mode}"
        assert answers_equal(net_final, naive_final), f"{label}: vs naive"
        assert answers_equal(net_final, server_final), f"{label}: vs server"
        assert_probes_equal(net_probes, naive_probes, f"{label} vs naive")
        assert_probes_equal(net_probes, server_probes, f"{label} vs server")


class TestNetserveWithConnectionDrops:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", DROP_SEEDS)
    def test_dropped_connections_change_nothing(self, seed, mode):
        sc = generate_scenario(seed)
        naive_final, naive_probes = run_naive(sc, mode)
        net_final, net_probes = run_netserve(sc, mode, drop_every=2)
        label = f"seed={seed} mode={mode} drop_every=2"
        assert answers_equal(net_final, naive_final), label
        assert_probes_equal(net_probes, naive_probes, label)


class TestNetserveWithForcedHeal:
    def test_heal_mid_stream_changes_nothing(self):
        sc = generate_scenario(31)
        naive_final, naive_probes = run_naive(sc, KNN)
        stats = {}
        net_final, net_probes = run_netserve(
            sc, KNN, force_heal=True, stats_out=stats
        )
        # The fault really happened and was healed in-line.
        assert stats["rebuilds"] >= 1
        assert answers_equal(net_final, naive_final)
        assert_probes_equal(net_probes, naive_probes, "forced heal")

    def test_heal_with_drops_changes_nothing(self):
        sc = generate_scenario(32)
        naive_final, naive_probes = run_naive(sc, WITHIN)
        stats = {}
        net_final, net_probes = run_netserve(
            sc,
            WITHIN,
            drop_every=3,
            force_heal=True,
            stats_out=stats,
        )
        assert stats["rebuilds"] >= 1
        assert answers_equal(net_final, naive_final)
        assert_probes_equal(net_probes, naive_probes, "heal+drops")

"""Tests for the CI perf-regression gate (``scripts/perf_gate.py``).

The contract: the gate passes against the committed baselines, and a
synthetically injected regression (a baseline claiming the code used
to be much cheaper) makes it exit non-zero.
"""

import importlib.util
import json
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def perf_gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate", os.path.join(REPO, "scripts", "perf_gate.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def t5_current(perf_gate):
    # Measured once; the T5 suite is the cheapest of the three.
    return perf_gate.measure_t5()


# T5's live-session metrics (PR 21), held equal on both sides here.
LIVE = {"live_open_ops": 500, "live_update_ops_per_update": 1.0}


class TestCompare:
    def test_within_band_passes(self, perf_gate):
        baseline = {
            "metrics": {"init_ops": 1000, "update_ops_per_update": 6.0, **LIVE}
        }
        rows = perf_gate.compare(
            "t5",
            {"init_ops": 1040, "update_ops_per_update": 6.2, **LIVE},
            baseline,
        )
        assert all(r["ok"] for r in rows)

    def test_max_direction_fails_above_limit(self, perf_gate):
        baseline = {
            "metrics": {"init_ops": 1000, "update_ops_per_update": 6.0, **LIVE}
        }
        rows = perf_gate.compare(
            "t5",
            {"init_ops": 1200, "update_ops_per_update": 6.0, **LIVE},
            baseline,
        )
        bad = {r["metric"] for r in rows if not r["ok"]}
        assert bad == {"init_ops"}

    def test_min_direction_fails_below_limit(self, perf_gate):
        base = {
            "answer_hit_rate": 0.8,
            "cold_ops": 1000,
            "cached_ops": 300,
            "cached_ops_fraction": 0.3,
        }
        current = dict(base, answer_hit_rate=0.5)
        rows = perf_gate.compare("eac", current, {"metrics": base})
        bad = {r["metric"] for r in rows if not r["ok"]}
        assert bad == {"answer_hit_rate"}


class TestGateAgainstCommittedBaselines:
    def test_t5_suite_passes(self, perf_gate, t5_current):
        path = perf_gate.baseline_path(
            "t5", os.path.join(REPO, "benchmarks", "baselines")
        )
        with open(path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        rows = perf_gate.compare("t5", t5_current, baseline)
        assert rows and all(r["ok"] for r in rows), rows

    def test_measures_are_deterministic(self, perf_gate, t5_current):
        assert perf_gate.measure_t5() == t5_current


class TestInjectedRegression:
    def test_exit_nonzero_on_regression(
        self, perf_gate, t5_current, tmp_path, capsys
    ):
        # The injected regression: a baseline claiming init used to
        # cost half as much as it measures now.
        doctored = {
            name: (value * 0.5 if name == "init_ops" else value)
            for name, value in t5_current.items()
        }
        perf_gate.write_baseline("t5", doctored, str(tmp_path))
        code = perf_gate.main(
            ["--suite", "t5", "--baseline-dir", str(tmp_path)]
        )
        assert code != 0
        assert "FAIL" in capsys.readouterr().out

    def test_exit_zero_on_honest_baseline(
        self, perf_gate, t5_current, tmp_path
    ):
        perf_gate.write_baseline("t5", t5_current, str(tmp_path))
        code = perf_gate.main(
            ["--suite", "t5", "--baseline-dir", str(tmp_path)]
        )
        assert code == 0

    def test_missing_baseline_is_an_error(self, perf_gate, tmp_path):
        with pytest.raises(SystemExit):
            perf_gate.run_gate(["t5"], str(tmp_path / "nowhere"))


class TestUpdateBaselines:
    def test_update_writes_policy_alongside(
        self, perf_gate, t5_current, tmp_path
    ):
        perf_gate.write_baseline("t5", t5_current, str(tmp_path))
        with open(
            perf_gate.baseline_path("t5", str(tmp_path)),
            "r",
            encoding="utf-8",
        ) as fh:
            payload = json.load(fh)
        assert payload["suite"] == "t5"
        assert payload["metrics"] == t5_current
        assert payload["policy"]["init_ops"]["direction"] == "max"

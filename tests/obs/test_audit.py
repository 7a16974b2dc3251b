"""Complexity auditing against synthetic, known-complexity data."""

import math

import pytest

from repro.obs.audit import ComplexityAudit, GROWTH_ORDER, fit_envelope

SIZES = [64, 128, 256, 512, 1024, 2048]


def test_n_log_n_data_passes_n_log_n_envelope():
    costs = [3.0 * n * math.log2(n) + 17.0 for n in SIZES]
    result = fit_envelope(SIZES, costs, "n log n", quantity="init ops")
    assert result.passed
    assert result.best_fit.model == "n log n"
    # The constant recovers the synthetic scale up to the log base.
    assert 1.0 < result.constant < 10.0
    assert result.r_squared > 0.999


def test_linear_data_fails_log_envelope():
    costs = [5.0 * n for n in SIZES]
    result = fit_envelope(SIZES, costs, "log n", quantity="update ops")
    assert not result.passed
    assert GROWTH_ORDER[result.best_fit.model] > GROWTH_ORDER["log n"]


def test_flat_data_passes_log_envelope():
    """A constant curve grows no faster than log n — the audit accepts
    beating the envelope."""
    costs = [42.0 for _ in SIZES]
    result = fit_envelope(SIZES, costs, "log n")
    assert result.passed
    assert result.best_fit.model == "1"


def test_log_data_passes_log_envelope():
    costs = [7.0 * math.log2(n) + 2.0 for n in SIZES]
    result = fit_envelope(SIZES, costs, "log n")
    assert result.passed
    assert result.r_squared > 0.999


def test_quadratic_data_fails_n_log_n():
    costs = [0.5 * n * n for n in SIZES]
    result = fit_envelope(SIZES, costs, "n log n")
    assert not result.passed
    assert result.best_fit.model == "n^2"


def test_unknown_envelope_rejected():
    with pytest.raises(ValueError):
        fit_envelope(SIZES, [1.0] * len(SIZES), "n^3")


class TestComplexityAudit:
    def test_record_check_report(self):
        audit = ComplexityAudit()
        for n in SIZES:
            audit.record("init", n, 2.0 * n * math.log2(n))
            audit.record("update", n, 3.0 * math.log2(n))
        init = audit.check("init", "n log n")
        update = audit.check("update", "log n")
        assert init.passed and update.passed
        assert audit.all_passed
        assert audit.quantities() == ["init", "update"]
        assert len(audit.observations("init")) == len(SIZES)
        report = audit.report()
        assert "init" in report and "update" in report and "PASS" in report
        assert "PASS" in init.describe()

    def test_too_few_observations_raise(self):
        audit = ComplexityAudit()
        audit.record("lonely", 64, 10.0)
        with pytest.raises(ValueError):
            audit.check("lonely", "log n")
        with pytest.raises(ValueError):
            audit.check("absent", "log n")

    def test_all_passed_requires_a_check(self):
        assert not ComplexityAudit().all_passed

    def test_failed_check_reported(self):
        audit = ComplexityAudit()
        for n in SIZES:
            audit.record("bad", n, float(n * n))
        result = audit.check("bad", "log n")
        assert not result.passed
        assert not audit.all_passed
        assert "FAIL" in result.describe()
        assert "FAIL" in audit.report()


def test_live_per_update_ops_follow_the_candidates_not_n():
    """Theorem 5 under pruning: over N in {100, 200, 400, 800} at
    constant density a live session's ops per update — bound checks
    included — fit O(log N) or flatter, at an order of ten candidates
    (``scripts/complexity_report.py::audit_live_updates``)."""
    import importlib.util
    import os

    path = os.path.join(
        os.path.dirname(__file__), "..", "..", "scripts", "complexity_report.py"
    )
    spec = importlib.util.spec_from_file_location("complexity_report", path)
    report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report)
    audit = ComplexityAudit()
    rows = report.audit_live_updates(audit)
    assert [n for n, *_ in rows] == [100, 200, 400, 800]
    result = audit.check(report.LIVE_QUANTITY, "log n")
    assert result.passed, result.describe()
    for n, candidates, _, engine_ops, bound_checks in rows:
        assert candidates < 40 and engine_ops + bound_checks < 40, (n, rows)

"""End-to-end tests for :func:`repro.obs.explain.explain`.

The contract under test: explain runs the *real* evaluation (answers
equal the plain ``evaluate_*`` call), attributes nearly all wall time
to stages, stamps every span and metric block with the query id, and
does all of that across the full configuration matrix — three query
kinds and the answer cache.
"""

import json

import pytest

from repro.cache import QueryCache
from repro.core.api import evaluate_knn, evaluate_multiknn, evaluate_within
from repro.geometry.intervals import Interval
from repro.obs import ExplainReport, QueryProfiler, SlowQueryLog, explain
from repro.workloads.generator import random_linear_mod

WINDOW = Interval(1.0, 30.0)


def _db(count=24, seed=11):
    return random_linear_mod(count, seed=seed, extent=40.0, speed=3.0)


def _assert_correlated(report):
    """Every span carries the query id."""
    data = report.to_dict()
    qid = report.query_id
    assert data["spans"], "expected at least one local span"
    for record in data["spans"]:
        assert record["attrs"]["query_id"] == qid
    assert data["metrics"]["query_id"] == qid


def _stage_names(report):
    return {s["name"] for s in report.to_dict()["stages"]}


class TestAnswersMatchPlainEvaluation:
    def test_knn(self):
        db = _db()
        report = explain(db, [0.0, 0.0], WINDOW, "knn", k=3)
        plain = evaluate_knn(db, [0.0, 0.0], WINDOW, k=3)
        assert report.answer == plain

    def test_within(self):
        db = _db()
        report = explain(db, [5.0, -5.0], WINDOW, "within", distance=25.0)
        plain = evaluate_within(db, [5.0, -5.0], WINDOW, distance=25.0)
        assert report.answer == plain

    def test_multiknn(self):
        db = _db()
        report = explain(db, [0.0, 0.0], WINDOW, "multiknn", ks=[1, 3])
        plain = evaluate_multiknn(db, [0.0, 0.0], WINDOW, ks=[1, 3])
        assert report.answer == plain

class TestStageAttribution:
    def test_single_path_stages(self):
        report = explain(_db(), [0.0, 0.0], WINDOW, "knn", k=2)
        names = _stage_names(report)
        assert {"init", "sweep", "answer"} <= names
        init = next(
            s for s in report.to_dict()["stages"] if s["name"] == "init"
        )
        assert init["attrs"]["ops"] > 0
        assert any(c["name"] == "curves" for c in init.get("children", []))

    def test_stage_walls_cover_total(self):
        # Acceptance criterion: per-stage wall-time sums within 5% of
        # the measured total, i.e. coverage >= 0.95.
        report = explain(_db(48, seed=5), [0.0, 0.0], WINDOW, "knn", k=3)
        assert report.coverage >= 0.95
        assert report.coverage <= 1.05

class TestCorrelation:
    def test_single_path(self):
        _assert_correlated(explain(_db(), [0.0, 0.0], WINDOW, "knn", k=2))

class TestCacheStages:
    def test_miss_then_hit(self):
        db = _db()
        cache = QueryCache()
        profiler = QueryProfiler()
        first = explain(
            db, [0.0, 0.0], WINDOW, "knn", k=2, cache=cache,
            profiler=profiler,
        )
        second = explain(
            db, [0.0, 0.0], WINDOW, "knn", k=2, cache=cache,
            profiler=profiler,
        )
        assert first.answer == second.answer

        def probe(report):
            return next(
                s
                for s in report.to_dict()["stages"]
                if s["name"] == "cache.probe"
            )

        assert probe(first)["attrs"]["hit"] is False
        assert probe(second)["attrs"]["hit"] is True
        assert "cache.store" in _stage_names(first)
        assert "sweep" not in _stage_names(second)

    def test_hit_clip_is_attributed(self):
        db = _db()
        cache = QueryCache()
        explain(db, [0.0, 0.0], WINDOW, "knn", k=2, cache=cache)
        narrower = Interval(5.0, 20.0)
        hit = explain(db, [0.0, 0.0], narrower, "knn", k=2, cache=cache)
        probe = next(
            s
            for s in hit.to_dict()["stages"]
            if s["name"] == "cache.probe"
        )
        assert probe["attrs"]["hit"] is True
        assert any(
            c["name"] == "clip" for c in probe.get("children", [])
        )

    def test_extension_sweep_is_attributed(self):
        db = _db()
        cache = QueryCache()
        explain(db, [0.0, 0.0], Interval(1.0, 15.0), "knn", k=2, cache=cache)
        wider = explain(
            db, [0.0, 0.0], Interval(1.0, 25.0), "knn", k=2, cache=cache
        )
        probe = next(
            s
            for s in wider.to_dict()["stages"]
            if s["name"] == "cache.probe"
        )
        assert probe["attrs"]["hit"] is True
        # The gap's one-shot sweep, stages and all, nests under it.
        extend = next(
            s
            for s in wider.to_dict()["stages"]
            if s["name"] == "cache.extend"
        )
        assert extend["attrs"]["ops"] > 0
        assert {"prune", "init", "sweep"} <= {
            c["name"] for c in extend["children"]
        }

class TestRendering:
    def test_text_mentions_stages_and_id(self):
        report = explain(_db(), [0.0, 0.0], WINDOW, "knn", k=2)
        text = report.text()
        assert report.query_id in text
        assert "prune" in text and "sweep" in text
        assert text == str(report)

    def test_json_round_trips(self):
        report = explain(_db(), [0.0, 0.0], WINDOW, "knn", k=2)
        data = json.loads(report.to_json())
        assert data["query_id"] == report.query_id
        assert data["kind"] == "knn"

    def test_repr_is_compact(self):
        report = explain(_db(), [0.0, 0.0], WINDOW, "knn")
        assert report.query_id in repr(report)


class TestProfilerIntegration:
    def test_shared_profiler_accumulates(self):
        db = _db()
        profiler = QueryProfiler(slow_log=SlowQueryLog(0.0))
        explain(db, [0.0, 0.0], WINDOW, "knn", k=1, profiler=profiler)
        explain(
            db, [0.0, 0.0], WINDOW, "within", distance=15.0,
            profiler=profiler,
        )
        assert [p.query_id for p in profiler.profiles] == [
            "q-000001",
            "q-000002",
        ]
        assert profiler.slow_log.offered == 2
        out = profiler.to_dict()
        assert out["attribution"]["by_kind"] == {"knn": 1, "within": 1}
        assert out["attribution"]["hot_oids"]

    def test_answer_oids_feed_attribution(self):
        profiler = QueryProfiler()
        report = explain(
            _db(), [0.0, 0.0], WINDOW, "knn", k=2, profiler=profiler
        )
        hot = dict(profiler.attribution.hot_oids())
        assert hot  # the knn answer names at least one object


class TestArgumentValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            explain(_db(), [0.0, 0.0], WINDOW, "nearest")

    def test_within_needs_distance(self):
        with pytest.raises(ValueError, match="distance"):
            explain(_db(), [0.0, 0.0], WINDOW, "within")

    def test_multiknn_needs_ks(self):
        with pytest.raises(ValueError, match="ks"):
            explain(_db(), [0.0, 0.0], WINDOW, "multiknn")

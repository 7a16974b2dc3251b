"""Unit tests for the query profiler layer.

Covers the correlation token, the context-stamping tracer, stage-tree
aggregation semantics, the slow-query log's threshold + reservoir
behavior, workload attribution, and the profiler's lifecycle feeds.
End-to-end evaluation coverage lives in ``test_explain.py``.
"""

import json

import pytest

from repro.obs.instrument import Instrumentation, as_instrumentation
from repro.obs.profile import (
    NULL_STAGE,
    ContextTracer,
    QueryProfile,
    QueryProfiler,
    SlowQueryLog,
    Stage,
    TraceContext,
    WorkloadAttribution,
)
from repro.obs.tracing import JsonlSink, RingBufferSink, Tracer


class TestTraceContext:
    def test_round_trips_through_dict(self):
        ctx = TraceContext("q-000042", parent_span_id=7)
        clone = TraceContext.from_dict(ctx.to_dict())
        assert clone.query_id == "q-000042"
        assert clone.parent_span_id == 7

    def test_parent_span_is_optional(self):
        clone = TraceContext.from_dict({"query_id": "q-1"})
        assert clone.parent_span_id is None

    def test_dict_form_is_json_safe(self):
        ctx = TraceContext("q-000042")
        assert json.loads(json.dumps(ctx.to_dict()))["query_id"] == "q-000042"


class TestContextTracer:
    def _tracer(self):
        sink = RingBufferSink()
        inner = Tracer(sink)
        return ContextTracer(inner, TraceContext("q-9")), sink

    def test_spans_are_stamped(self):
        tracer, sink = self._tracer()
        with tracer.span("work", size=3):
            tracer.event("tick")
        assert len(sink.records) == 2
        for record in sink.records:
            assert record["attrs"]["query_id"] == "q-9"

    def test_existing_query_id_wins(self):
        tracer, sink = self._tracer()
        tracer.event("borrowed", query_id="q-other")
        assert sink.records[0]["attrs"]["query_id"] == "q-other"

    def test_delegates_enabled_and_sink(self):
        tracer, sink = self._tracer()
        assert tracer.enabled
        assert tracer.sink is sink

    def test_flush_close_tolerate_bare_inner(self):
        class Bare:
            def span(self, name, **attrs):
                raise AssertionError("unused")

        tracer = ContextTracer(Bare(), TraceContext("q-1"))
        tracer.flush()
        tracer.close()


class TestStageTree:
    def test_reentry_merges_by_name(self):
        prof = QueryProfile("q-1", "knn")
        for _ in range(3):
            with prof.stage("curves") as st:
                st.annotate(curves=1)
        merged = prof.root.children["curves"]
        assert list(prof.root.children) == ["curves"]
        assert merged.count == 3
        assert merged.attrs["curves"] == 3

    def test_numeric_annotations_accumulate_bools_do_not(self):
        stage = Stage("probe")
        stage.annotate(ops=5, hit=False)
        stage.annotate(ops=7, hit=True)
        assert stage.attrs["ops"] == 12
        assert stage.attrs["hit"] is True

    def test_nesting_follows_the_open_stage(self):
        prof = QueryProfile("q-1", "knn")
        with prof.stage("outer"):
            with prof.stage("inner"):
                pass
        outer = prof.root.children["outer"]
        assert "inner" in outer.children
        assert "inner" not in prof.root.children

    def test_pop_tolerates_crashed_inner_stage(self):
        prof = QueryProfile("q-1", "knn")
        with pytest.raises(RuntimeError):
            with prof.stage("outer"):
                prof.stage("abandoned").__enter__()  # never exited
                raise RuntimeError("boom")
        # The stack unwound past the abandoned stage.
        with prof.stage("next"):
            pass
        assert "next" in prof.root.children

    def test_null_stage_is_inert(self):
        with NULL_STAGE as st:
            st.annotate(ops=1)
        assert not hasattr(NULL_STAGE, "attrs")

    def test_to_dict_shape(self):
        prof = QueryProfile("q-1", "knn")
        with prof.stage("sweep") as st:
            st.annotate(ops=9)
        node = prof.root.children["sweep"].to_dict()
        assert node["name"] == "sweep"
        assert set(node) == {"name", "wall_seconds", "count", "attrs"}
        assert node["attrs"] == {"ops": 9}
        assert node["count"] == 1


class TestQueryProfile:
    def test_observe_bundle_carries_profile_and_context(self):
        prof = QueryProfile("q-5", "within")
        assert isinstance(prof.observe, Instrumentation)
        assert prof.observe.profile is prof
        assert prof.observe.context is prof.context
        assert as_instrumentation(prof).profile is prof

    def test_tracer_stamps_profile_query_id(self):
        prof = QueryProfile("q-5", "within")
        with prof.observe.tracer.span("sweep.init"):
            pass
        assert prof.spans[0]["attrs"]["query_id"] == "q-5"

    def test_coverage_reflects_attributed_time(self):
        with QueryProfile("q-1", "knn") as prof:
            with prof.stage("everything"):
                for _ in range(10000):
                    pass
        assert 0.0 < prof.coverage <= 1.05

    def test_report_is_json_ready(self):
        with QueryProfile("q-1", "knn", meta={"k": 2}) as prof:
            with prof.stage("init") as st:
                st.annotate(ops=3)
        report = json.loads(json.dumps(prof.report()))
        assert report["query_id"] == "q-1"
        assert report["meta"] == {"k": 2}
        assert report["stages"][0]["name"] == "init"
        assert report["metrics"]["query_id"] == "q-1"

    def test_summary_flattens_top_level_stages(self):
        with QueryProfile("q-1", "knn") as prof:
            with prof.stage("sweep"):
                pass
            with prof.stage("merge"):
                pass
        summary = prof.summary()
        assert set(summary["stages"]) == {"sweep", "merge"}


class TestSlowQueryLog:
    def _summary(self, i, seconds):
        return {"query_id": f"q-{i}", "total_seconds": seconds}

    def test_threshold_splits_slow_from_fast(self):
        log = SlowQueryLog(threshold_seconds=0.5)
        assert log.offer(self._summary(1, 0.9)) is True
        assert log.offer(self._summary(2, 0.1)) is False
        assert [s["query_id"] for s in log.slow] == ["q-1"]
        assert log.offered == 2

    def test_reservoir_is_uniform_sized(self):
        log = SlowQueryLog(threshold_seconds=10.0, reservoir=16, seed=1)
        for i in range(1000):
            log.offer(self._summary(i, 0.001))
        assert len(log.sample) == 16
        assert not log.slow
        # A late entry has had a chance to displace an early one.
        ids = {s["query_id"] for s in log.sample}
        assert ids != {f"q-{i}" for i in range(16)}

    def test_sink_receives_slow_entries_as_jsonl(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(threshold_seconds=0.5, sink=JsonlSink(path))
        log.offer(self._summary(1, 2.0))
        log.offer(self._summary(2, 0.0))
        log.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["type"] == "slow_query"
        assert lines[0]["query_id"] == "q-1"

    def test_max_slow_caps_retention(self):
        log = SlowQueryLog(threshold_seconds=0.0, max_slow=4)
        for i in range(10):
            log.offer(self._summary(i, 1.0))
        assert len(log.slow) == 4
        assert log.offered == 10

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SlowQueryLog(threshold_seconds=-1.0)
        with pytest.raises(ValueError, match="reservoir"):
            SlowQueryLog(threshold_seconds=1.0, reservoir=0)


class TestWorkloadAttribution:
    def _profile_with(self, kind="knn", oids=()):
        prof = QueryProfile("q-1", kind)
        prof._answer_oids = list(oids)
        prof.finish()
        return prof

    def test_hot_oids_ranked_by_count(self):
        attribution = WorkloadAttribution()
        attribution.note_query(self._profile_with(oids=["a", "b"]))
        attribution.note_query(self._profile_with(oids=["a"]))
        assert attribution.hot_oids(top_k=1) == [("a", 2)]

    def test_to_dict_includes_kind_counts(self):
        attribution = WorkloadAttribution()
        attribution.note_query(self._profile_with(kind="knn"))
        attribution.note_query(self._profile_with(kind="within"))
        attribution.note_query(self._profile_with(kind="knn"))
        out = attribution.to_dict()
        assert out["by_kind"] == {"knn": 2, "within": 1}
        assert out["queries"] == 3
        assert "cache" not in out

    def test_watched_cache_stats_export(self):
        class FakeCache:
            hit_rate = 0.5

            def stats(self):
                return {"answer_hits": 1}

        attribution = WorkloadAttribution()
        attribution.watch_cache(FakeCache())
        out = attribution.to_dict()
        assert out["cache"]["answer_hits"] == 1
        assert out["cache"]["hit_rate"] == 0.5


class TestQueryProfiler:
    def test_ids_are_sequential(self):
        profiler = QueryProfiler()
        with profiler.profile("knn") as p1:
            pass
        with profiler.profile("knn") as p2:
            pass
        assert (p1.query_id, p2.query_id) == ("q-000001", "q-000002")

    def test_explicit_query_id_wins(self):
        profiler = QueryProfiler()
        with profiler.profile("knn", query_id="audit-7") as prof:
            pass
        assert prof.query_id == "audit-7"

    def test_finished_profiles_feed_log_and_attribution(self):
        log = SlowQueryLog(threshold_seconds=0.0)
        profiler = QueryProfiler(slow_log=log)
        with profiler.profile("within") as prof:
            pass
        assert profiler.profiles == [prof]
        assert log.offered == 1
        assert profiler.attribution.queries == 1

    def test_observe_exports_profiler_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        profiler = QueryProfiler(observe=registry)
        with profiler.profile("knn"):
            pass
        snapshot = registry.snapshot()
        assert snapshot['profiler_queries_total{kind="knn"}'] == 1
        assert snapshot['profiler_query_seconds_count{kind="knn"}'] == 1.0

    def test_to_dict_round_trips_json(self):
        profiler = QueryProfiler(slow_log=SlowQueryLog(0.0))
        with profiler.profile("knn"):
            pass
        out = json.loads(profiler.to_json())
        assert out["attribution"]["queries"] == 1
        assert out["slow_log"]["offered"] == 1

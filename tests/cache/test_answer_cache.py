"""Unit tests for the answer cache: hits, extension, invalidation."""

import inspect

import pytest

from repro.cache import AnswerCache, QueryCache, knn_fingerprint
from repro.cache.answer_cache import clip_payload, restrict_payload
from repro.core.api import evaluate_knn, _as_gdistance
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval, IntervalSet
from repro.geometry.vectors import Vector
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New
from repro.obs.explain import explain
from repro.obs.instrument import Instrumentation
from repro.query.answers import SnapshotAnswer

from tests._oracle import sweep_ops


def make_db(n=6):
    db = MovingObjectDatabase(initial_time=0.0)
    for i in range(n):
        db.apply(
            New(
                f"o{i}",
                0.001 * (i + 1),
                velocity=Vector.of(1.0 + 0.3 * i, -0.5 * i),
                position=Vector.of(float(2 * i), float(-i)),
            )
        )
    return db


def answer(memberships, lo, hi):
    return SnapshotAnswer(
        {oid: IntervalSet([Interval(a, b)]) for oid, (a, b) in memberships.items()},
        Interval(lo, hi),
    )


WINDOW = Interval(0.01, 5.0)
WIDER = Interval(0.01, 12.0)


def cached_setup(window=WINDOW):
    """A MOD and a cache holding the 2-NN answer over ``window``."""
    db = make_db()
    gd = SquaredEuclideanDistance([0.0, 0.0])
    obs = Instrumentation()
    cache = QueryCache(observe=obs)
    evaluate_knn(db, gd, window, k=2, cache=cache)
    return db, gd, cache, knn_fingerprint(gd, 2), obs


def extension_hits(obs):
    return obs.snapshot()['cache_answer_hits_total{kind="extension"}']


class TestPayloadHelpers:
    def test_restrict_drops_objects_outside_window(self):
        payload = answer({"a": (0.0, 2.0), "b": (5.0, 8.0)}, 0.0, 10.0)
        out = restrict_payload(payload, Interval(0.0, 3.0))
        assert out.objects == {"a"}
        assert out.interval == Interval(0.0, 3.0)

    def test_restrict_handles_per_k_dicts(self):
        payload = {1: answer({"a": (0.0, 4.0)}, 0.0, 10.0)}
        out = restrict_payload(payload, Interval(1.0, 2.0))
        assert out[1].intervals_for("a").total_length == pytest.approx(1.0)

    def test_clip_never_inverts(self):
        payload = answer({"a": (0.0, 4.0)}, 0.0, 10.0)
        out = clip_payload(payload, 3.0, 1.0)
        assert out.interval == Interval(3.0, 3.0)


class TestExactHits:
    def test_contained_interval_hits(self):
        cache = AnswerCache()
        fp = ("knn", ("x",), 1)
        cache.put(fp, Interval(0.0, 10.0), answer({"a": (1.0, 9.0)}, 0.0, 10.0))
        got = cache.get(fp, Interval(2.0, 8.0))
        assert got is not None
        assert got.intervals_for("a").total_length == pytest.approx(6.0)
        assert cache.hits == 1 and cache.misses == 0

    def test_disjoint_interval_misses(self):
        cache = AnswerCache()
        fp = ("knn", ("x",), 1)
        cache.put(fp, Interval(0.0, 10.0), answer({}, 0.0, 10.0))
        assert cache.get(fp, Interval(10.5, 12.0)) is None
        assert cache.misses == 1

    def test_other_fingerprint_misses(self):
        cache = AnswerCache()
        cache.put(("knn", ("x",), 1), Interval(0.0, 10.0), answer({}, 0.0, 10.0))
        assert cache.get(("knn", ("y",), 1), Interval(1.0, 2.0)) is None

    def test_superseded_engineless_entry_is_replaced(self):
        cache = AnswerCache()
        fp = ("knn", ("x",), 1)
        cache.put(fp, Interval(2.0, 4.0), answer({}, 2.0, 4.0))
        cache.put(fp, Interval(0.0, 10.0), answer({}, 0.0, 10.0))
        assert cache.spans(fp) == [Interval(0.0, 10.0)]

    def test_per_query_span_cap(self):
        cache = AnswerCache(max_entries_per_query=2)
        fp = ("knn", ("x",), 1)
        for i in range(4):
            lo = 10.0 * i
            cache.put(fp, Interval(lo, lo + 1.0), answer({}, lo, lo + 1.0))
        assert len(cache.spans(fp)) == 2


class TestExtension:
    def test_extension_continues_the_sweep(self):
        db, gd, cache, fp, obs = cached_setup()
        got = evaluate_knn(db, gd, WIDER, k=2, cache=cache)
        assert got.approx_equals(evaluate_knn(db, gd, WIDER, k=2), atol=1e-6)
        assert cache.answers.hits == 1 and extension_hits(obs) == 1
        # The extended span now serves longer sub-intervals exactly.
        assert cache.answers.spans(fp) == [WIDER]
        sub = Interval(3.0, 11.0)
        again = evaluate_knn(db, gd, sub, k=2, cache=cache)
        assert again.approx_equals(evaluate_knn(db, gd, sub, k=2), atol=1e-6)
        assert cache.answers.hits == 2 and extension_hits(obs) == 1

    def test_deposited_entry_extends(self):
        """An answer nobody swept through the cache (a session's or a
        server's deposit) is a prefix like any other; ``get`` keeps its
        full-coverage contract beside it."""
        db = make_db()
        gd = SquaredEuclideanDistance([0.0, 0.0])
        cache = QueryCache()
        cache.bind(db)
        fp = cache.store("knn", gd, WINDOW, evaluate_knn(db, gd, WINDOW, k=2), k=2)
        assert cache.answers.get(fp, WIDER) is None
        assert cache.answers.misses == 1
        reach, prefix = cache.answers.prefix(fp, WIDER)
        assert reach == WINDOW.hi and prefix.interval == WINDOW
        got = evaluate_knn(db, gd, WIDER, k=2, cache=cache)
        assert got.approx_equals(evaluate_knn(db, gd, WIDER, k=2), atol=1e-6)
        assert cache.answers.spans(fp) == [WIDER]

    def test_entries_hold_answers_only(self):
        assert list(inspect.signature(AnswerCache.put).parameters) == [
            "self",
            "fingerprint",
            "interval",
            "payload",
        ]
        assert not {"engine", "view"} & set(
            inspect.signature(QueryCache.store).parameters
        )
        db, gd, cache, fp, obs = cached_setup()
        (entry,) = cache.answers._entries.values()
        assert entry.__slots__ == ("fingerprint", "lo", "hi", "payload", "nbytes")

    def test_update_beyond_span_then_wider_query(self):
        db, gd, cache, fp, obs = cached_setup()
        # Update beyond the cached span: the entry is untouched.
        db.apply(ChangeDirection("o0", 7.0, Vector.of(-3.0, 1.0)))
        assert cache.answers.spans(fp) == [WINDOW]
        assert cache.answers.invalidations == 0
        got = evaluate_knn(db, gd, WIDER, k=2, cache=cache)
        assert got.approx_equals(evaluate_knn(db, gd, WIDER, k=2), atol=1e-6)
        assert extension_hits(obs) == 1


class TestInvalidation:
    def test_update_preserves_entries_ending_before_it(self):
        cache = AnswerCache()
        fp = ("knn", ("x",), 1)
        cache.put(fp, Interval(0.0, 5.0), answer({"a": (0.0, 5.0)}, 0.0, 5.0))
        cache.on_update(ChangeDirection("a", 6.0, Vector.of(0.0, 0.0)))
        assert cache.spans(fp) == [Interval(0.0, 5.0)]
        assert cache.invalidations == 0

    def test_update_clips_straddling_entries(self):
        cache = AnswerCache()
        fp = ("knn", ("x",), 1)
        cache.put(fp, Interval(0.0, 10.0), answer({"a": (1.0, 9.0)}, 0.0, 10.0))
        cache.on_update(ChangeDirection("a", 4.0, Vector.of(0.0, 0.0)))
        assert cache.spans(fp) == [Interval(0.0, 4.0)]
        got = cache.get(fp, Interval(0.0, 4.0))
        assert got.intervals_for("a").total_length == pytest.approx(3.0)
        assert cache.invalidations == 1

    def test_update_drops_entries_entirely_after_it(self):
        cache = AnswerCache()
        fp = ("knn", ("x",), 1)
        cache.put(fp, Interval(5.0, 10.0), answer({}, 5.0, 10.0))
        cache.on_update(ChangeDirection("a", 2.0, Vector.of(0.0, 0.0)))
        assert cache.spans(fp) == []
        assert cache.invalidations == 1

    def test_update_inside_span_clips_then_extends(self):
        db, gd, cache, fp, obs = cached_setup(Interval(0.01, 8.0))
        # t=3 is inside the cached span: [0.01, 3] is still valid and
        # the next wider query sweeps [3, 12] only.
        db.apply(ChangeDirection("o1", 3.0, Vector.of(1.0, 1.0)))
        assert cache.answers.spans(fp) == [Interval(0.01, 3.0)]
        report = explain(db, gd, WIDER, "knn", k=2, cache=cache)
        assert report.answer.approx_equals(
            evaluate_knn(db, gd, WIDER, k=2), atol=1e-6
        )
        assert extension_hits(obs) == 1
        assert cache.answers.spans(fp) == [WIDER]
        gap = explain(db, gd, Interval(3.0, 12.0), "knn", k=2)
        assert sweep_ops(report) == sweep_ops(gap) > 0

    def test_cached_prefix_stays_correct_after_clip(self):
        db, gd, cache, fp, obs = cached_setup(Interval(0.01, 8.0))
        db.apply(ChangeDirection("o1", 3.0, Vector.of(4.0, 4.0)))
        clipped = Interval(0.01, 3.0)
        got = evaluate_knn(db, gd, clipped, k=2, cache=cache)
        assert got.approx_equals(evaluate_knn(db, gd, clipped, k=2), atol=1e-6)
        assert cache.answers.hits == 1 and extension_hits(obs) == 0


class TestEvictionAndMetrics:
    def test_byte_budget_evicts_lru(self):
        one = AnswerCache()
        fp = ("knn", ("x",), 1)
        one.put(fp, Interval(0.0, 1.0), answer({"a": (0.0, 1.0)}, 0.0, 1.0))
        budget = one.nbytes * 2 + 1
        cache = AnswerCache(max_bytes=budget)
        for i in range(5):
            lo = 10.0 * i
            cache.put(
                (i,), Interval(lo, lo + 1.0), answer({"a": (lo, lo + 1.0)}, lo, lo + 1.0)
            )
        assert cache.nbytes <= budget
        assert cache.evictions >= 3
        assert cache.get((4,), Interval(40.0, 41.0)) is not None

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            AnswerCache(max_bytes=-1)
        with pytest.raises(ValueError):
            AnswerCache(max_entries_per_query=0)

    def test_metrics_export(self):
        obs = Instrumentation()
        cache = AnswerCache(observe=obs)
        fp = ("knn", ("x",), 1)
        cache.put(fp, Interval(0.0, 10.0), answer({"a": (1.0, 9.0)}, 0.0, 10.0))
        cache.get(fp, Interval(1.0, 2.0))
        cache.get(fp, Interval(50.0, 60.0))
        cache.on_update(ChangeDirection("a", 4.0, Vector.of(0.0, 0.0)))
        snap = obs.snapshot()
        assert snap['cache_answer_hits_total{kind="exact"}'] == 1
        assert snap["cache_answer_misses_total"] == 1
        assert snap['cache_answer_invalidations_total{kind="clip"}'] == 1
        assert snap["cache_answer_entries"] == 1


class TestQueryCacheFacade:
    def test_bind_is_idempotent_and_exclusive(self):
        db = make_db()
        other = make_db()
        cache = QueryCache()
        cache.bind(db)
        cache.bind(db)
        with pytest.raises(ValueError):
            cache.bind(other)

    def test_unbind_clears_and_allows_rebinding(self):
        db = make_db()
        cache = QueryCache()
        gd = _as_gdistance([0.0, 0.0])
        evaluate_knn(db, gd, k=2, interval=Interval(0.01, 5.0), cache=cache)
        assert len(cache.answers) == 1
        cache.unbind()
        assert len(cache.answers) == 0 and len(cache.curves) == 0
        cache.bind(make_db())

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            QueryCache(max_bytes=0)

    def test_combined_hit_rate_mixes_both_stores(self):
        db = make_db()
        cache = QueryCache()
        gd = _as_gdistance([0.0, 0.0])
        evaluate_knn(db, gd, k=2, interval=Interval(0.01, 5.0), cache=cache)
        evaluate_knn(db, gd, k=2, interval=Interval(1.0, 4.0), cache=cache)
        stats = cache.stats()
        assert stats["answer_hits"] == 1
        assert 0.0 < cache.hit_rate <= 1.0

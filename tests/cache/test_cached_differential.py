"""Differential tests: cached evaluation must be invisible.

Each seeded oracle scenario is driven through the naive baseline and
through ``evaluate_*`` with one shared :class:`QueryCache`, issuing
repeated and overlapping interval queries *between* stream updates so
the cache serves exact hits, extension hits, and post-invalidation
recomputations — and every answer is checked against an uncached
evaluation of the same window.
"""

import pytest

from repro.cache import QueryCache
from repro.core.api import evaluate_knn, evaluate_multiknn, evaluate_within

from tests._oracle import (
    ANSWER_ATOL,
    KNN,
    MULTIKNN,
    WITHIN,
    answers_equal,
    generate_scenario,
    run_naive,
    sliced_sweeps,
    sweep_ops,
)

SEEDS = range(12)


def cached_eval(mode, db, sc, interval, cache):
    gd = sc.gdistance()
    if mode == KNN:
        return evaluate_knn(db, gd, interval, k=sc.k, cache=cache)
    if mode == WITHIN:
        return evaluate_within(db, gd, interval, distance=sc.threshold, cache=cache)
    return evaluate_multiknn(db, gd, interval, ks=sc.ks, cache=cache)


def uncached_eval(mode, db, sc, interval):
    return cached_eval(mode, db, sc, interval, None)


@pytest.mark.parametrize("mode", [KNN, WITHIN, MULTIKNN])
@pytest.mark.parametrize("seed", SEEDS)
def test_cached_final_answer_matches_naive(mode, seed):
    from repro.geometry.intervals import Interval

    sc = generate_scenario(seed)
    expected, _ = run_naive(sc, mode)
    db = sc.build_db()
    cache = QueryCache()
    for update in sc.stream:
        db.apply(update)
    window = Interval(sc.start, sc.horizon)
    cold = cached_eval(mode, db, sc, window, cache)
    warm = cached_eval(mode, db, sc, window, cache)
    assert answers_equal(cold, expected), f"{mode} seed {seed}: cold"
    assert answers_equal(warm, expected), f"{mode} seed {seed}: warm repeat"
    assert cache.answers.hits >= 1


@pytest.mark.parametrize("mode", [KNN, WITHIN])
@pytest.mark.parametrize("seed", SEEDS)
def test_mid_stream_queries_with_invalidation(mode, seed):
    """Interleave queries with updates: every cached answer must match
    an uncached evaluation over the same window on the same state."""
    from repro.geometry.intervals import Interval

    sc = generate_scenario(seed)
    db = sc.build_db()
    cache = QueryCache()
    lo = sc.start
    for i, update in enumerate(sc.stream):
        db.apply(update)
        hi = update.time
        if hi <= lo:
            continue
        window = Interval(lo, hi)
        got = cached_eval(mode, db, sc, window, cache)
        want = uncached_eval(mode, db, sc, window)
        assert answers_equal(got, want), f"{mode} seed {seed} step {i}: full"
        # A strictly shorter overlapping window: exact-hit path.
        mid = lo + 0.5 * (hi - lo)
        got_sub = cached_eval(mode, db, sc, Interval(lo, mid), cache)
        want_sub = uncached_eval(mode, db, sc, Interval(lo, mid))
        assert answers_equal(got_sub, want_sub), (
            f"{mode} seed {seed} step {i}: sub-interval"
        )
    assert cache.answers.hits + cache.answers.misses > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_extension_across_growing_horizons(seed):
    """Monotonically growing query windows on a static db: every query
    after the first is an extension of the same continuation engine."""
    from repro.geometry.intervals import Interval

    sc = generate_scenario(seed)
    db = sc.build_db()
    cache = QueryCache()
    span = sc.horizon - sc.start
    fractions = (0.25, 0.5, 0.75, 1.0)
    for frac in fractions:
        window = Interval(sc.start, sc.start + frac * span)
        got = cached_eval(KNN, db, sc, window, cache)
        want = uncached_eval(KNN, db, sc, window)
        assert answers_equal(got, want), f"seed {seed} frac {frac}"
    # One miss (the first window), extensions after that.
    assert cache.answers.misses == 1
    assert cache.answers.hits == len(fractions) - 1


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_cached_matches_naive(seed):
    """A cold answer built by three engines — the window's sweep cut
    into three time slices and stitched — is stored whole; the repeat,
    swept whole, is served from it."""
    from repro.geometry.intervals import Interval

    sc = generate_scenario(seed)
    expected, _ = run_naive(sc, KNN)
    db = sc.build_db()
    for update in sc.stream:
        db.apply(update)
    cache = QueryCache()
    window = Interval(sc.start, sc.horizon)
    with sliced_sweeps(3):
        got = evaluate_knn(db, sc.gdistance(), window, k=sc.k, cache=cache)
    assert answers_equal(got, expected)
    again = evaluate_knn(db, sc.gdistance(), window, k=sc.k, cache=cache)
    assert answers_equal(again, expected)
    assert cache.answers.hits >= 1


# -- extension: every cached span is a prefix, whoever stored it ------------
def _evaluate(mode, db, sc, interval, **options):
    """``evaluate_*`` for the scenario's query of kind ``mode``."""
    gd = sc.gdistance()
    if mode == KNN:
        return evaluate_knn(db, gd, interval, k=sc.k, **options)
    if mode == WITHIN:
        return evaluate_within(
            db, gd, interval, distance=sc.threshold, **options
        )
    return evaluate_multiknn(db, gd, interval, ks=sc.ks, **options)


def _explain(mode, db, sc, interval, cache=None):
    from repro.obs.explain import explain

    return explain(
        db,
        sc.gdistance(),
        interval,
        mode,
        k=sc.k,
        distance=sc.threshold,
        ks=sc.ks,
        cache=cache,
    )


def _spans(cache, sc, mode):
    from tests._oracle import _scenario_spec

    return cache.answers.spans(_scenario_spec(sc, mode).fingerprint)


def _dump(answer):
    from repro.io import answer_to_dict

    if isinstance(answer, dict):
        return {k: answer_to_dict(a) for k, a in answer.items()}
    return answer_to_dict(answer)


@pytest.mark.parametrize("slices", [None, 3])
@pytest.mark.parametrize("mode", [KNN, WITHIN, MULTIKNN])
@pytest.mark.parametrize("seed", SEEDS)
def test_growing_horizons_across_updates(mode, seed, slices):
    """Growing windows with one scenario update applied between each
    pair: alternately just beyond the cached span (kept whole) and
    inside it (clipped to ``[start, t]``) — either way the next window
    is an extension hit, equal to an uncached evaluation on the same
    state, and the last one equals the naive baseline.  ``slices``
    cuts every cached call's sweeps (see :func:`sliced_sweeps`)."""
    from repro.geometry.intervals import Interval

    sc = generate_scenario(seed)
    expected, _ = run_naive(sc, mode)
    db = sc.build_db()
    cache = QueryCache()
    ends = [
        update.time + (0.3 if i % 2 else -0.05)
        for i, update in enumerate(sc.stream)
    ]
    for update, hi in zip(sc.stream, ends):
        window = Interval(sc.start, hi)
        with sliced_sweeps(slices):
            got = _evaluate(mode, db, sc, window, cache=cache)
        want = _evaluate(mode, db, sc, window)
        assert answers_equal(got, want), f"{mode} seed {seed} hi {hi}"
        db.apply(update)
    window = Interval(sc.start, sc.horizon)
    with sliced_sweeps(slices):
        got = _evaluate(mode, db, sc, window, cache=cache)
    assert answers_equal(got, expected), f"{mode} seed {seed}: final"
    assert _spans(cache, sc, mode) == [window]
    assert cache.answers.misses == 1
    assert cache.answers.hits == len(sc.stream)
    assert cache.answers.invalidations == len(sc.stream) // 2


@pytest.mark.parametrize("mode", [KNN, WITHIN, MULTIKNN])
@pytest.mark.parametrize("seed", SEEDS)
def test_static_extension_is_the_cold_answer_exactly(mode, seed):
    """On a static MOD the stitch leaves no trace: every extended
    answer serializes identically to the cold one, and the extension
    swept exactly what an uncached query over the gap sweeps."""
    from repro.geometry.intervals import Interval

    sc = generate_scenario(seed)
    db = sc.build_db()
    for update in sc.stream:
        db.apply(update)
    cache = QueryCache()
    span = sc.horizon - sc.start
    old_hi = None
    for frac in (0.25, 0.5, 0.75, 1.0):
        hi = sc.start + frac * span
        window = Interval(sc.start, hi)
        report = _explain(mode, db, sc, window, cache)
        assert _dump(report.answer) == _dump(
            _evaluate(mode, db, sc, window)
        ), f"{mode} seed {seed} frac {frac}"
        if old_hi is not None:
            gap = _explain(mode, db, sc, Interval(old_hi, hi))
            assert sweep_ops(report) == sweep_ops(gap)
        old_hi = hi
        assert _spans(cache, sc, mode) == [window]


@pytest.mark.parametrize("mode", [KNN, WITHIN])
@pytest.mark.parametrize("seed", SEEDS)
def test_closed_session_answer_extends(mode, seed):
    """A ``ContinuousQuerySession(cache=)`` deposits ``[start, t]`` at
    close; a later one-shot over ``[start, t + delta]`` sweeps only the
    gap."""
    from repro.core.api import ContinuousQuerySession
    from repro.geometry.intervals import Interval

    sc = generate_scenario(seed)
    expected, _ = run_naive(sc, mode)
    db = sc.build_db()
    cache = QueryCache()
    if mode == KNN:
        session = ContinuousQuerySession.knn(
            db, sc.gdistance(), k=sc.k, start=sc.start, cache=cache
        )
    else:
        session = ContinuousQuerySession.within(
            db, sc.gdistance(), sc.threshold, start=sc.start, cache=cache
        )
    for update in sc.stream:
        db.apply(update)
    closed_at = 0.5 * (sc.stream[-1].time + sc.horizon)
    session.close(at=closed_at)
    assert _spans(cache, sc, mode) == [Interval(sc.start, closed_at)]
    window = Interval(sc.start, sc.horizon)
    report = _explain(mode, db, sc, window, cache)
    assert answers_equal(report.answer, expected), f"{mode} seed {seed}"
    assert cache.answers.misses == 0 and cache.answers.hits == 1
    assert _spans(cache, sc, mode) == [window]
    gap = _explain(mode, db, sc, Interval(closed_at, sc.horizon))
    assert sweep_ops(report) == sweep_ops(gap)


def _tie_db(twins):
    """Curves that all meet at t = 2: ``a`` (and its twin) recede from
    the origin, ``b`` approaches, each at unit speed from 1 and 5."""
    from repro.mod.database import MovingObjectDatabase
    from repro.trajectory.builder import linear_from

    db = MovingObjectDatabase(initial_time=0.0)
    movers = [("a", 1.0, 1.0), ("b", 5.0, -1.0), ("far", 40.0, 0.0)]
    if twins:
        movers.insert(1, ("a2", 1.0, 1.0))
    for oid, x, vx in movers:
        db.install(oid, linear_from(0.0, [x, 0.0], [vx, 0.0]))
    return db


@pytest.mark.parametrize("slices", [None, 2])
@pytest.mark.parametrize("twins,k", [(False, 1), (True, 1), (True, 2)])
def test_swap_and_twins_tied_at_the_stitch_point(twins, k, slices):
    """The old ``hi`` is the instant the ranks swap (and, with twins,
    an exact three-way tie): the prefix ends in the tie, the gap sweep
    starts in it, and the union is still the cold answer and the naive
    one — also with both cached calls' sweeps cut in two."""
    from repro.baselines.naive import naive_knn_answer
    from repro.geometry.intervals import Interval

    db = _tie_db(twins)
    cache = QueryCache()
    first, wider = Interval(0.5, 2.0), Interval(0.5, 4.0)
    with sliced_sweeps(slices):
        evaluate_knn(db, [0.0, 0.0], first, k=k, cache=cache)
        got = evaluate_knn(db, [0.0, 0.0], wider, k=k, cache=cache)
    assert cache.answers.hits == 1 and cache.answers.misses == 1
    assert _dump(got) == _dump(evaluate_knn(db, [0.0, 0.0], wider, k=k))
    from repro.gdist.euclidean import SquaredEuclideanDistance

    naive = naive_knn_answer(
        db, SquaredEuclideanDistance([0.0, 0.0]), wider, k
    )
    assert got.approx_equals(naive, atol=ANSWER_ATOL)

"""One-shot and continuous query evaluation over moving object databases.

These functions assemble the pieces — g-distance, sweep engine, view —
so a caller only states the query.  The one-shot functions run the
whole sweep immediately (appropriate when the trajectory history over
the interval is already known, i.e. *past* queries); the session class
is a one-tenant engine pool (:class:`~repro.server.group.EngineGroup`)
that subscribes to the database and maintains answers eagerly as
updates arrive (*future* and *continuing* queries).  A rank reading
orders only the curves it can reach: a one-shot sweep per slice of its
window (:mod:`repro.sweep.prune`), a live one over the curves under a
bar that a range reading keeps (:mod:`repro.sweep.live`).  A range
reading orders nothing: one record per curve, each with its own next
crossing (:mod:`repro.sweep.within`), live and one-shot alike.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Set

from repro.core.spec import QueryLike, QuerySpec, _as_gdistance  # noqa: F401
from repro.geometry.intervals import Interval
from repro.gdist.base import GDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ObjectId
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation
from repro.obs.profile import _stage
from repro.query.answers import SnapshotAnswer
from repro.query.query import Query
from repro.sweep.engine import SweepEngine
from repro.sweep.evaluator import GenericFOEvaluator
from repro.sweep.live import LiveSweep
from repro.sweep.prune import candidate_mod, plan_sweep
from repro.sweep.within import RangeSweep


def _live_host(db, gdistance, interval, constants, observe, curve_store):
    """The live sweep a reading is maintained by — chosen here and
    nowhere else (every engine pool, and so every session).  A range
    reading (``constants`` holds its threshold) is one record per curve
    (:class:`~repro.sweep.within.RangeSweep`); a rank reading is the
    bar host (:class:`~repro.sweep.live.LiveSweep`: the same records at
    a bar ``T`` kept above ``K`` curves, and one engine over the curves
    under it)."""
    if constants:
        (threshold,) = constants
        return RangeSweep(db, gdistance, interval, threshold, observe, curve_store)
    return LiveSweep(db, gdistance, interval, observe, curve_store)


def _single_sweep(
    db: MovingObjectDatabase,
    spec: QuerySpec,
    interval: Interval,
    observe,
    curves=None,
    _slices: int = 1,
):
    """The one-shot sweep.

    A range reading is one :class:`~repro.sweep.within.RangeSweep` run
    over ``interval`` to its end: one record per curve, no plan.

    A rank reading is prune, sweep the survivors, stitch:
    :func:`~repro.sweep.prune.plan_sweep` cuts ``interval`` into slices
    and names each slice's candidates — the curves whose interval
    bounds do not already rule them out of the reading; one engine per
    slice sweeps a candidate MOD over ``[a, b]`` and its view decides
    every membership; the slice answers are joined — touching closed
    intervals coalesce, so the cuts leave no trace.  "One slice, every
    object" is a value of the plan, not another path: it is the one
    engine over the window this function used to be.  The plan reads
    every object's bounds in closed form where it can and builds only
    its candidates' curves, in one curve store the engines share
    (``curves``: a caller's cache's, else a private one), so a curve is
    built once however many slices hold it and never for an object the
    bounds rule out.  ``_slices`` is the planner's (tests only).

    Stage attribution keeps ``init`` / ``sweep`` / ``answer`` (their
    ``ops`` summed over the slice engines) and adds ``prune``.
    """
    # Both import this module (through ``repro.core``).
    from repro.cache.curve_store import CurveStore
    from repro.parallel.merge import stitch_answers

    profile = getattr(observe, "profile", None)
    metrics = (observe or NULL_INSTRUMENTATION).metrics
    if curves is None:
        curves = CurveStore()
    if not spec.ranks:
        return _range_sweep(db, spec, interval, observe, curves)
    with _stage(profile, "prune") as st:
        plan = plan_sweep(db, spec, interval, curves, _slices)
        st.annotate(
            objects=plan.objects,
            candidates=plan.candidates,
            slices=len(plan.slices),
            overlap_pairs=plan.overlap_pairs,
        )
    _book_prune(metrics, plan.objects, plan.candidates, len(plan.slices))
    parts = []
    for piece in plan.slices:
        with _stage(profile, "init") as st:
            engine = SweepEngine(
                candidate_mod(db, piece.candidates),
                spec.gdistance,
                Interval(piece.lo, piece.hi),
                observe=observe,
                curve_store=curves,
            )
            view = spec.view(engine)
            init_ops = engine.primitive_ops() if profile is not None else 0
            st.annotate(ops=init_ops)
        with _stage(profile, "sweep") as st:
            engine.run_to_end()
            if profile is not None:
                st.annotate(ops=engine.primitive_ops() - init_ops)
        with _stage(profile, "answer"):
            parts.append(spec.answer(view))
    with _stage(profile, "answer"):
        return stitch_answers(parts, interval)


def _range_sweep(db, spec: QuerySpec, interval: Interval, observe, curves):
    """A range reading's one-shot: one
    :class:`~repro.sweep.within.RangeSweep` over ``interval``, run to
    its end.  Its pruning is its initialisation — one pass bounds every
    curve and computes the crossings of those that straddle — so the
    ``prune`` stage holds the ``init`` stage."""
    if not math.isfinite(interval.hi):
        raise ValueError("cannot run an unbounded interval to its end")
    profile = getattr(observe, "profile", None)
    with _stage(profile, "prune") as pruned, _stage(profile, "init") as st:
        host = RangeSweep(
            db, spec.gdistance, interval, spec.threshold, observe, curves
        )
        init_ops = host.primitive_ops() if profile is not None else 0
        st.annotate(ops=init_ops)
    pruned.annotate(
        objects=host.objects, candidates=host.candidates, slices=1, overlap_pairs=0
    )
    _book_prune(
        (observe or NULL_INSTRUMENTATION).metrics, host.objects, host.candidates, 1
    )
    with _stage(profile, "sweep") as st:
        host.advance_to(interval.hi)
        host.finalize()
        if profile is not None:
            st.annotate(ops=host.primitive_ops() - init_ops)
    with _stage(profile, "answer"):
        return host.answer()


def _book_prune(metrics, objects: int, candidates: int, slices: int) -> None:
    metrics.counter(
        "sweep_prune_objects_total",
        "Curves one-shot sweeps bounded (every curve meeting the window).",
    ).inc(objects)
    metrics.counter(
        "sweep_prune_candidates_total",
        "Curve entries one-shot sweeps handed to their slice engines.",
    ).inc(candidates)
    metrics.counter(
        "sweep_prune_slices_total",
        "Window slices (one engine each) one-shot sweeps ran.",
    ).inc(slices)


def _evaluate(
    db: MovingObjectDatabase,
    spec: QuerySpec,
    interval: Interval,
    observe,
    cache=None,
):
    """The one body behind :func:`evaluate_knn`, :func:`evaluate_within`
    and :func:`evaluate_multiknn`: probe, sweep what is not covered,
    stitch, store.

    The probe returns the cached answer over the longest covered prefix
    ``[lo, c]`` of ``interval``; the remainder ``[c, hi]`` — the whole
    window on a miss, nothing on an exact hit — is swept like any
    uncached call's, over the cache's curves.
    Section 4's finite representation makes the answer over
    ``[lo, hi]`` the union of the two, and that union is what is
    stored: the cache holds answers, the engines die with the call.
    """
    observe = as_instrumentation(observe)
    profile = getattr(observe, "profile", None)
    curves = None if cache is None else cache.curves

    def sweep(window: Interval):
        return _single_sweep(db, spec, window, observe, curves)

    if cache is None or not interval.is_bounded:
        return sweep(interval)
    cache.bind(db)
    with _stage(profile, "cache.probe") as st:
        covered = cache.prefix(
            spec.kind, spec.gdistance, interval, profile=profile, **spec.params
        )
        st.annotate(hit=covered is not None)
    if covered is None:
        answer = sweep(interval)
    else:
        reach, answer = covered
        if reach >= interval.hi:
            return answer
        from repro.parallel.merge import stitch_answers  # imports this module

        with _stage(profile, "cache.extend") as st:
            gap = sweep(Interval(reach, interval.hi))
            answer = stitch_answers([answer, gap], interval)
            if profile is not None:
                st.annotate(
                    ops=sum(c.attrs.get("ops", 0) for c in st.children.values())
                )
    with _stage(profile, "cache.store"):
        cache.deposit(spec, interval, answer)
    return answer


def evaluate_knn(
    db: MovingObjectDatabase,
    query: QueryLike,
    interval: Interval,
    k: int = 1,
    observe=None,
    cache=None,
) -> SnapshotAnswer:
    """The k nearest objects to ``query`` over ``interval``.

    ``query`` is a trajectory, a fixed point, or any polynomial
    g-distance (ranking is by g-distance value).  Returns the snapshot
    answer: per object, the exact time intervals during which it is
    among the k nearest.  ``observe`` optionally wires telemetry (see
    :func:`repro.obs.as_instrumentation`).

    Pass ``cache`` (a :class:`~repro.cache.QueryCache`) to serve
    repeated or overlapping-interval queries from cached answers:
    sub-intervals by restriction, forward extensions by sweeping only
    the uncovered gap and storing the union, cold queries by a sweep
    over the cache's curves.  The cache binds to ``db`` and trims
    itself on every update.
    """
    return _evaluate(
        db,
        QuerySpec.knn(query, k),
        interval,
        observe,
        cache=cache,
    )


def evaluate_within(
    db: MovingObjectDatabase,
    query: QueryLike,
    interval: Interval,
    distance: float,
    observe=None,
    cache=None,
) -> SnapshotAnswer:
    """Objects within Euclidean ``distance`` of ``query`` over ``interval``.

    When ``query`` is a trajectory or point the threshold is squared
    internally (the g-distance is the squared Euclidean distance); a
    custom g-distance is compared against ``distance`` as-is.
    ``cache`` serves repeated and overlapping queries as in
    :func:`evaluate_knn`.
    """
    return _evaluate(
        db,
        QuerySpec.within(query, distance),
        interval,
        observe,
        cache=cache,
    )


def evaluate_multiknn(
    db: MovingObjectDatabase,
    query: QueryLike,
    interval: Interval,
    ks: Sequence[int],
    observe=None,
    cache=None,
) -> Dict[int, SnapshotAnswer]:
    """k-NN answers for several k values from one sweep.

    Returns a dict keyed by k.  One sweep at ``max(ks)`` serves every
    requested k (the smaller answers are prefixes of the precedence
    order).  ``cache`` serves repeated and overlapping queries as in
    :func:`evaluate_knn`.
    """
    return _evaluate(
        db,
        QuerySpec.multiknn(query, ks),
        interval,
        observe,
        cache=cache,
    )


def serve(
    db: MovingObjectDatabase,
    config=None,
    observe=None,
    cache=None,
):
    """A multi-tenant :class:`~repro.server.QueryServer` over ``db``.

    Register many concurrent continuous queries (knn / within /
    multiknn, mixed) and pay each update's Theorem 5 maintenance once
    per distinct engine group instead of once per session.  ``config``
    is a :class:`~repro.server.ServerConfig` (admission control, load
    shedding, quarantine); ``observe`` and ``cache`` are
    shared by every engine the server hosts.  Imported lazily so
    ``repro.core`` has no hard dependency on ``repro.server`` (which
    imports this module).
    """
    from repro.server import QueryServer

    return QueryServer(db, config=config, observe=observe, cache=cache)


def serve_tcp(
    db: MovingObjectDatabase,
    host: str = "127.0.0.1",
    port: int = 0,
    config=None,
    net_config=None,
    observe=None,
    cache=None,
):
    """Serve ``db`` to remote clients over TCP.

    Builds a :func:`serve` query server and wraps it in a
    :class:`~repro.net.QueryNetServer`: a one-thread ``selectors``
    frontend speaking the length-prefixed JSON protocol of
    :mod:`repro.net.protocol`, with idempotent request retries,
    per-connection push backpressure, and graceful drain.  ``port=0`` binds an ephemeral port — read the
    actual address from ``.address``.  ``config`` is the
    :class:`~repro.server.ServerConfig`; ``net_config`` the
    :class:`~repro.net.NetConfig` wire policy.

    Returns the started :class:`~repro.net.QueryNetServer` (a context
    manager; leaving the ``with`` block drains and closes)::

        net = serve_tcp(db)
        client = connect(*net.address)
        session = client.open_knn([0.0, 0.0], k=2)
    """
    from repro.net import QueryNetServer

    server = serve(db, config=config, observe=observe, cache=cache)
    return QueryNetServer(server, config=net_config).start(host, port)


def evaluate_query(
    db: MovingObjectDatabase,
    gdistance: GDistance,
    query: Query,
    observe=None,
) -> SnapshotAnswer:
    """Evaluate an arbitrary FO(f) query exactly.

    Uses the sweep to find every support change and the generic
    order-driven evaluator (Lemma 8) for the formula semantics.
    """
    engine = SweepEngine(
        db,
        gdistance,
        query.interval,
        constants=query.constants,
        time_terms=query.time_terms,
        observe=observe,
    )
    view = GenericFOEvaluator(engine, query)
    engine.run_to_end()
    return view.answer()


class ContinuousQuerySession:
    """Eager maintenance of a k-NN or within-range query on a live MOD.

    Construct with one of :meth:`knn` or :meth:`within`.  The session
    holds a one-tenant engine pool
    (:class:`~repro.server.group.EngineGroup`, ``spec=``): the pool —
    not the engine — subscribes to the database and sweeps each update
    as it arrives (Theorem 5's per-update maintenance over the curves
    under the host's bar: most updates touch one record and no engine),
    and the session exposes the *current* answer at all times.  The
    pool has no heal, so an engine fault propagates out of the update
    or probe that hit it; a
    :class:`~repro.resilience.supervisor.SupervisedQuerySession` is
    this session with one.  Call :meth:`close` to detach and obtain the
    accumulated snapshot answer.
    """

    def __init__(
        self,
        db: MovingObjectDatabase,
        spec: QuerySpec,
        until: float = math.inf,
        start: Optional[float] = None,
        observe=None,
        cache=None,
    ) -> None:
        from repro.server.group import EngineGroup  # imports this module

        if cache is not None:
            cache.bind(db)
        self._db = db
        self._cache = cache
        self._closed = False
        lo = db.last_update_time if start is None else start
        self._spec = spec.over(lo, until)
        self._group = EngineGroup(
            0,
            db,
            spec.gdistance,
            spec.constants,
            as_instrumentation(observe),
            None if cache is None else cache.curves,
            spec=self._spec,
        )
        db.subscribe(self._group.apply)

    # -- constructors -----------------------------------------------------
    @classmethod
    def knn(
        cls,
        db: MovingObjectDatabase,
        query: QueryLike,
        k: int = 1,
        until: float = math.inf,
        start: Optional[float] = None,
        observe=None,
        cache=None,
    ) -> "ContinuousQuerySession":
        """A continuous k-NN session starting now (or at ``start``).

        ``start`` only bounds the answer: the pool is born at the
        database's ``tau`` (DESIGN decision 31), and :meth:`close`
        answers a ``start`` before it as a past query up to ``tau``.
        ``observe`` optionally wires telemetry into every engine the
        session builds; several sessions may share one registry, in
        which case their counters aggregate.  ``cache`` (a
        :class:`~repro.cache.QueryCache`) builds the engine over shared
        memoized curves — a rebuild re-hits the curves of untouched
        objects — and deposits the session's final answer at
        :meth:`close` for later reuse.
        """
        return cls(db, QuerySpec.knn(query, k), until, start, observe, cache)

    @classmethod
    def within(
        cls,
        db: MovingObjectDatabase,
        query: QueryLike,
        distance: float,
        until: float = math.inf,
        start: Optional[float] = None,
        observe=None,
        cache=None,
    ) -> "ContinuousQuerySession":
        """A continuous within-range session starting now (or at
        ``start``).  ``start``, ``observe`` and ``cache`` as in
        :meth:`knn`."""
        return cls(
            db, QuerySpec.within(query, distance), until, start, observe, cache
        )

    # -- live inspection ------------------------------------------------------
    @property
    def engine(self) -> LiveSweep:
        """The live sweep in force: the bar host (stats, op counts,
        re-bars; ``.engine`` is the engine over its members) or a range
        reading's :class:`~repro.sweep.within.RangeSweep`.  A rebuild
        replaces it."""
        return self._group.engine

    # The engine and view in force live in the pool; the fault-injection
    # tests reach them (and swap the view) under these names.
    _engine = engine

    @property
    def _view(self):
        return self._group._views[self._spec.view_key]

    @_view.setter
    def _view(self, view) -> None:
        self._group._views[self._spec.view_key] = view

    @property
    def observe(self):
        """The engine's :class:`~repro.obs.instrument.Instrumentation`
        (None when telemetry is disabled)."""
        return self._group.engine.observe

    @property
    def metrics(self):
        """The session's metrics registry, or None when telemetry is
        disabled."""
        observe = self.observe
        return None if observe is None else observe.metrics

    @property
    def current_time(self) -> float:
        """The sweep's current position on the time line."""
        return self._group.current_time

    @property
    def members(self) -> Set[ObjectId]:
        """The current answer set."""
        return self._group.members(self._spec)

    def advance_to(self, t: float) -> Set[ObjectId]:
        """Move the clock forward without an update (a MOD clock tick,
        the paper's cost-spreading device; never backwards) and return
        the answer at ``t``."""
        self._group.advance_to(t)
        return self.members

    def close(self, at: Optional[float] = None) -> SnapshotAnswer:
        """Detach from the database and return the snapshot answer over
        exactly ``[session start, at]`` (default: the current sweep
        time).

        ``at`` behind the sweep clips the answer to it — never silently
        widened — and ``at`` before the session's start raises
        :class:`ValueError`.  The span before the pool's birth (at open
        or at a rebuild) is a past query over the database (Theorem 4).
        The session is guaranteed to be detached from the database when
        this returns or raises — even when advancing the sweep or
        finalizing the engine fails — so a broken engine can never keep
        receiving (and re-raising on) future updates.
        """
        if self._closed:
            raise RuntimeError("session already closed")
        self._closed = True
        group = self._group
        try:
            if at is not None:
                group.advance_to(at)
            end = group.current_time if at is None else at
            if end < self._spec.lo:
                raise ValueError(
                    f"close(at={end}) precedes the session's start "
                    f"({self._spec.lo})"
                )
            group.finalize()
            answer = group.partial(self._spec, self._spec.lo, end)
        finally:
            self._db.unsubscribe(group.apply)
        if self._cache is not None:
            self._cache.deposit(self._spec, answer.interval, answer)
        return answer

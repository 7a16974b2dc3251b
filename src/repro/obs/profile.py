"""Per-query profiling: trace contexts, stage attribution, slow-query
log, and workload accounting.

The paper's contributions are cost claims — Theorem 4's
``O((m+N) log N)`` sweep, Theorem 5's ``O(N log N)`` init /
``O(m log N)`` maintenance, Corollary 6's amortized updates — and a
production engine has to show *where* those costs land per query, not
just in global counters.  This module supplies the machinery:

- :class:`TraceContext` — the correlation token: a ``query_id`` plus
  the parent span id.  It is a plain serializable dict underneath, so
  it can cross a pickle or wire boundary and the spans recorded on the
  other side still stamp the owning query.
- :class:`ContextTracer` — wraps any tracer and stamps the context's
  ``query_id`` into every span and event it produces.  Layers that
  already accept ``observe=`` need no changes to correlate.
- :class:`QueryProfile` — one query's profile: a context manager that
  owns a fresh registry + ring-buffered context tracer (exposed as
  ``.observe``, an :class:`~repro.obs.instrument.Instrumentation`) and
  an aggregated **stage tree** built by :meth:`QueryProfile.stage`.
  Stages merge by name: wall time sums, counts increment,
  numeric annotations add up — so N calls to ``stage("curves")`` from
  the sweep's inner loop collapse to one line in the report.
- :class:`QueryProfiler` — the session-level factory: assigns query
  ids, keeps global counters, and feeds finished profiles to the
  :class:`SlowQueryLog` and :class:`WorkloadAttribution`.
- :class:`SlowQueryLog` — threshold-triggered JSONL emission plus an
  algorithm-R reservoir over *all* finished queries, so the tail and a
  uniform sample are both available after a long run.
- :class:`WorkloadAttribution` — top-K hot answer oids and cache-churn
  gauges.

Disabled profiling costs nothing: code paths resolve their stage hook
to :data:`NULL_STAGE` when the instrumentation bundle carries no
profile, the same trick the metrics layer plays with
:data:`~repro.obs.metrics.NULL_COUNTER`.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.instrument import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, RingBufferSink, Tracer

__all__ = [
    "ContextTracer",
    "NULL_STAGE",
    "QueryProfile",
    "QueryProfiler",
    "SlowQueryLog",
    "Stage",
    "TraceContext",
    "WorkloadAttribution",
]


class TraceContext:
    """The correlation token carried through every layer of one query.

    ``query_id`` names the query; ``parent_span_id`` (optional) is the
    span under which remote work should nest when it is re-absorbed.
    Serializes to a plain dict so it survives a pickle or wire
    boundary.
    """

    __slots__ = ("query_id", "parent_span_id")

    def __init__(
        self, query_id: str, parent_span_id: Optional[int] = None
    ) -> None:
        self.query_id = query_id
        self.parent_span_id = parent_span_id

    def to_dict(self) -> dict:
        """A pickle/JSON-safe representation."""
        return {
            "query_id": self.query_id,
            "parent_span_id": self.parent_span_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceContext":
        """Rebuild a context from :meth:`to_dict` output."""
        return cls(data["query_id"], data.get("parent_span_id"))

    def __repr__(self) -> str:
        return f"TraceContext({self.query_id!r})"


class ContextTracer:
    """A tracer wrapper that stamps ``query_id`` into every record.

    Delegates everything else to the wrapped tracer, so it drops into
    any ``observe=`` slot that expects a tracer.
    """

    __slots__ = ("_inner", "_context")

    def __init__(self, inner, context: TraceContext) -> None:
        self._inner = inner
        self._context = context

    @property
    def enabled(self) -> bool:
        return getattr(self._inner, "enabled", False)

    @property
    def context(self) -> TraceContext:
        """The stamped context."""
        return self._context

    @property
    def sink(self):
        return getattr(self._inner, "sink", None)

    def span(self, name: str, **attrs: object):
        attrs.setdefault("query_id", self._context.query_id)
        return self._inner.span(name, **attrs)

    def event(self, name: str, **attrs: object) -> None:
        attrs.setdefault("query_id", self._context.query_id)
        self._inner.event(name, **attrs)

    def flush(self) -> None:
        flush = getattr(self._inner, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


class Stage:
    """One aggregated node of the stage tree.

    A stage re-entered with the same name under the same parent merges: wall time sums, ``count`` increments, numeric
    annotations add, non-numeric annotations last-write-wins.  Use as a
    context manager via :meth:`QueryProfile.stage`.
    """

    __slots__ = (
        "name",
        "wall_seconds",
        "count",
        "attrs",
        "children",
        "_profile",
        "_start",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.wall_seconds = 0.0
        self.count = 0
        self.attrs: Dict[str, object] = {}
        self.children: Dict[str, "Stage"] = {}
        self._profile: Optional["QueryProfile"] = None
        self._start = 0.0

    def annotate(self, **attrs: object) -> None:
        """Attach measurements; numeric values accumulate across
        re-entries of the same stage."""
        for key, value in attrs.items():
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                self.attrs[key] = self.attrs.get(key, 0) + value
            else:
                self.attrs[key] = value

    def add_time(self, seconds: float) -> None:
        """Fold an *externally measured* wall-time span into this stage.

        Some costs are paid before the profile exists — the networked
        frontend decodes a request frame before it can know the request
        asks for an EXPLAIN — so the measurement is taken eagerly and
        attributed here after the fact.  Counts as one (re-)entry.
        """
        self.wall_seconds += float(seconds)
        self.count += 1

    def child(self, name: str) -> "Stage":
        """The (possibly pre-existing) child stage of this name."""
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Stage(name)
        return node

    def __enter__(self) -> "Stage":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_seconds += time.perf_counter() - self._start
        self.count += 1
        if self._profile is not None:
            self._profile._pop(self)
        return False

    def to_dict(self) -> dict:
        """JSON-ready subtree, children sorted by name."""
        out: dict = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "count": self.count,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [
                self.children[name].to_dict() for name in sorted(self.children)
            ]
        return out


class _NullStage:
    """The free disabled-path stage: no timing, no allocation."""

    __slots__ = ()

    def annotate(self, **attrs: object) -> None:
        """Discard the annotations."""

    def __enter__(self) -> "_NullStage":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_STAGE = _NullStage()


def _stage(profile, name: str):
    """Stage ``name`` of ``profile`` (a :class:`QueryProfile`), or the
    free null stage when the query is unprofiled."""
    if profile is None:
        return NULL_STAGE
    return profile.stage(name)


class QueryProfile:
    """The profile of one query evaluation.

    Use as a context manager around the evaluation; pass ``.observe``
    (or the profile itself — :func:`~repro.obs.instrument.as_instrumentation`
    unwraps it) as the ``observe=`` argument so every layer's spans,
    counters, and stages land here, stamped with this query's id.
    """

    def __init__(
        self,
        query_id: str,
        kind: str,
        meta: Optional[dict] = None,
        span_capacity: int = 4096,
    ) -> None:
        self.query_id = query_id
        self.kind = kind
        self.meta = dict(meta or {})
        self.context = TraceContext(query_id)
        self.sink = RingBufferSink(capacity=span_capacity)
        self.metrics = MetricsRegistry()
        self.tracer = ContextTracer(Tracer(self.sink), self.context)
        self.observe = Instrumentation(
            metrics=self.metrics,
            tracer=self.tracer,
            profile=self,
            context=self.context,
        )
        self.root = Stage("query")
        self.answer = None
        self.total_seconds = 0.0
        self._stack: List[Stage] = [self.root]
        self._answer_oids: List[object] = []
        self._start = 0.0
        self._finished = False

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "QueryProfile":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish()
        return False

    def finish(self) -> None:
        """Stop the clock (idempotent; called by ``__exit__``)."""
        if not self._finished:
            self._finished = True
            self.total_seconds = time.perf_counter() - self._start
            self.root.wall_seconds = self.total_seconds
            self.root.count = 1

    # -- stage attribution --------------------------------------------------
    def stage(self, name: str, **attrs: object) -> Stage:
        """Open (or re-enter) the stage ``name`` under the innermost
        open stage.  Use as a context manager."""
        node = self._stack[-1].child(name)
        if attrs:
            node.annotate(**attrs)
        node._profile = self
        self._stack.append(node)
        return node

    def _pop(self, node: Stage) -> None:
        # Same crash-tolerant discipline as the tracer's span stack.
        while len(self._stack) > 1:
            top = self._stack.pop()
            if top is node:
                break

    def record_answer(self, answer) -> None:
        """Note the final answer, harvesting member oids for workload
        attribution (best-effort across answer shapes)."""
        self.answer = answer
        self._answer_oids = _answer_oids(answer)

    # -- report -------------------------------------------------------------
    @property
    def spans(self) -> List[dict]:
        """All local span/event records captured for this query."""
        return self.sink.records

    @property
    def coverage(self) -> float:
        """Fraction of total wall time attributed to top-level stages
        (1.0 means the stage tree accounts for everything)."""
        if self.total_seconds <= 0.0:
            return 1.0
        attributed = sum(
            s.wall_seconds for s in self.root.children.values()
        )
        return attributed / self.total_seconds

    def report(self) -> dict:
        """The full JSON-ready profile."""
        self.finish()
        out = {
            "query_id": self.query_id,
            "kind": self.kind,
            "meta": dict(self.meta),
            "total_seconds": self.total_seconds,
            "coverage": self.coverage,
            "stages": [
                self.root.children[name].to_dict()
                for name in sorted(self.root.children)
            ],
            "metrics": {
                "query_id": self.query_id,
                "samples": self.metrics.snapshot(),
            },
            "spans": self.spans,
        }
        return out

    def summary(self) -> dict:
        """The slim record the slow-query log stores: identity, cost,
        and the top-level stage breakdown only."""
        self.finish()
        return {
            "query_id": self.query_id,
            "kind": self.kind,
            "meta": dict(self.meta),
            "total_seconds": self.total_seconds,
            "stages": {
                name: round(stage.wall_seconds, 9)
                for name, stage in sorted(self.root.children.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"QueryProfile({self.query_id!r}, kind={self.kind!r}, "
            f"{self.total_seconds * 1e3:.3f} ms)"
        )


def _answer_oids(answer) -> List[object]:
    """Best-effort oid harvest across the engine's answer shapes."""
    oids: List[object] = []
    seen = set()

    def note(oid) -> None:
        if oid not in seen:
            seen.add(oid)
            oids.append(oid)

    objects = getattr(answer, "objects", None)
    if objects is not None:
        for oid in sorted(objects, key=str):
            note(oid)
        return oids
    if isinstance(answer, dict):  # multiknn: {k: answer}
        for sub in answer.values():
            for oid in _answer_oids(sub):
                note(oid)
    return oids


class SlowQueryLog:
    """Threshold-triggered slow-query capture with a uniform reservoir.

    Every finished query is :meth:`offer`-ed a summary.  Summaries at
    or above ``threshold_seconds`` are kept in :attr:`slow` (and
    emitted to the JSONL ``sink``, if any); independently, *all*
    summaries feed an algorithm-R reservoir of ``reservoir`` entries,
    so a uniform sample of the workload survives arbitrarily long runs.
    """

    def __init__(
        self,
        threshold_seconds: float,
        sink=None,
        reservoir: int = 128,
        seed: int = 0,
        max_slow: int = 1024,
    ) -> None:
        if threshold_seconds < 0:
            raise ValueError("threshold must be nonnegative")
        if reservoir < 1:
            raise ValueError("reservoir must hold at least one entry")
        self.threshold_seconds = threshold_seconds
        self._sink = sink
        self._reservoir_size = reservoir
        self._rng = random.Random(seed)
        self._max_slow = max_slow
        self.offered = 0
        self.slow: List[dict] = []
        self.sample: List[dict] = []

    def offer(self, summary: dict) -> bool:
        """Consider one finished query; returns whether it was slow."""
        self.offered += 1
        # Algorithm R: the first `reservoir` entries fill the sample,
        # the i-th thereafter replaces a random slot with prob k/i.
        if len(self.sample) < self._reservoir_size:
            self.sample.append(summary)
        else:
            slot = self._rng.randrange(self.offered)
            if slot < self._reservoir_size:
                self.sample[slot] = summary
        is_slow = summary.get("total_seconds", 0.0) >= self.threshold_seconds
        if is_slow:
            if len(self.slow) < self._max_slow:
                self.slow.append(summary)
            if self._sink is not None:
                self._sink.emit({"type": "slow_query", **summary})
        return is_slow

    def flush(self) -> None:
        flush = getattr(self._sink, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        close = getattr(self._sink, "close", None)
        if close is not None:
            close()

    def to_dict(self) -> dict:
        """Counts, slow entries, and the current reservoir."""
        return {
            "threshold_seconds": self.threshold_seconds,
            "offered": self.offered,
            "slow_count": len(self.slow),
            "slow": list(self.slow),
            "sample": list(self.sample),
        }


class WorkloadAttribution:
    """Workload-level accounting: hot objects, cache churn.

    ``note_query`` absorbs a finished :class:`QueryProfile`;
    ``watch_cache`` binds churn gauges to a
    :class:`~repro.cache.QueryCache` so its stats export alongside.
    """

    def __init__(self) -> None:
        self._oid_hits: Dict[object, int] = {}
        self._kind_counts: Dict[str, int] = {}
        self._cache = None
        self.queries = 0

    def note_query(self, profile: QueryProfile) -> None:
        """Fold one finished profile into the workload totals."""
        self.queries += 1
        self._kind_counts[profile.kind] = (
            self._kind_counts.get(profile.kind, 0) + 1
        )
        for oid in profile._answer_oids:
            key = str(oid)
            self._oid_hits[key] = self._oid_hits.get(key, 0) + 1

    def watch_cache(self, cache) -> None:
        """Attach a query cache whose stats feed :meth:`to_dict`."""
        self._cache = cache

    def hot_oids(self, top_k: int = 10) -> List[Tuple[str, int]]:
        """The ``top_k`` most-answered object ids."""
        return sorted(
            self._oid_hits.items(), key=lambda kv: (-kv[1], kv[0])
        )[:top_k]

    def cache_churn(self) -> Optional[dict]:
        """The watched cache's current stats (``None`` if unwatched)."""
        if self._cache is None:
            return None
        stats = self._cache.stats()
        stats["hit_rate"] = self._cache.hit_rate
        return stats

    def to_dict(self) -> dict:
        out = {
            "queries": self.queries,
            "by_kind": dict(sorted(self._kind_counts.items())),
            "hot_oids": [
                {"oid": oid, "queries": n} for oid, n in self.hot_oids()
            ],
        }
        churn = self.cache_churn()
        if churn is not None:
            out["cache"] = churn
        return out


class QueryProfiler:
    """The session-level profiler: id assignment, aggregation, and the
    slow-query/attribution feeds.

    >>> profiler = QueryProfiler(slow_log=SlowQueryLog(0.5))
    >>> with profiler.profile("knn", k=2) as prof:
    ...     answer = evaluate_knn(db, q, window, k=2, observe=prof)
    ...     prof.record_answer(answer)
    >>> prof.report()["query_id"]
    'q-000001'
    """

    def __init__(
        self,
        slow_log: Optional[SlowQueryLog] = None,
        attribution: Optional[WorkloadAttribution] = None,
        observe=None,
    ) -> None:
        from repro.obs.instrument import as_instrumentation

        self.slow_log = slow_log
        self.attribution = (
            attribution if attribution is not None else WorkloadAttribution()
        )
        self._ids = itertools.count(1)
        self._instr = as_instrumentation(observe)
        self.profiles: List[QueryProfile] = []
        metrics = (
            self._instr.metrics if self._instr is not None else None
        )
        if metrics is not None:
            self._g_queries = metrics.counter(
                "profiler_queries_total",
                "Queries profiled.",
                labels=("kind",),
            )
            self._h_latency = metrics.histogram(
                "profiler_query_seconds",
                "Per-query wall time.",
                labels=("kind",),
            )
        else:
            self._g_queries = None
            self._h_latency = None

    def profile(
        self, kind: str, query_id: Optional[str] = None, **meta: object
    ) -> "_ProfileScope":
        """A context manager yielding a fresh :class:`QueryProfile`."""
        if query_id is None:
            query_id = f"q-{next(self._ids):06d}"
        return _ProfileScope(self, QueryProfile(query_id, kind, meta))

    def _finished(self, profile: QueryProfile) -> None:
        self.profiles.append(profile)
        if self._g_queries is not None:
            self._g_queries.labels(kind=profile.kind).inc()
            self._h_latency.labels(kind=profile.kind).observe(
                profile.total_seconds
            )
        if self.slow_log is not None:
            self.slow_log.offer(profile.summary())
        self.attribution.note_query(profile)

    def to_dict(self) -> dict:
        """Workload attribution plus the slow-query log state."""
        out = {"attribution": self.attribution.to_dict()}
        if self.slow_log is not None:
            out["slow_log"] = self.slow_log.to_dict()
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class _ProfileScope:
    """Context manager binding a profile's lifecycle to its profiler."""

    __slots__ = ("_profiler", "_profile")

    def __init__(self, profiler: QueryProfiler, profile: QueryProfile):
        self._profiler = profiler
        self._profile = profile

    def __enter__(self) -> QueryProfile:
        self._profile.__enter__()
        return self._profile

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._profile.__exit__(exc_type, exc, tb)
        self._profiler._finished(self._profile)
        return False

"""Zero-dependency telemetry: metrics, tracing, complexity auditing.

The paper's headline results are *complexity* claims — Theorem 4's
``O((m+N) log N)`` sweep, Theorem 5's ``O(N log N)`` initialization and
``O(m log N)`` maintenance, Corollary 6's ``O(log N)`` amortized
updates.  Wall-clock benchmarks can only gesture at those bounds; this
package makes them *observable*:

- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and log-bucketed histograms with labeled children,
  snapshot/diff/reset, and Prometheus-text / JSON export;
- :mod:`repro.obs.tracing` — a :class:`Tracer` producing structured
  span/event records into JSONL or ring-buffer sinks, with a no-op
  :data:`NULL_TRACER` so the disabled path costs nothing;
- :mod:`repro.obs.audit` — :class:`ComplexityAudit`, which fits
  recorded operation counts against ``log N`` / ``N log N`` /
  ``m log N`` envelopes and reports the constant factor and
  goodness-of-fit, turning the theorems into executable assertions;
- :mod:`repro.obs.instrument` — the :class:`Instrumentation` bundle
  (registry + tracer) accepted by every ``observe=`` hook in the
  engine, resilience, and workload layers;
- :mod:`repro.obs.profile` — :class:`QueryProfiler` /
  :class:`QueryProfile`, which assign every evaluation a ``query_id``,
  propagate a :class:`TraceContext` across engines, caches, and the
  WAL, attribute wall time and primitive ops to a per-stage tree, and
  feed a :class:`SlowQueryLog` and :class:`WorkloadAttribution`;
- :mod:`repro.obs.explain` — :func:`explain`, the EXPLAIN-style entry
  point returning an :class:`ExplainReport` (text or JSON).

Everything is pure-Python stdlib; enabling metrics on the sweep hot
path costs a bound-counter increment per event, and passing
``observe=None`` (the default) binds no-op instruments: a component
keeps ``.observe`` at ``None`` and runs its one binder against
:data:`NULL_INSTRUMENTATION` — :data:`NULL_REGISTRY` (every declaration
returns a shared no-op singleton, each its own ``.labels(...)`` child)
plus :data:`NULL_TRACER` — so "telemetry off" is one null object, not a
second arm in every binder.
"""

from repro.obs.audit import AuditResult, ComplexityAudit, fit_envelope
from repro.obs.explain import ExplainReport, explain, render_report
from repro.obs.instrument import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    as_instrumentation,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
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
from repro.obs.tracing import (
    NULL_TRACER,
    JsonlSink,
    NullTracer,
    RingBufferSink,
    Tracer,
)

__all__ = [
    "AuditResult",
    "ComplexityAudit",
    "ContextTracer",
    "Counter",
    "ExplainReport",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "JsonlSink",
    "MetricError",
    "MetricsRegistry",
    "NULL_INSTRUMENTATION",
    "NULL_REGISTRY",
    "NULL_STAGE",
    "NULL_TRACER",
    "NullTracer",
    "QueryProfile",
    "QueryProfiler",
    "RingBufferSink",
    "SlowQueryLog",
    "Stage",
    "TraceContext",
    "Tracer",
    "WorkloadAttribution",
    "as_instrumentation",
    "explain",
    "fit_envelope",
    "render_report",
]

"""The ``observe=`` bundle accepted across the engine and resilience
layers.

Every instrumentable component — :class:`~repro.sweep.engine.SweepEngine`,
:class:`~repro.core.api.ContinuousQuerySession` (and its subclass
:class:`~repro.resilience.supervisor.SupervisedQuerySession`),
:class:`~repro.resilience.ingest.IngestPipeline`,
:class:`~repro.resilience.wal.WriteAheadLog`,
:class:`~repro.workloads.faults.FaultInjector`,
:class:`~repro.mod.database.MovingObjectDatabase` — takes an optional
``observe=`` argument.  ``None`` (the default) disables telemetry
entirely: the component's public ``.observe`` stays ``None`` and its
one binder runs against :data:`NULL_INSTRUMENTATION` — the null
bundle, whose registry hands out the shared no-op instruments and
whose tracer is :data:`~repro.obs.tracing.NULL_TRACER` — so hot paths
pay one cheap call per event and no binder carries a second "off" arm
(``obs = self.observe or NULL_INSTRUMENTATION``).  Otherwise the
argument is coerced by :func:`as_instrumentation`:

- an :class:`Instrumentation` is used as-is;
- a bare :class:`~repro.obs.metrics.MetricsRegistry` enables metrics
  with tracing off;
- a bare :class:`~repro.obs.tracing.Tracer` enables tracing with a
  private registry;
- any object exposing an :class:`Instrumentation` as its ``.observe``
  attribute (a :class:`~repro.obs.profile.QueryProfile`, say) is
  unwrapped — so ``evaluate_knn(..., observe=profile)`` reads
  naturally.

Sharing one :class:`Instrumentation` (or one registry) across several
components aggregates their counters into one namespace — by design:
a fault injector, an ingest pipeline, and a supervised session wired to
the same registry produce a single coherent metrics snapshot.

Profiling rides the same bundle: when a
:class:`~repro.obs.profile.QueryProfile` builds its instrumentation it
sets the optional :attr:`Instrumentation.profile` (stage attribution)
and :attr:`Instrumentation.context` (the query's
:class:`~repro.obs.profile.TraceContext`) slots, and every layer that
receives the bundle can attribute its work to the owning query without
new plumbing.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, NullTracer, Tracer

__all__ = ["Instrumentation", "NULL_INSTRUMENTATION", "as_instrumentation"]


class Instrumentation:
    """A metrics registry and a tracer, bundled for ``observe=`` hooks.

    The optional ``profile`` / ``context`` slots are populated when the
    bundle belongs to one profiled query (see
    :mod:`repro.obs.profile`); they are ``None`` on plain telemetry
    bundles and every consumer must treat them as optional.
    """

    __slots__ = ("metrics", "tracer", "profile", "context")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Union[Tracer, NullTracer]] = None,
        profile=None,
        context=None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profile = profile
        self.context = context

    def snapshot(self):
        """Convenience: the registry's flat snapshot."""
        return self.metrics.snapshot()

    def __repr__(self) -> str:
        tracing = "on" if getattr(self.tracer, "enabled", False) else "off"
        profiled = "" if self.profile is None else ", profiled"
        return (
            f"Instrumentation(metrics={len(self.metrics.families())} "
            f"families, tracing {tracing}{profiled})"
        )


# Telemetry off, as a bundle: what every binder binds against when its
# component's ``.observe`` is ``None``.
NULL_INSTRUMENTATION = Instrumentation(metrics=NULL_REGISTRY)


def as_instrumentation(observe) -> Optional[Instrumentation]:
    """Coerce an ``observe=`` argument; ``None`` stays ``None``
    (telemetry disabled)."""
    if observe is None or isinstance(observe, Instrumentation):
        return observe
    if isinstance(observe, MetricsRegistry):
        return Instrumentation(metrics=observe)
    if isinstance(observe, (Tracer, NullTracer)):
        return Instrumentation(tracer=observe)
    inner = getattr(observe, "observe", None)
    if isinstance(inner, Instrumentation):
        return inner
    raise TypeError(
        "observe= expects an Instrumentation, MetricsRegistry, Tracer, "
        "an object with an Instrumentation `.observe` attribute, or "
        f"None; got {type(observe).__name__}"
    )

"""A zero-dependency metrics registry: counters, gauges, histograms.

Modeled on the Prometheus client data model, trimmed to what the sweep
engine and resilience layer need and kept allocation-light so hot paths
can afford it:

- **Counters** are monotone; the hot-path operation is one bound-method
  call plus an integer add.
- **Gauges** hold a value, or compute one on demand via
  :meth:`Gauge.set_function` — collection-time cost only, which is how
  the engine exports queue depth and order size without touching the
  event loop.
- **Histograms** are log-bucketed (geometric bucket bounds), so one
  histogram spans nanoseconds to hours / single ops to billions with a
  few dozen buckets; ``observe`` is a bisect plus two adds.

Instruments are created through a :class:`MetricsRegistry` and may
carry labels: ``registry.counter("sweep_events_total", labels=("kind",))``
returns a family whose :meth:`MetricFamily.labels` children are created
on first use and cached.  Re-registering the same name with the same
type and labels returns the *same* family, so any number of engines or
sessions can share one registry and their counts aggregate.

A registry can :meth:`~MetricsRegistry.snapshot` itself into a flat
``{series_name: number}`` dict, :meth:`~MetricsRegistry.diff` two
snapshots, :meth:`~MetricsRegistry.reset` everything, and export as
Prometheus text (:meth:`~MetricsRegistry.to_prometheus`) or JSON
(:meth:`~MetricsRegistry.to_json`).

The module also defines no-op instrument singletons
(:data:`NULL_COUNTER`, :data:`NULL_GAUGE`, :data:`NULL_HISTOGRAM`) and
the :data:`NULL_REGISTRY` that hands them out: instrumented code runs
its one binder against it when observability is disabled, so the hot
path stays one cheap no-op call, with no conditionals — and no second
"telemetry off" arm in any binder.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Invalid metric declaration or use (name clash, bad labels...)."""


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise MetricError(f"counters only go up, got {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        """The current count."""
        return self._value

    # -- registry plumbing -------------------------------------------------
    def _reset(self) -> None:
        self._value = 0

    def _samples(self) -> Iterable[Tuple[str, float]]:
        yield "", self._value


class Gauge:
    """A value that can go up and down, or be computed at collect time."""

    kind = "gauge"
    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` to the gauge."""
        self._value += amount

    def dec(self, amount: float = 1) -> None:
        """Subtract ``amount`` from the gauge."""
        self._value -= amount

    def set_function(self, fn: Optional[Callable[[], float]]) -> None:
        """Compute the gauge through ``fn`` at collection time.

        The function is called on :attr:`value` access / snapshot /
        export, never on a hot path.  When several components bind a
        function to the same series the last binding wins.
        """
        self._fn = fn

    @property
    def value(self) -> float:
        """The current value (calls the bound function, if any)."""
        return float(self._fn()) if self._fn is not None else self._value

    # -- registry plumbing -------------------------------------------------
    def _reset(self) -> None:
        self._value = 0.0

    def _samples(self) -> Iterable[Tuple[str, float]]:
        yield "", self.value


class Histogram:
    """A log-bucketed histogram of non-negative observations.

    Bucket upper bounds are ``base ** e`` for ``e`` in
    ``[min_exp, max_exp]`` plus ``+inf``; with the defaults (base 2,
    exponents -20..30) one histogram covers ~1e-6 through ~1e9, which
    spans both sub-millisecond fsync timings and per-sweep operation
    counts.  Also tracks count, sum, min, and max exactly.

    Empty-histogram semantics: with no observations there is no
    meaningful statistic, so :attr:`mean`, :meth:`quantile`,
    :attr:`min`, and :attr:`max` all return ``NaN`` — never the
    internal ``±inf`` seeds.  Exports (snapshot / Prometheus / JSON)
    stay finite: they carry only ``_count``/``_sum``/buckets.
    """

    kind = "histogram"
    __slots__ = ("_bounds", "_counts", "count", "sum", "_min", "_max")

    def __init__(
        self, base: float = 2.0, min_exp: int = -20, max_exp: int = 30
    ) -> None:
        if base <= 1.0:
            raise MetricError("histogram base must be > 1")
        if max_exp < min_exp:
            raise MetricError("max_exp must be >= min_exp")
        self._bounds: List[float] = [
            base ** e for e in range(min_exp, max_exp + 1)
        ]
        self._counts: List[int] = [0] * (len(self._bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._counts[bisect_left(self._bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def min(self) -> float:
        """Smallest observation (``NaN`` when empty)."""
        return self._min if self.count else float("nan")

    @property
    def max(self) -> float:
        """Largest observation (``NaN`` when empty)."""
        return self._max if self.count else float("nan")

    @property
    def mean(self) -> float:
        """Mean of all observations (``NaN`` when empty)."""
        return self.sum / self.count if self.count else float("nan")

    def buckets(self) -> List[Tuple[float, int]]:
        """Non-empty ``(upper_bound, cumulative_count)`` pairs."""
        out: List[Tuple[float, int]] = []
        cumulative = 0
        bounds = self._bounds + [float("inf")]
        for bound, n in zip(bounds, self._counts):
            cumulative += n
            if n:
                out.append((bound, cumulative))
        return out

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile from the bucket bounds.

        Returns the upper bound of the bucket containing the quantile —
        an overestimate by at most one bucket width (a factor of
        ``base``).  ``NaN`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return float("nan")
        target = q * self.count
        cumulative = 0
        bounds = self._bounds + [float("inf")]
        for bound, n in zip(bounds, self._counts):
            cumulative += n
            if cumulative >= target and n:
                return min(bound, self.max)
        return self.max

    # -- registry plumbing -------------------------------------------------
    def _reset(self) -> None:
        self._counts = [0] * len(self._counts)
        self.count = 0
        self.sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def _samples(self) -> Iterable[Tuple[str, float]]:
        yield "_count", float(self.count)
        yield "_sum", self.sum


class _NullInstrument:
    """What every no-op instrument shares: it is its own labeled child."""

    __slots__ = ()

    def labels(self, **labels: object):
        """A null family's every child is the family itself."""
        return self


class _NullCounter(_NullInstrument):
    """No-op counter bound when observability is disabled."""

    kind = "counter"
    __slots__ = ()
    value = 0

    def inc(self, amount: float = 1) -> None:
        """Discard the increment."""


class _NullGauge(_NullInstrument):
    """No-op gauge bound when observability is disabled."""

    kind = "gauge"
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        """Discard the value."""

    def inc(self, amount: float = 1) -> None:
        """Discard the increment."""

    def dec(self, amount: float = 1) -> None:
        """Discard the decrement."""

    def set_function(self, fn) -> None:
        """Discard the function."""


class _NullHistogram(_NullInstrument):
    """No-op histogram bound when observability is disabled."""

    kind = "histogram"
    __slots__ = ()
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        """Discard the observation."""


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class _NullRegistry:
    """The registry of a component whose telemetry is off.

    Declaring an instrument returns the matching no-op singleton
    whatever the name, help or labels, so a binder written once against
    a :class:`MetricsRegistry` is also the "off" binder; nothing is
    recorded and :meth:`snapshot` is always empty.
    """

    __slots__ = ()

    def counter(self, name: str, help: str = "", labels=()):
        return NULL_COUNTER

    def gauge(self, name: str, help: str = "", labels=()):
        return NULL_GAUGE

    def histogram(self, name: str, help: str = "", labels=(), **buckets):
        return NULL_HISTOGRAM

    def families(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {}


NULL_REGISTRY = _NullRegistry()


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double quote, and line feed."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _series_name(name: str, suffix: str, key: Tuple[str, ...], label_names: Tuple[str, ...]) -> str:
    if not label_names:
        return name + suffix
    inner = ",".join(
        f'{ln}="{_escape_label_value(lv)}"'
        for ln, lv in zip(label_names, key)
    )
    return f"{name}{suffix}{{{inner}}}"


class MetricFamily:
    """One named metric with zero or more labeled children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Tuple[str, ...],
        factory: Callable[[], object],
        max_series: int,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._factory = factory
        self._max_series = max_series
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labels: object):
        """The child instrument for one label-value combination.

        Children are created on first use and cached, so binding the
        same labels twice (or from two different sessions) returns the
        same counter and the counts aggregate.  Exceeding the
        registry's per-family series budget raises :class:`MetricError`
        — runaway label cardinality is a bug, not a workload.
        """
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise MetricError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[ln]) for ln in self.label_names)
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= self._max_series:
                raise MetricError(
                    f"{self.name}: label cardinality exceeds the "
                    f"{self._max_series}-series budget (key {key!r})"
                )
            child = self._factory()
            self._children[key] = child
        return child

    def children(self) -> Dict[Tuple[str, ...], object]:
        """All live ``label-values -> instrument`` pairs."""
        return dict(self._children)

    def _reset(self) -> None:
        for child in self._children.values():
            child._reset()


class MetricsRegistry:
    """A namespace of metric families with export and diffing.

    Parameters
    ----------
    max_series_per_family:
        Cardinality budget: the maximum number of distinct label-value
        combinations one family may hold before :meth:`MetricFamily.labels`
        raises.
    """

    def __init__(self, max_series_per_family: int = 256) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._max_series = max_series_per_family

    # -- declaration --------------------------------------------------------
    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Tuple[str, ...],
        factory: Callable[[], object],
    ) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r}")
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != labels:
                raise MetricError(
                    f"{name} already registered as {existing.kind}"
                    f"{existing.label_names}, cannot re-register as "
                    f"{kind}{labels}"
                )
            return existing
        family = MetricFamily(
            name, kind, help, labels, factory, self._max_series
        )
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labels: Tuple[str, ...] = ()):
        """Declare (or fetch) a counter; returns the family when
        ``labels`` are given, else the single unlabeled child."""
        labels = tuple(labels)
        family = self._register(name, "counter", help, labels, Counter)
        return family if labels else family.labels()

    def gauge(self, name: str, help: str = "", labels: Tuple[str, ...] = ()):
        """Declare (or fetch) a gauge (family when labeled)."""
        labels = tuple(labels)
        family = self._register(name, "gauge", help, labels, Gauge)
        return family if labels else family.labels()

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Tuple[str, ...] = (),
        base: float = 2.0,
        min_exp: int = -20,
        max_exp: int = 30,
    ):
        """Declare (or fetch) a log-bucketed histogram (family when
        labeled)."""
        labels = tuple(labels)
        family = self._register(
            name,
            "histogram",
            help,
            labels,
            lambda: Histogram(base=base, min_exp=min_exp, max_exp=max_exp),
        )
        return family if labels else family.labels()

    def families(self) -> List[MetricFamily]:
        """All registered families, sorted by name."""
        return [self._families[n] for n in sorted(self._families)]

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __getitem__(self, name: str) -> MetricFamily:
        return self._families[name]

    # -- snapshots -----------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """A flat ``{series: number}`` view of every instrument.

        Counters and gauges appear under their series name; histograms
        contribute ``<name>_count``, ``<name>_sum``, and one
        ``<name>_bucket{le="..."}`` entry per non-empty bucket.
        """
        out: Dict[str, float] = {}
        for family in self.families():
            for key, child in sorted(family.children().items()):
                for suffix, value in child._samples():
                    out[
                        _series_name(family.name, suffix, key, family.label_names)
                    ] = value
                if family.kind == "histogram":
                    for bound, cumulative in child.buckets():
                        label_bits = [
                            f'{ln}="{_escape_label_value(lv)}"'
                            for ln, lv in zip(family.label_names, key)
                        ] + [f'le="{_fmt_bound(bound)}"']
                        out[
                            f"{family.name}_bucket{{{','.join(label_bits)}}}"
                        ] = float(cumulative)
        return out

    @staticmethod
    def diff(
        before: Mapping[str, float], after: Mapping[str, float]
    ) -> Dict[str, float]:
        """Per-series ``after - before`` over the union of both
        snapshots (a series absent from one side counts as 0).  The
        natural way to meter one operation: snapshot, run, snapshot,
        diff."""
        out: Dict[str, float] = {}
        for key in sorted(set(before) | set(after)):
            delta = after.get(key, 0.0) - before.get(key, 0.0)
            if delta:
                out[key] = delta
        return out

    def reset(self) -> None:
        """Zero every counter and histogram; value gauges reset to 0,
        function-backed gauges are left bound."""
        for family in self._families.values():
            family._reset()

    # -- export -------------------------------------------------------------
    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in sorted(family.children().items()):
                if family.kind == "histogram":
                    # The text format requires the +Inf bucket on every
                    # histogram (cumulative == _count), even when no
                    # observation overflowed — append it if absent.
                    buckets = child.buckets()
                    if not buckets or buckets[-1][0] != float("inf"):
                        buckets.append((float("inf"), child.count))
                    for bound, cumulative in buckets:
                        label_bits = [
                            f'{ln}="{_escape_label_value(lv)}"'
                            for ln, lv in zip(family.label_names, key)
                        ] + [f'le="{_fmt_bound(bound)}"']
                        lines.append(
                            f"{family.name}_bucket{{{','.join(label_bits)}}} "
                            f"{cumulative}"
                        )
                for suffix, value in child._samples():
                    lines.append(
                        f"{_series_name(family.name, suffix, key, family.label_names)}"
                        f" {_fmt_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> Dict[str, dict]:
        """A structured JSON-ready view: per family, its type, help,
        and every labeled series."""
        out: Dict[str, dict] = {}
        for family in self.families():
            series = []
            for key, child in sorted(family.children().items()):
                labels = dict(zip(family.label_names, key))
                if family.kind == "histogram":
                    series.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            # Keep the JSON view finite: an empty
                            # histogram's mean is NaN, which strict
                            # JSON cannot carry.
                            "mean": child.mean if child.count else 0.0,
                            "buckets": [
                                {"le": _fmt_bound(b), "count": c}
                                for b, c in child.buckets()
                            ],
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        """The :meth:`to_dict` view serialized as JSON."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _fmt_bound(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    if bound == int(bound) and abs(bound) < 1e15:
        return str(int(bound))
    return repr(bound)


def _fmt_value(value: float) -> str:
    if isinstance(value, int) or (value == int(value) and abs(value) < 1e15):
        return str(int(value))
    return repr(value)

"""EXPLAIN for moving-object queries: run, profile, and render.

:func:`explain` evaluates a query through the real
:func:`~repro.core.api.evaluate_knn` / ``evaluate_within`` /
``evaluate_multiknn`` path — same answers, same code — under a
:class:`~repro.obs.profile.QueryProfile`, and returns an
:class:`ExplainReport` pairing the answer with the per-stage cost
breakdown: wall time, primitive-op counts and cache hit/miss.  The report renders as an ``EXPLAIN``-style text tree
(:meth:`ExplainReport.text`) or as JSON (:meth:`ExplainReport.to_json`).

The stages map onto the paper's cost terms (see
``docs/paper_mapping.md``):

========================  ====================================================
stage                     paper cost term
========================  ====================================================
``cache.probe``           answer reuse: the longest cached prefix of the window
``clip``                  Section 4 finite representation: exact restriction
``cache.extend``          the gap beyond the prefix: its own one-shot stages
``prune``                 one-shot queries: bound every curve, keep candidates
``init`` / ``curves``     Theorem 5 initialization: ``O(N log N)`` (per slice)
``sweep``                 Theorem 4 event loop: ``O((m + N) log N)``
``server.live``           a session's window off its group (the span before a
                          rebuild a past query); re-bars, members
``cache.store``           deposit for later reuse
========================  ====================================================
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.geometry.intervals import Interval
from repro.obs.profile import QueryProfile, QueryProfiler

__all__ = ["ExplainReport", "explain", "render_report"]


class ExplainReport:
    """The outcome of :func:`explain`: answer + profile, renderable."""

    def __init__(self, profile: QueryProfile, answer) -> None:
        self.profile = profile
        self.answer = answer

    @property
    def query_id(self) -> str:
        """The profiled query's id."""
        return self.profile.query_id

    @property
    def total_seconds(self) -> float:
        """End-to-end wall time of the evaluation."""
        return self.profile.total_seconds

    @property
    def coverage(self) -> float:
        """Fraction of wall time the top-level stages account for."""
        return self.profile.coverage

    def to_dict(self) -> dict:
        """The full JSON-ready report."""
        return self.profile.report()

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def text(self) -> str:
        """An EXPLAIN-style indented stage tree."""
        self.profile.finish()
        return render_report(self.to_dict())

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return (
            f"ExplainReport({self.query_id!r}, "
            f"{self.total_seconds * 1e3:.3f} ms)"
        )


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def _meta_text(meta: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(meta.items()))


def _render(stage: dict, lines, depth: int) -> None:
    bits = [f"{'  ' * depth}-> {stage['name']}: {_ms(stage['wall_seconds'])}"]
    if stage.get("count", 1) > 1:
        bits.append(f"x{stage['count']}")
    attrs = stage.get("attrs", {})
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, float) and value == int(value):
            value = int(value)
        bits.append(f"{key}={value}")
    lines.append("  ".join(bits))
    for child in stage.get("children", ()):
        _render(child, lines, depth + 1)


def render_report(report: dict) -> str:
    """Render a report *dict* (:meth:`ExplainReport.to_dict` output) as
    the EXPLAIN-style text tree.

    Operating on the JSON-ready dict rather than live
    :class:`~repro.obs.profile.Stage` objects means a report that
    crossed a process or network boundary — e.g. one returned by the
    :mod:`repro.net` frontend's ``explain`` verb — renders exactly like
    a local one.
    """
    lines = [
        f"EXPLAIN {report['kind']} [{report['query_id']}]"
        + (f"  {_meta_text(report['meta'])}" if report.get("meta") else ""),
        f"total: {_ms(report['total_seconds'])}  "
        f"(stage coverage {report['coverage'] * 100.0:.1f}%)",
    ]
    for stage in report.get("stages", ()):
        _render(stage, lines, depth=1)
    return "\n".join(lines)


def explain(
    db,
    query,
    interval: Interval,
    kind: str = "knn",
    *,
    k: int = 1,
    distance: Optional[float] = None,
    ks: Optional[Sequence[int]] = None,
    cache=None,
    profiler: Optional[QueryProfiler] = None,
    query_id: Optional[str] = None,
) -> ExplainReport:
    """Evaluate one query with full per-stage cost attribution.

    ``kind`` selects the query (``"knn"``, ``"within"``, or
    ``"multiknn"``); the remaining arguments mirror the corresponding
    ``evaluate_*`` function.  Pass an existing ``profiler`` to keep its
    id sequence, slow-query log, and workload attribution across many
    explains; otherwise a throwaway profiler is used.
    """
    from repro.core.api import _evaluate
    from repro.core.spec import KNN, MULTIKNN, WITHIN, QuerySpec

    if kind == WITHIN and distance is None:
        raise ValueError("within queries need a distance")
    if kind == MULTIKNN and not ks:
        raise ValueError("multiknn queries need ks")
    if profiler is None:
        profiler = QueryProfiler()
    meta = {
        "interval": [interval.lo, interval.hi],
        "cache": cache is not None,
    }
    if kind == KNN:
        spec = QuerySpec.knn(query, k)
        meta["k"] = k
    elif kind == WITHIN:
        spec = QuerySpec.within(query, distance)
        meta["distance"] = distance
    elif kind == MULTIKNN:
        spec = QuerySpec.multiknn(query, ks)
        meta["ks"] = list(ks)
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    with profiler.profile(kind, query_id=query_id, **meta) as prof:
        answer = _evaluate(db, spec, interval, prof.observe, cache=cache)
        prof.record_answer(answer)
    return ExplainReport(prof, answer)

#!/usr/bin/env python
"""Empirical complexity audit over recorded operation counters.

Checks the paper's complexity claims against *counted primitive
operations* (treap descend/rotation/rank steps, heap sift steps, flip
computations) — never wall-clock time:

- **Theorem 5 (init)** — building the sweep structures over N objects
  performs O(N log N) primitive operations;
- **Corollary 6 (updates)** — with bounded support changes between
  updates, per-update maintenance performs O(log N) amortized
  primitive operations;
- **Cached lookups** — a warm answer cache serves an exact repeat
  with O(1) sweep work: the hit path must count *zero* new primitive
  operations regardless of N.
- **Theorem 5 on the live path** — a session's host orders only the
  curves under its bar (``repro.sweep.live``), so its per-update
  primitive operations — every bound check of every re-bar included —
  stay within O(log N) as the database grows at constant density, and
  on ``serve_crossing``'s stream over a growing ``random_linear_mod``
  (the live rank audit, k = 3, N up to 5000) its operations per
  support change of the reading stay flat in N.  Its operations per
  update do not: the space is fixed, so the reading's own support
  changes per update grow with N, and that fit is printed, not gated;
- **the live range reading** — a within session's host keeps one
  record per curve and no order (``repro.sweep.within``): an update
  touches one record, so at the same constant density its per-update
  primitive operations — every crossing taken between updates included
  — stay flat in N;
- **Theorem 4 on the one-shot path** — ``evaluate_knn`` sweeps only the
  curves its interval bounds cannot rule out (``repro.sweep.prune``),
  so its primitive operations are linear in ``(C + m_C) log C`` — ``C``
  the curve entries its slice engines initialise, ``m_C`` the order
  changes among them — and not in the inversions of the full order,
  which the table prints beside them.  (The bounds pass itself is one
  closed-form evaluation per curve, ``O(N)``, and counts no primitive
  operation.)

Also measures the overhead of the *enabled* metrics path (engine built
with ``observe=``) against the disabled path on the Theorem 5 workload;
the registry binds its gauges lazily and hot-path counters are plain
int adds, so the enabled run must stay within a few percent.

Exit status is non-zero when any audit fails (or, with ``--overhead``,
when instrumentation costs more than the budget), so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

from repro.geometry.intervals import Interval
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.obs import ComplexityAudit, MetricsRegistry
from repro.obs.audit import fit_envelope
from repro.sweep.engine import SweepEngine
from repro.workloads.generator import UpdateStream, banded_mod, random_linear_mod

FULL_INIT_SIZES = [128, 256, 512, 1024, 2048]
QUICK_INIT_SIZES = [64, 128, 256, 512]
FULL_UPDATE_SIZES = [64, 128, 256, 512, 1024]
QUICK_UPDATE_SIZES = [64, 128, 256, 512]


def build_engine(db, observe=None):
    return SweepEngine(
        db,
        SquaredEuclideanDistance([0.0, 0.0]),
        Interval(0.0, 300.0),
        observe=observe,
    )


def audit_theorem5_init(audit: ComplexityAudit, sizes) -> None:
    """Record init op counts per N (Theorem 5: O(N log N))."""
    for n in sizes:
        db = random_linear_mod(n, seed=n, extent=200.0, speed=5.0)
        engine = build_engine(db)
        audit.record("Thm 5 init ops", n, engine.primitive_ops())


def audit_corollary6_updates(audit: ComplexityAudit, sizes, updates=50) -> None:
    """Record per-update op counts per N (Corollary 6: O(log N)).

    The banded workload keeps ranks essentially static so support
    changes per update stay bounded — Corollary 6's precondition.
    """
    for n in sizes:
        db = banded_mod(n, seed=n + 1, band_gap=5.0, jitter_speed=0.2)
        engine = build_engine(db)
        db.subscribe(engine.on_update)
        stream = UpdateStream(
            db,
            seed=n + 2,
            mean_gap=0.25,
            periodic=True,
            speed=0.2,
            weights=(0.0, 0.0, 1.0),
        )
        before = engine.primitive_ops()
        stream.run(updates)
        audit.record(
            "Cor 6 per-update ops",
            n,
            (engine.primitive_ops() - before) / updates,
        )


def audit_cached_hits(sizes) -> list:
    """Exact-repeat cache hits must cost zero new sweep operations.

    Returns ``(n, ops)`` rows; any nonzero entry is a failure — the
    hit path would be re-running part of the Theorem 5 work it exists
    to avoid.
    """
    from repro.cache import QueryCache
    from repro.core.api import evaluate_knn
    from repro.obs.explain import explain

    rows = []
    for n in sizes:
        db = random_linear_mod(n, seed=n, extent=200.0, speed=5.0)
        cache = QueryCache()
        evaluate_knn(db, [0.0, 0.0], Interval(0.0, 20.0), k=2, cache=cache)
        report = explain(
            db, [0.0, 0.0], Interval(0.0, 20.0), "knn", k=2, cache=cache
        )
        ops = 0
        for stage in report.to_dict()["stages"]:
            ops += stage.get("attrs", {}).get("ops", 0)
            for child in stage.get("children", []):
                ops += child.get("attrs", {}).get("ops", 0)
        rows.append((n, ops))
    return rows


PRUNED_QUANTITY = "Thm 4 one-shot ops vs (C + m_C) log C"
PRUNED_WINDOW = Interval(0.0, 10.0)
PRUNED_K = 5


def audit_pruned_one_shot(audit: ComplexityAudit, sizes) -> list:
    """Record the one-shot path's ops against ``(C + m_C) log C``.

    Read off one EXPLAIN per N: ``prune`` names the candidates and
    slices, the profile's registry counts the slice engines' order
    changes, ``init`` + ``sweep`` carry their summed primitive ops.
    Returns ``(n, candidates, slices, changes, ops, full_order_swaps)``
    rows; the last column is one raw engine over every curve, for
    contrast.
    """
    from repro.obs.explain import explain

    rows = []
    for n in sizes:
        db = random_linear_mod(n, seed=n, extent=200.0, speed=5.0)
        data = explain(
            db, [0.0, 0.0], PRUNED_WINDOW, "knn", k=PRUNED_K
        ).to_dict()
        stages = {
            stage["name"]: stage.get("attrs", {}) for stage in data["stages"]
        }
        samples = data["metrics"]["samples"]

        def changed(kind):
            return samples.get(
                f'sweep_order_changes_total{{kind="{kind}"}}', 0
            )

        changes = (
            changed("swap") + changed("insert") + changed("remove")
            - changed("reinsert")
        )
        candidates = stages["prune"]["candidates"]
        slices = stages["prune"]["slices"]
        ops = stages["init"]["ops"] + stages["sweep"]["ops"]
        audit.record(
            PRUNED_QUANTITY,
            (candidates + changes) * math.log2(candidates / slices + 1),
            ops,
        )
        full = SweepEngine(
            db, SquaredEuclideanDistance([0.0, 0.0]), PRUNED_WINDOW
        )
        full.run_to_end()
        rows.append((n, candidates, slices, changes, ops, full.stats.swaps))
    return rows


LIVE_QUANTITY = "Thm 5 live per-update ops (bound checks included)"
LIVE_SIZES = [100, 200, 400, 800]
LIVE_K = 3


def audit_live_updates(audit: ComplexityAudit, sizes=LIVE_SIZES) -> list:
    """Record a live session's per-update ops per N (O(log N) envelope).

    A session's host (``repro.sweep.live``) orders the curves under its
    bar, so what an update costs follows those members, not the
    database: N grows at constant density (extent ~ sqrt N) with every
    object reporting at one rate (N updates over ten time units), and
    the count includes every bound check of every re-bar.  Returns
    ``(n, mean members, re-bars, engine ops, bound checks)`` rows,
    the last two per update.
    """
    from repro.core.api import ContinuousQuerySession

    rows = []
    for n in sizes:
        db, stream = _at_constant_density(n)
        session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=LIVE_K)
        host = session.engine
        ops, checks, candidates = host.primitive_ops(), host.bound_checks, 0
        for _ in range(n):
            stream.step()
            candidates += host.candidates
        ops = host.primitive_ops() - ops
        checks = host.bound_checks - checks
        session.close()
        audit.record(LIVE_QUANTITY, n, ops / n)
        rows.append(
            (n, candidates / n, host.replans, (ops - checks) / n, checks / n)
        )
    return rows


RANK_QUANTITY = "Live rank ops per support change (re-bars included)"
RANK_SIZES = [200, 1000, 5000]
RANK_UPDATES = 400


def audit_live_rank(
    audit: ComplexityAudit, sizes=RANK_SIZES, updates=RANK_UPDATES
) -> list:
    """Record a k = 3 session's ops per support change per N (flat).

    ``serve_crossing``'s stream (seed 7, mean gap 0.05, chdir-heavy)
    over ``random_linear_mod(N, seed=1)``, ``updates`` updates.  The
    space stays the same, so the density grows with N and so do the
    reading's own support changes per update (Theorem 5's ``m``: 0.16
    at N=200, 1.1 at N=5000); what the host pays for each of them —
    every re-bar's ``O(N)`` pass included — must not grow with N.
    Returns ``(n, mean members, re-bars, ops, support changes)`` rows,
    the last two per update."""
    from repro.core.api import ContinuousQuerySession

    rows = []
    for n in sizes:
        db = random_linear_mod(n, seed=1)
        stream = UpdateStream(db, seed=7, mean_gap=0.05, weights=(0.1, 0.1, 0.8))
        session = ContinuousQuerySession.knn(db, [0.0, 0.0], k=LIVE_K)
        host = session.engine
        ops, changes, members = host.primitive_ops(), host.stats.support_changes, 0
        for _ in range(updates):
            stream.step()
            members += host.candidates
        ops = host.primitive_ops() - ops
        changes = host.stats.support_changes - changes
        session.close()
        audit.record(RANK_QUANTITY, n, ops / max(changes, 1))
        rows.append(
            (n, members / updates, host.replans, ops / updates, changes / updates)
        )
    return rows


def _at_constant_density(n):
    """``random_linear_mod(n)`` at constant density (extent ~ sqrt N)
    and a stream of N updates over ten time units, every object
    reporting at one rate."""
    extent = 100.0 * math.sqrt(n / 200.0)
    db = random_linear_mod(n, seed=n, extent=extent, speed=5.0)
    stream = UpdateStream(
        db,
        seed=n + 1,
        mean_gap=10.0 / n,
        extent=extent,
        speed=5.0,
        weights=(0.1, 0.1, 0.8),
    )
    return db, stream


RANGE_QUANTITY = "Live range per-update ops (crossings included)"
RANGE_RADIUS = 40.0


def audit_live_range(audit: ComplexityAudit, sizes=LIVE_SIZES) -> list:
    """Record a live within session's per-update ops per N (flat).

    The workload of :func:`audit_live_updates`, read within 40 of the
    origin.  Returns ``(n, mean members, crossings, ops)`` rows, the
    last two per update."""
    from repro.core.api import ContinuousQuerySession

    rows = []
    for n in sizes:
        db, stream = _at_constant_density(n)
        session = ContinuousQuerySession.within(db, [0.0, 0.0], RANGE_RADIUS)
        host = session.engine
        ops, crossings, members = host.primitive_ops(), host.stats.swaps, 0
        for _ in range(n):
            stream.step()
            members += len(session.members)
        ops = host.primitive_ops() - ops
        crossings = host.stats.swaps - crossings
        session.close()
        audit.record(RANGE_QUANTITY, n, ops / n)
        rows.append((n, members / n, crossings / n, ops / n))
    return rows


def measure_overhead(n=512, updates=50, repeats=3):
    """Median wall-clock of the update loop, observed vs unobserved."""

    def run(observe):
        db = banded_mod(n, seed=n + 1, band_gap=5.0, jitter_speed=0.2)
        engine = build_engine(db, observe=observe)
        db.subscribe(engine.on_update)
        stream = UpdateStream(
            db,
            seed=n + 2,
            mean_gap=0.25,
            periodic=True,
            speed=0.2,
            weights=(0.0, 0.0, 1.0),
        )
        started = time.perf_counter()
        stream.run(updates)
        return time.perf_counter() - started

    disabled = []
    enabled = []
    for _ in range(repeats):
        disabled.append(run(None))
        enabled.append(run(MetricsRegistry()))
    return statistics.median(disabled), statistics.median(enabled)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Audit the paper's complexity claims from op counters."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sweeps and no overhead measurement (the CI gate)",
    )
    parser.add_argument(
        "--overhead",
        action="store_true",
        help="also measure enabled-vs-disabled instrumentation overhead",
    )
    parser.add_argument(
        "--overhead-budget",
        type=float,
        default=0.10,
        help="maximum tolerated relative overhead (default: 0.10)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    args = parser.parse_args(argv)

    init_sizes = QUICK_INIT_SIZES if args.quick else FULL_INIT_SIZES
    update_sizes = QUICK_UPDATE_SIZES if args.quick else FULL_UPDATE_SIZES
    updates = 30 if args.quick else 50

    audit = ComplexityAudit()
    audit_theorem5_init(audit, init_sizes)
    audit_corollary6_updates(audit, update_sizes, updates=updates)
    init_result = audit.check("Thm 5 init ops", "n log n")
    update_result = audit.check("Cor 6 per-update ops", "log n")
    pruned_rows = audit_pruned_one_shot(audit, init_sizes)
    pruned_result = audit.check(PRUNED_QUANTITY, "n")
    live_rows = audit_live_updates(audit)
    live_result = audit.check(LIVE_QUANTITY, "log n")
    range_rows = audit_live_range(audit)
    range_result = audit.check(RANGE_QUANTITY, "1")
    rank_rows = audit_live_rank(audit)
    rank_result = audit.check(RANK_QUANTITY, "1")
    # Flat ops per update is not met: the reading's own support changes
    # per update grow with the density of this fixed-space stream.
    rank_per_update = fit_envelope(
        [n for n, *_ in rank_rows],
        [ops for _, _, _, ops, _ in rank_rows],
        "1",
        quantity="Live rank ops per update (re-bars included)",
    )
    cached_rows = audit_cached_hits(init_sizes)
    cached_ok = all(ops == 0 for _, ops in cached_rows)

    failed = not audit.all_passed or not cached_ok
    overhead = None
    if args.overhead and not args.quick:
        disabled, enabled = measure_overhead()
        overhead = enabled / disabled - 1.0
        if overhead > args.overhead_budget:
            failed = True

    if args.json:
        payload = {
            "results": [
                {
                    "quantity": r.quantity,
                    "envelope": r.envelope,
                    "constant": r.constant,
                    "r_squared": r.r_squared,
                    "best_model": r.best_fit.model,
                    "passed": r.passed,
                    "observations": list(r.observations),
                }
                for r in audit.results
            ],
            "cached_hit_ops": [
                {"n": n, "ops": ops} for n, ops in cached_rows
            ],
            "pruned_one_shot": [
                dict(
                    zip(
                        ("n", "candidates", "slices", "order_changes",
                         "ops", "full_order_swaps"),
                        row,
                    )
                )
                for row in pruned_rows
            ],
            "live_updates": [
                dict(
                    zip(
                        ("n", "mean_candidates", "replans",
                         "engine_ops_per_update", "bound_checks_per_update"),
                        row,
                    )
                )
                for row in live_rows
            ],
            "live_range": [
                dict(
                    zip(
                        ("n", "mean_members", "crossings_per_update",
                         "ops_per_update"),
                        row,
                    )
                )
                for row in range_rows
            ],
            "live_rank": [
                dict(
                    zip(
                        ("n", "mean_members", "rebars", "ops_per_update",
                         "support_changes_per_update"),
                        row,
                    )
                )
                for row in rank_rows
            ],
            "live_rank_per_update_flat": rank_per_update.passed,
            "cached_hits_free": cached_ok,
            "overhead": overhead,
            "passed": not failed,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(audit.report())
        print()
        print(init_result.describe())
        print(update_result.describe())
        print(pruned_result.describe())
        print(
            "one-shot knn over "
            f"[{PRUNED_WINDOW.lo:g}, {PRUNED_WINDOW.hi:g}], k={PRUNED_K}: "
            + "; ".join(
                f"N={n}: {c} candidates in {s} slices, {m} order changes, "
                f"{ops} ops (full order: {full} swaps)"
                for n, c, s, m, ops, full in pruned_rows
            )
        )
        print(live_result.describe())
        print(
            f"live knn session, k={LIVE_K}, N updates over ten time units: "
            + "; ".join(
                f"N={n}: {c:.1f} members, {r} re-bars, "
                f"{e:.1f} engine ops + {b:.1f} bound checks per update"
                for n, c, r, e, b in live_rows
            )
        )
        print(range_result.describe())
        print(
            f"live within-{RANGE_RADIUS:g} session, same workload: "
            + "; ".join(
                f"N={n}: {m:.1f} members, {x:.2f} crossings and "
                f"{ops:.2f} ops per update"
                for n, m, x, ops in range_rows
            )
        )
        print(rank_result.describe())
        print(rank_per_update.describe() + "  (reported, not gated)")
        print(
            f"live knn session, k={LIVE_K}, serve_crossing's stream "
            f"({RANK_UPDATES} updates): "
            + "; ".join(
                f"N={n}: {m:.1f} members, {r} re-bars, {ops:.2f} ops and "
                f"{x:.2f} support changes per update"
                for n, m, r, ops, x in rank_rows
            )
        )
        print(
            "cached exact-repeat hit ops: "
            + ", ".join(f"N={n}: {ops}" for n, ops in cached_rows)
            + ("  (free — OK)" if cached_ok else "  (NONZERO — FAILED)")
        )
        if overhead is not None:
            print(
                f"instrumentation overhead: {overhead:+.2%} "
                f"(budget {args.overhead_budget:.0%})"
            )
        print("complexity audit:", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""CI perf-regression gate over deterministic cost measures.

Re-measures the headline experiments at CI-friendly scale and
compares each metric against the committed baselines under
``benchmarks/baselines/`` with per-metric tolerance bands:

- **E-AC** (``BENCH_EAC.json``) — answer-cache hit rate and the
  cached-pass op fraction on a repeated/overlapping kNN workload.
  Both passes run the one pruned one-shot body
  (``repro.sweep.prune``); the cached pass sweeps each point's first
  window and then only the gaps its extensions add, so
  ``cached_ops_fraction`` reads below 1 — "the cache does less sweep
  work" (re-baselined in PR 19: 64.2 -> 0.29, when the full-order
  continuation engine a miss used to build was deleted);
- **T5** (``BENCH_T5.json``) — Theorem 5 initialization ops at fixed N
  and Corollary 6 per-update maintenance ops on a banded workload, for
  a bare full-order engine and for a live session (whose host orders
  only the curves under its bar);
- **E-MQ** (``BENCH_EMQ.json``) — multi-tenant server fan-out: the
  per-update primitive-op ratio of 32 independent sessions vs one
  :class:`~repro.server.QueryServer` sharing sweeps across engine
  groups (answers are asserted equal inside the measure);
- **E-NET** (``BENCH_ENET.json``) — TCP frontend wire cost: requests,
  pushed answer changes, and bytes per direction for a fixed remote
  session mix over loopback (remote answers are asserted equal to an
  in-process twin inside the measure);
- **E-REC** (``BENCH_EREC.json``) — crash-recovery cost: journal
  records replayed at two checkpoint placements (exact counts),
  recovery sweep ops relative to uninterrupted live ingestion, and the
  past-query ops recovery defers to the sessions' closes (recovered
  answers are asserted equal to a live mirror inside the measure).

Every measure counts *primitive sweep operations*, hit rates, or wire
frames/bytes — never wall-clock — so the gate is deterministic across
machines; tolerances
exist to absorb intentional small algorithmic drift, not timer noise.
The cache/ops measures are taken through :func:`repro.obs.explain`,
so the gate also exercises the profiler's stage attribution end to
end.

Exit status is non-zero when any metric leaves its band.  After an
*intentional* performance change, regenerate the baselines with::

    PYTHONPATH=src python scripts/perf_gate.py --update-baselines

and commit the refreshed ``benchmarks/baselines/*.json`` alongside the
change (the diff documents the accepted shift).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.cache import QueryCache
from repro.geometry.intervals import Interval
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.obs.explain import explain
from repro.sweep.engine import SweepEngine
from repro.workloads.generator import (
    UpdateStream,
    banded_mod,
    random_linear_mod,
)

BASELINE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "baselines",
)

ORIGIN = SquaredEuclideanDistance([0.0, 0.0])

EAC_N = 120
EAC_WINDOW = Interval(0.0, 12.0)
EAC_K = 3

T5_N = 512
T5_UPDATES = 80
T5_LIVE_K = 3

EMQ_N = 64
EMQ_UPDATES = 40
EMQ_SESSIONS = 32
# Four knn ks + two multiknn mixes share one rank pool; two within
# thresholds add one engine group each -> 3 groups for any Q >= 7.
EMQ_SPEC_CYCLE = (
    ("knn", {"k": 1}),
    ("knn", {"k": 2}),
    ("multiknn", {"ks": (1, 3)}),
    ("within", {"threshold": 900.0}),
    ("knn", {"k": 3}),
    ("multiknn", {"ks": (2, 4)}),
    ("within", {"threshold": 2500.0}),
    ("knn", {"k": 4}),
)

ENET_N = 16
ENET_UPDATES = 8
ENET_SESSIONS = 8
ENET_SUBSCRIBE_EVERY = 4
ENET_SPEC_CYCLE = (
    ("knn", {"k": 1}),
    ("within", {"threshold": 900.0}),
    ("multiknn", {"ks": (1, 3)}),
    ("knn", {"k": 3}),
)

EREC_N = 48
EREC_UPDATES = 64
EREC_SEED = 29
EREC_TAIL_SHORT = 8
EREC_TAIL_LONG = 48
EREC_SPEC_CYCLE = (
    ("knn", {"k": 2}),
    ("within", {"threshold": 900.0}),
    ("multiknn", {"ks": (1, 3)}),
)


def _stage_ops(report, *names):
    """Summed ``ops`` annotations over the named stages, at any depth
    (a gap sweep's ``init`` / ``sweep`` nest under ``cache.extend``,
    a close's under ``server.close``)."""

    def walk(stages):
        for stage in stages:
            if stage["name"] in names:
                yield stage.get("attrs", {}).get("ops", 0)
            yield from walk(stage.get("children", []))

    return sum(walk(report.to_dict()["stages"]))


def measure_eac() -> dict:
    """Answer-cache hit rate and cached-pass op fraction (E-AC)."""
    db = random_linear_mod(EAC_N, seed=EAC_N, extent=150.0, speed=3.0)
    # Repeats, a zoom, and two horizon extensions per query point.
    schedule = []
    for x in (-30.0, 0.0, 30.0):
        gd = SquaredEuclideanDistance([x, 0.0])
        schedule.append((gd, EAC_WINDOW))
        schedule.append((gd, EAC_WINDOW))
        schedule.append((gd, Interval(2.0, 8.0)))
        schedule.append((gd, Interval(0.0, EAC_WINDOW.hi + 2.0)))
        schedule.append((gd, Interval(0.0, EAC_WINDOW.hi + 4.0)))

    def run(cache):
        ops = 0
        for gd, interval in schedule:
            report = explain(db, gd, interval, "knn", k=EAC_K, cache=cache)
            ops += _stage_ops(report, "init", "sweep")
        return ops

    cold_ops = run(None)
    cache = QueryCache()
    cached_ops = run(cache)
    stats = cache.stats()
    return {
        "answer_hit_rate": stats["answer_hit_rate"],
        "cold_ops": cold_ops,
        "cached_ops": cached_ops,
        "cached_ops_fraction": cached_ops / cold_ops,
    }


def measure_t5() -> dict:
    """Theorem 5 init ops and Corollary 6 per-update ops."""
    db = random_linear_mod(T5_N, seed=T5_N, extent=200.0, speed=5.0)
    engine = SweepEngine(db, ORIGIN, Interval(0.0, 300.0))
    init_ops = engine.primitive_ops()

    db = banded_mod(T5_N, seed=T5_N + 1, band_gap=5.0, jitter_speed=0.2)
    engine = SweepEngine(db, ORIGIN, Interval(0.0, 300.0))
    db.subscribe(engine.on_update)
    stream = UpdateStream(
        db,
        seed=T5_N + 2,
        mean_gap=0.25,
        periodic=True,
        speed=0.2,
        weights=(0.0, 0.0, 1.0),
    )
    before = engine.primitive_ops()
    stream.run(T5_UPDATES)
    per_update = (engine.primitive_ops() - before) / T5_UPDATES

    # The same two terms on the live path, where a session's host
    # orders the curves under its bar (bound checks included).
    from repro.core.api import ContinuousQuerySession

    db = random_linear_mod(T5_N, seed=T5_N, extent=200.0, speed=5.0)
    session = ContinuousQuerySession.knn(db, ORIGIN, k=T5_LIVE_K)
    live_open_ops = session.engine.primitive_ops()
    session.close()

    db = banded_mod(T5_N, seed=T5_N + 1, band_gap=5.0, jitter_speed=0.2)
    session = ContinuousQuerySession.knn(db, ORIGIN, k=T5_LIVE_K)
    before = session.engine.primitive_ops()
    UpdateStream(
        db,
        seed=T5_N + 2,
        mean_gap=0.25,
        periodic=True,
        speed=0.2,
        weights=(0.0, 0.0, 1.0),
    ).run(T5_UPDATES)
    live_per_update = (session.engine.primitive_ops() - before) / T5_UPDATES
    session.close()
    return {
        "init_ops": init_ops,
        "update_ops_per_update": per_update,
        "live_open_ops": live_open_ops,
        "live_update_ops_per_update": live_per_update,
    }


def measure_emq() -> dict:
    """Shared-server fan-out vs per-session maintenance ops (E-MQ)."""
    from repro.core.api import ContinuousQuerySession, serve
    from repro.sweep.engine import SweepEngine
    from repro.sweep.multiknn import MultiKNN

    db = random_linear_mod(EMQ_N, seed=7, extent=80.0, speed=4.0)
    specs = [
        EMQ_SPEC_CYCLE[i % len(EMQ_SPEC_CYCLE)]
        for i in range(EMQ_SESSIONS)
    ]

    standalone = []
    for kind, params in specs:
        if kind == "knn":
            session = ContinuousQuerySession.knn(db, ORIGIN, k=params["k"])
            engine = session.engine
        elif kind == "within":
            session = ContinuousQuerySession.within(
                db, ORIGIN, params["threshold"]
            )
            engine = session.engine
        else:
            engine = SweepEngine(
                db, ORIGIN, Interval.at_least(db.last_update_time)
            )
            MultiKNN(engine, list(params["ks"]))
            db.subscribe(engine.on_update)
        standalone.append(engine)

    server = serve(db)
    sessions = []
    for kind, params in specs:
        if kind == "knn":
            sessions.append(server.register_knn(ORIGIN, k=params["k"]))
        elif kind == "within":
            sessions.append(
                server.register_within(ORIGIN, params["threshold"])
            )
        else:
            sessions.append(server.register_multiknn(ORIGIN, params["ks"]))

    alone_base = sum(e.primitive_ops() for e in standalone)
    server_base = server.primitive_ops()
    UpdateStream(
        db,
        seed=11,
        mean_gap=0.15,
        periodic=True,
        extent=80.0,
        speed=4.0,
        weights=(0.0, 0.0, 1.0),
    ).run(EMQ_UPDATES)
    alone_ops = sum(e.primitive_ops() for e in standalone) - alone_base
    server_ops = server.primitive_ops() - server_base
    for session in sessions:
        session.close(at=db.last_update_time + 1.0)
    server.shutdown()
    return {
        "per_session_ops_per_update": alone_ops / EMQ_UPDATES,
        "server_ops_per_update": server_ops / EMQ_UPDATES,
        "ops_ratio": alone_ops / server_ops,
    }


def measure_enet() -> dict:
    """Wire cost of the TCP serving frontend (E-NET).

    Every metric is a frame or byte count off :class:`repro.net.NetStats`
    for a fully deterministic session mix — request ids are fixed-width,
    the update stream is seeded, and pushes fire only on real answer
    changes — so the numbers are bit-stable across machines.
    """
    from repro.core.api import serve, serve_tcp
    from repro.geometry.vectors import Vector
    from repro.io import answer_to_dict
    from repro.mod.updates import New
    from repro.net import connect

    def build_db():
        db = random_linear_mod(ENET_N, seed=7, extent=60.0, speed=3.0)
        return db

    def stir(db):
        UpdateStream(
            db,
            seed=11,
            mean_gap=0.2,
            periodic=True,
            extent=60.0,
            speed=3.0,
            weights=(0.0, 0.0, 1.0),
        ).run(ENET_UPDATES)
        base = db.last_update_time
        for i in range(3):
            db.apply(
                New(
                    f"nb{i}",
                    base + 0.1 * (i + 1),
                    position=Vector.of(0.01 / (i + 1), 0.0),
                    velocity=Vector.of(0.0, 0.0),
                )
            )

    specs = [
        ENET_SPEC_CYCLE[i % len(ENET_SPEC_CYCLE)]
        for i in range(ENET_SESSIONS)
    ]
    db_local, db_remote = build_db(), build_db()
    local = serve(db_local)
    reference = []
    for kind, params in specs:
        if kind == "knn":
            reference.append(local.register_knn(ORIGIN, k=params["k"]))
        elif kind == "within":
            reference.append(
                local.register_within(ORIGIN, params["threshold"])
            )
        else:
            reference.append(
                local.register_multiknn(ORIGIN, params["ks"])
            )

    net = serve_tcp(db_remote)
    client = connect(*net.address)
    try:
        remote = []
        for kind, params in specs:
            if kind == "knn":
                remote.append(
                    client.open_knn([0.0, 0.0], k=params["k"])
                )
            elif kind == "within":
                remote.append(
                    client.open_within(
                        [0.0, 0.0], threshold=params["threshold"]
                    )
                )
            else:
                remote.append(
                    client.open_multiknn(
                        [0.0, 0.0], ks=list(params["ks"])
                    )
                )
        for session in remote[::ENET_SUBSCRIBE_EVERY]:
            session.subscribe()

        stir(db_local)
        stir(db_remote)

        horizon = db_remote.last_update_time + 1.0
        for (kind, _), rem, ref in zip(specs, remote, reference):
            got = rem.close(at=horizon)
            want = ref.close(at=horizon)
            if kind == "multiknn":
                assert set(got) == set(want)
                for k in want:
                    assert answer_to_dict(got[k]) == answer_to_dict(
                        want[k]
                    )
            else:
                assert answer_to_dict(got) == answer_to_dict(want)

        stats = net.stats
        return {
            "requests": float(stats.requests),
            "pushes": float(stats.pushes),
            "replays": float(stats.replays),
            "bytes_in_per_request": stats.bytes_in / stats.requests,
            "bytes_out_per_request": stats.bytes_out / stats.requests,
        }
    finally:
        client.close()
        net.close()
        local.shutdown()


def measure_erec() -> dict:
    """Crash-recovery replay cost vs checkpoint placement (E-REC).

    Every metric is a record or primitive-op count off seeded replays
    — never wall-clock.  The recovered servers' sessions are asserted
    to close to the same answers as an uninterrupted in-process
    mirror, so the gate re-proves the (snapshot, tail) reconstruction
    while it prices it.
    """
    import shutil
    import tempfile

    from repro.core.api import serve
    from repro.io import answer_to_dict
    from repro.replication import DurableQueryServer, recover_server

    def build_db():
        return random_linear_mod(
            EREC_N, seed=EREC_SEED, extent=80.0, speed=4.0
        )

    def register(server):
        sessions = []
        for kind, params in EREC_SPEC_CYCLE:
            if kind == "knn":
                sessions.append(server.register_knn(ORIGIN, k=params["k"]))
            elif kind == "within":
                sessions.append(
                    server.register_within(ORIGIN, params["threshold"])
                )
            else:
                sessions.append(
                    server.register_multiknn(ORIGIN, params["ks"])
                )
        return sessions

    scratch = build_db()
    updates = []
    scratch.subscribe(updates.append)
    UpdateStream(
        scratch, seed=EREC_SEED + 1, extent=80.0, speed=4.0
    ).run(EREC_UPDATES)
    horizon = scratch.last_update_time + 1.0

    def close_all(sessions):
        return [s.close(at=horizon) for s in sessions]

    mirror = serve(build_db())
    want = None
    live_ops = None
    try:
        mirror_sessions = register(mirror)
        for update in updates:
            mirror.db.apply(update)
        live_ops = mirror.primitive_ops()
        want = close_all(mirror_sessions)
    finally:
        mirror.shutdown()

    def recover_with_tail(tail, directory):
        server = DurableQueryServer(
            build_db(),
            directory=directory,
            sync="flush",
            checkpoint_interval=None,
        )
        register(server)
        cut = len(updates) - tail
        for i, update in enumerate(updates):
            server.db.apply(update)
            if i + 1 == cut:
                server.checkpoint()
        server.journal.close()  # simulated kill
        recovered = recover_server(directory, checkpoint_on_recover=False)
        replayed = recovered.recovered_tail
        ops = recovered.primitive_ops()
        # Recovery re-sweeps no history; what it defers is each
        # session's past query over [start, snapshot clock], paid only
        # at its close.  Priced here so the moved cost stays visible.
        reports = [
            recovered.explain_close(s, at=horizon)
            for s in recovered.sessions()
        ]
        past_ops = sum(_stage_ops(r, "init", "sweep") for r in reports)
        got = [r.answer for r in reports]
        for g, w in zip(got, want):
            if isinstance(w, dict):
                assert set(g) == set(w)
                for k in w:
                    assert answer_to_dict(g[k]) == answer_to_dict(w[k])
            else:
                assert answer_to_dict(g) == answer_to_dict(w)
        recovered.shutdown()
        return replayed, ops, past_ops

    workdir = tempfile.mkdtemp(prefix="erec-gate-")
    try:
        _, restore_ops, _ = recover_with_tail(
            0, os.path.join(workdir, "tail-0")
        )
        tail_short, ops_short, past_short = recover_with_tail(
            EREC_TAIL_SHORT, os.path.join(workdir, "tail-short")
        )
        tail_long, ops_long, past_long = recover_with_tail(
            EREC_TAIL_LONG, os.path.join(workdir, "tail-long")
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "tail_short": float(tail_short),
        "tail_long": float(tail_long),
        "restore_only_ops": float(restore_ops),
        "recovery_ops_short": float(ops_short),
        "recovery_ops_long": float(ops_long),
        "recovery_vs_live_ratio": ops_long / live_ops,
        "close_past_ops_short": float(past_short),
        "close_past_ops_long": float(past_long),
    }


SUITES = {
    "eac": (measure_eac, "BENCH_EAC.json"),
    "t5": (measure_t5, "BENCH_T5.json"),
    "emq": (measure_emq, "BENCH_EMQ.json"),
    "enet": (measure_enet, "BENCH_ENET.json"),
    "erec": (measure_erec, "BENCH_EREC.json"),
}

# Per-metric gate policy: direction "max" fails when the current value
# exceeds baseline * (1 + tolerance) — lower is better; "min" fails
# below baseline * (1 - tolerance) — higher is better.
POLICY = {
    "eac": {
        "answer_hit_rate": ("min", 0.05),
        "cold_ops": ("max", 0.15),
        "cached_ops": ("max", 0.15),
        "cached_ops_fraction": ("max", 0.15),
    },
    "t5": {
        "init_ops": ("max", 0.10),
        "update_ops_per_update": ("max", 0.15),
        # A session's open and per-update cost through its live
        # candidate host: N bound checks plus an engine over the
        # candidates, then almost only bound checks.
        "live_open_ops": ("max", 0.10),
        "live_update_ops_per_update": ("max", 0.15),
    },
    "emq": {
        "per_session_ops_per_update": ("max", 0.15),
        "server_ops_per_update": ("max", 0.15),
        # Higher is better: the fan-out amortization must not erode.
        "ops_ratio": ("min", 0.15),
    },
    "enet": {
        # More frames for the same session mix = chattier protocol.
        "requests": ("max", 0.10),
        "pushes": ("max", 0.25),
        # A clean loopback run must never need the retry path.
        "replays": ("max", 0.0),
        "bytes_in_per_request": ("max", 0.15),
        "bytes_out_per_request": ("max", 0.15),
    },
    "erec": {
        # Replayed-record counts are exact by construction: any drift
        # means checkpoint coverage accounting broke.
        "tail_short": ("max", 0.0),
        "tail_long": ("max", 0.0),
        "restore_only_ops": ("max", 0.15),
        "recovery_ops_short": ("max", 0.15),
        "recovery_ops_long": ("max", 0.15),
        # Recovery is one initialization per group at the snapshot's
        # clock plus the tail's maintenance: below live ingestion of
        # the whole stream, and never a re-sweep of history.
        "recovery_vs_live_ratio": ("max", 0.15),
        # The past queries recovery defers to the sessions' closes
        # (pruned one-shot sweeps over [start, snapshot clock]).
        "close_past_ops_short": ("max", 0.15),
        "close_past_ops_long": ("max", 0.15),
    },
}


def compare(suite: str, current: dict, baseline: dict) -> list:
    """Per-metric verdicts for one suite; a row per gated metric."""
    rows = []
    for name, (direction, tolerance) in POLICY[suite].items():
        base = baseline["metrics"][name]
        value = current[name]
        if direction == "max":
            limit = base * (1.0 + tolerance)
            ok = value <= limit
        else:
            limit = base * (1.0 - tolerance)
            ok = value >= limit
        rows.append(
            {
                "suite": suite,
                "metric": name,
                "current": value,
                "baseline": base,
                "limit": limit,
                "direction": direction,
                "tolerance": tolerance,
                "ok": ok,
            }
        )
    return rows


def baseline_path(suite: str, directory: str) -> str:
    return os.path.join(directory, SUITES[suite][1])


def write_baseline(suite: str, current: dict, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    payload = {
        "suite": suite,
        "metrics": current,
        "policy": {
            name: {"direction": d, "tolerance": t}
            for name, (d, t) in POLICY[suite].items()
        },
    }
    with open(baseline_path(suite, directory), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_gate(suites, directory: str, update: bool = False):
    """Measure the requested suites; returns (rows, failed)."""
    rows = []
    failed = False
    for suite in suites:
        measure, filename = SUITES[suite]
        current = measure()
        if update:
            write_baseline(suite, current, directory)
            continue
        path = baseline_path(suite, directory)
        if not os.path.exists(path):
            raise SystemExit(
                f"missing baseline {path}; run with --update-baselines"
            )
        with open(path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        suite_rows = compare(suite, current, baseline)
        rows.extend(suite_rows)
        failed = failed or not all(r["ok"] for r in suite_rows)
    return rows, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate CI on deterministic perf measures vs baselines."
    )
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES),
        action="append",
        help="restrict to one suite (repeatable; default: all)",
    )
    parser.add_argument(
        "--baseline-dir",
        default=BASELINE_DIR,
        help="directory holding BENCH_*.json baselines",
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="rewrite the baselines from current measures (after an "
        "intentional perf change) instead of gating",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    args = parser.parse_args(argv)
    suites = args.suite or sorted(SUITES)

    rows, failed = run_gate(
        suites, args.baseline_dir, update=args.update_baselines
    )
    if args.update_baselines:
        print(f"baselines rewritten under {args.baseline_dir}")
        return 0

    if args.json:
        print(json.dumps({"rows": rows, "passed": not failed}, indent=2))
    else:
        width = max(len(r["metric"]) for r in rows)
        for row in rows:
            arrow = "<=" if row["direction"] == "max" else ">="
            print(
                f"[{'ok' if row['ok'] else 'FAIL':4}] "
                f"{row['suite']}/{row['metric']:<{width}}  "
                f"current {row['current']:12.4f}  {arrow} limit "
                f"{row['limit']:12.4f}  (baseline {row['baseline']:.4f} "
                f"±{row['tolerance']:.0%})"
            )
        print("perf gate:", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

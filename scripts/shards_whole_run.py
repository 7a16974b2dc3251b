#!/usr/bin/env python
"""What ``shards=`` is for: S in {1, 2, 4, 8} on whole runs.

ROADMAP item 2's question, as ISSUE 24's stop rule asks it: does any
S > 1 beat S = 1 on a *whole* run — open + updates + close — and
where?  Sections, each printing one JSON line per configuration
(medians over ``--reps`` runs; wall clock, so compare on a quiet box):

``oneshot``   ``evaluate_knn`` with and without ``shards=``
``esh``       E-SH's stream (crossing-rich, chdir-only, k=1) through a
              plain session and through a sharded one, batch 32
``session``   a dense range reading (within-40) through the same two
``server``    ``serve_crossing``'s session mix on an in-process
              ``QueryServer`` at ``ServerConfig(shards=S)``: the
              ``rank``, ``range`` and ``mix`` cells

``--confirm CELL N`` settles a close call: it alternates the cell's
unsharded / S=4 / S=8 configurations, one run per *fresh process*
(runs sharing a process read 30-50% apart by their place in the round),
and counts the pairs each S > 1 wins.  ``--one CELL N SHARDS`` is that
one run.

Usage: PYTHONPATH=src python scripts/shards_whole_run.py [section ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from repro.core.api import ContinuousQuerySession, evaluate_knn, serve
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.server.config import ServerConfig
from repro.workloads.generator import (
    UpdateStream,
    crossing_rich_mod,
    random_linear_mod,
)

ORIGIN = SquaredEuclideanDistance([0.0, 0.0])
POINTS = [(0.0, 0.0), (30.0, -20.0)]
READINGS = {
    "rank": [("knn", 1), ("multiknn", (1, 3)), ("knn", 3)],
    "range": [("within", 40.0)],
    "mix": [("knn", 1), ("within", 40.0), ("multiknn", (1, 3)), ("knn", 3)],
}
now = time.perf_counter


def _sharding(shards, **more):
    return {} if shards is None else {"shards": shards, **more}


def _crossing_stream(db):
    """``serve_crossing``'s update stream."""
    return UpdateStream(db, seed=7, mean_gap=0.05, weights=(0.1, 0.1, 0.8))


def _parts(began, opened, swept, closed, updates, ops) -> dict:
    """One whole run, in seconds (``ops``: primitive ops per update)."""
    return {
        "open": opened - began,
        "per_update": (swept - opened) / updates,
        "close": closed - swept,
        "total": closed - began,
        "ops": ops / updates,
    }


def _session_run(db, open_session, stream, updates: int, read: bool) -> dict:
    began = now()
    session = open_session(db)
    opened = now()
    ops = session.engine.primitive_ops()
    for _ in range(updates):
        stream.step()
        if read:
            session.members
    session.advance_to(db.last_update_time + 0.0015)
    swept = now()
    ops = session.engine.primitive_ops() - ops
    session.close()
    return _parts(began, opened, swept, now(), updates, ops)


def esh_run(n: int, shards) -> dict:
    db = random_linear_mod(n, seed=n, extent=300.0, speed=2.0)
    return _session_run(
        db,
        lambda db: ContinuousQuerySession.knn(
            db, ORIGIN, k=1, until=500.0, **_sharding(shards, batch_size=32)
        ),
        UpdateStream(
            db, seed=97, mean_gap=0.0015, periodic=True, extent=300.0,
            speed=2.0, weights=(0.0, 0.0, 1.0),
        ),
        updates=200,
        read=False,
    )


def session_run(n: int, shards) -> dict:
    db = random_linear_mod(n, seed=1)
    return _session_run(
        db,
        lambda db: ContinuousQuerySession.within(
            db, [0.0, 0.0], 40.0, **_sharding(shards)
        ),
        _crossing_stream(db),
        updates=400,
        read=True,
    )


def server_run(readings: str, n: int, shards, updates: int = 400) -> dict:
    kinds = READINGS[readings]
    db = random_linear_mod(n, seed=1)
    server = serve(db, config=ServerConfig(shards=shards or 1))
    began = now()
    sessions = []
    for i in range(8):
        kind, param = kinds[i % len(kinds)]
        point = list(POINTS[i % 2])
        if kind == "knn":
            sessions.append(server.register_knn(point, k=param))
        elif kind == "within":
            sessions.append(server.register_within(point, param))
        else:
            sessions.append(server.register_multiknn(point, list(param)))
    opened = now()
    ops = server.primitive_ops()
    stream = _crossing_stream(db)
    for _ in range(updates):
        stream.step()
        sessions[0].members
    swept = now()
    ops = server.primitive_ops() - ops
    end = db.last_update_time + 0.01
    for each in sessions:
        each.close(at=end)
    closed = now()
    server.shutdown()
    return _parts(began, opened, swept, closed, updates, ops)


#: What ``--one`` / ``--confirm`` can run: cell -> run(n, shards).
CELLS = {
    "esh": esh_run,
    "session": session_run,
    **{r: (lambda n, shards, r=r: server_run(r, n, shards)) for r in READINGS},
}


def _report(run, reps: int, **cell) -> None:
    """One line: the cell, then the median of each timed part in ms."""
    runs = [run() for _ in range(reps)]
    line = dict(cell)
    for part in runs[0]:
        median = statistics.median(each[part] for each in runs)
        if part == "ops":
            line[part] = round(median, 2)
        else:
            line[f"{part}_ms"] = round(median * 1e3, 2)
    print(json.dumps(line), flush=True)


def oneshot(reps: int) -> None:
    cases = (
        ("random_linear_mod(1000) k=5", lambda: random_linear_mod(1000, seed=1), 5),
        ("crossing_rich_mod(120) k=60", lambda: crossing_rich_mod(120, seed=1), 60),
    )
    for name, build, k in cases:
        for shards in (None, 1, 2, 4, 8):

            def run():
                db = build()
                began = now()
                evaluate_knn(
                    db, [0.0, 0.0], Interval(0.0, 10.0), k=k, **_sharding(shards)
                )
                return {"total": now() - began}

            _report(run, max(reps, 5), case=name, shards=shards)


def esh(reps: int) -> None:
    for n in (5000, 10000):
        for shards in (None, 1, 2, 4, 8):
            _report(lambda: esh_run(n, shards), reps, n=n, shards=shards)


def session(reps: int) -> None:
    for n in (2000, 5000):
        for shards in (None, 4, 8):
            _report(lambda: session_run(n, shards), reps, n=n, shards=shards)


def server(reps: int) -> None:
    for n in (200, 2000, 5000):
        for readings in READINGS:
            for shards in (1, 2, 4, 8):
                _report(
                    lambda: server_run(readings, n, shards),
                    reps,
                    n=n,
                    readings=readings,
                    shards=shards,
                )


def confirm(cell: str, n: int, reps: int) -> None:
    configs = (None, 4, 8)
    totals = {shards: [] for shards in configs}
    for rep in range(reps):
        for shards in configs if rep % 2 == 0 else reversed(configs):
            done = subprocess.run(
                [sys.executable, __file__, "--one", cell, str(n), str(shards)],
                capture_output=True,
                text=True,
                check=True,
            )
            totals[shards].append(json.loads(done.stdout)["total"] * 1e3)
    for shards in configs:
        line = dict(
            cell=cell,
            n=n,
            shards=shards,
            total_ms=[round(t) for t in totals[shards]],
            median_ms=round(statistics.median(totals[shards])),
        )
        if shards is not None:
            line["pairs_won"] = sum(
                a < b for a, b in zip(totals[shards], totals[None])
            )
        print(json.dumps(line), flush=True)


SECTIONS = {"oneshot": oneshot, "esh": esh, "session": session, "server": server}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sections", nargs="*", help=" / ".join(SECTIONS))
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--confirm", nargs=2, metavar=("CELL", "N"))
    parser.add_argument("--one", nargs=3, metavar=("CELL", "N", "SHARDS"))
    args = parser.parse_args()
    if args.one:
        cell, n, shards = args.one
        shards = None if shards == "None" else int(shards)
        print(json.dumps(CELLS[cell](int(n), shards)))
    elif args.confirm:
        confirm(args.confirm[0], int(args.confirm[1]), max(args.reps, 4))
    else:
        for name in args.sections or SECTIONS:
            print(f"== {name}", flush=True)
            SECTIONS[name](args.reps)


if __name__ == "__main__":
    main()

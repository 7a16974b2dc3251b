"""E-R1: admission-control and durability overhead of resilient ingest.

The resilience layer (``repro.resilience``) must not price itself out
of the hot path: Section 5's external-event processing assumes updates
are absorbed as they arrive.  This benchmark measures per-update ingest
cost across the admission stack:

- ``apply``        — bare ``MovingObjectDatabase.apply`` (the floor);
- ``strict``       — pipeline in strict mode (validation + counters);
- ``quarantine``   — per-update validation with structured rejection;
- ``repair``       — watermarked reorder buffer fed a faulty stream
  (duplicates + bounded reordering);
- ``repair+wal``   — repair plus a write-ahead log (no fsync);
- ``repair+fsync`` — repair plus a per-line-fsynced write-ahead log
  (the honest crash-durable configuration).

The published table reports microseconds per update and the throughput
multiple over bare ``apply``.  The assertion is on correctness-of-shape
only: every mode must land every clean update (the WAL rows pay real
I/O, so wall-clock ratios are reported, not asserted).
"""

import math

from repro.bench.harness import format_table, time_callable
from repro.mod.database import MovingObjectDatabase
from repro.resilience.ingest import IngestPipeline
from repro.resilience.wal import WriteAheadLog
from repro.workloads.faults import FaultInjector
from repro.workloads.generator import recorded_future_workload

from _support import publish_table

OBJECTS = 32
UPDATES = 400
SEED = 13


def _streams():
    db, _ = recorded_future_workload(OBJECTS, UPDATES, seed=SEED)
    clean = db.log.updates
    faulty, report = FaultInjector(
        seed=SEED + 1, duplicate_rate=0.15, reorder_rate=0.25, reorder_depth=3
    ).perturb(clean)
    return clean, faulty, report.max_time_displacement + 1.0


def _fresh_db():
    return MovingObjectDatabase(initial_time=-math.inf)


def _time(fn):
    return time_callable(fn, repeats=3, warmup=1)


def test_ingest_overhead(benchmark, tmp_path):
    clean, faulty, window = _streams()

    def run_apply():
        db = _fresh_db()
        for update in clean:
            db.apply(update)
        return db

    def run_strict():
        pipe = IngestPipeline(_fresh_db(), policy="strict")
        pipe.submit_all(clean)
        return pipe

    def run_quarantine():
        pipe = IngestPipeline(_fresh_db(), policy="quarantine")
        pipe.submit_all(clean)
        return pipe

    def run_repair():
        pipe = IngestPipeline(_fresh_db(), policy="repair", window=window)
        pipe.submit_all(faulty)
        pipe.flush()
        return pipe

    def run_repair_wal(sync, directory):
        with WriteAheadLog(directory, sync=sync) as wal:
            pipe = IngestPipeline(
                _fresh_db(), policy="repair", window=window, wal=wal
            )
            pipe.submit_all(faulty)
            pipe.flush()
        return pipe

    def sweep():
        rows = []
        baseline = _time(run_apply) / len(clean)
        rows.append(("apply", baseline, 1.0))
        for label, fn in (
            ("strict", run_strict),
            ("quarantine", run_quarantine),
            ("repair", run_repair),
            (
                "repair+wal",
                lambda: run_repair_wal("flush", str(tmp_path / "wal-nofsync")),
            ),
            (
                "repair+fsync",
                lambda: run_repair_wal("fsync", str(tmp_path / "wal-fsync")),
            ),
        ):
            per_update = _time(fn) / len(clean)
            rows.append((label, per_update, per_update / baseline))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    publish_table(
        "resilience_ingest",
        format_table(
            ["mode", "s/update", "x apply"],
            rows,
            title=(
                f"E-R1: ingest overhead, {OBJECTS} objects, "
                f"{len(clean)} clean updates (seed {SEED})"
            ),
        ),
    )

    # Every admission mode must land exactly the clean history.
    reference = run_apply()
    for pipe in (run_strict(), run_quarantine(), run_repair()):
        assert pipe.stats.accepted == len(clean)
        assert pipe.db.last_update_time == reference.last_update_time
        assert pipe.db.snapshot(reference.last_update_time) == reference.snapshot(
            reference.last_update_time
        )

"""Tests for write-ahead logging, checkpointing, and crash recovery."""

import json
import math
import os

import pytest

from repro.geometry.vectors import Vector
from repro.io import database_to_dict
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New, Terminate
from repro.resilience.wal import (
    CHECKPOINT_FILENAME,
    WAL_FILENAME,
    WalCorruptionError,
    WriteAheadLog,
    recover,
)


def sample_updates():
    return [
        New("a", 1.0, Vector([1.0, 0.0]), Vector([0.0, 0.0])),
        New("b", 2.0, Vector([0.0, 1.0]), Vector([5.0, 5.0])),
        ChangeDirection("a", 3.0, Vector([0.0, -1.0])),
        Terminate("b", 4.0),
    ]


def logged_db(directory, updates=None, checkpoint_after=None):
    """Apply updates through a WAL, optionally checkpointing mid-stream."""
    db = MovingObjectDatabase(initial_time=-math.inf)
    with WriteAheadLog(directory) as wal:
        for i, update in enumerate(updates or sample_updates()):
            wal.append(update)
            db.apply(update)
            if checkpoint_after is not None and i == checkpoint_after:
                wal.checkpoint(db)
    return db


class TestAppendAndRecover:
    def test_round_trip_without_checkpoint(self, tmp_path):
        db = logged_db(str(tmp_path))
        recovered, log = recover(str(tmp_path))
        assert database_to_dict(recovered) == database_to_dict(db)
        assert log.updates == sample_updates()

    def test_round_trip_with_checkpoint(self, tmp_path):
        db = logged_db(str(tmp_path), checkpoint_after=1)
        recovered, log = recover(str(tmp_path))
        assert database_to_dict(recovered) == database_to_dict(db)
        # The log still exposes every intact entry, pre-checkpoint ones
        # included, so any prefix state can be re-derived.
        assert log.updates == sample_updates()

    def test_recover_empty_directory(self, tmp_path):
        recovered, log = recover(str(tmp_path))
        assert list(recovered.object_ids) == []
        assert log.updates == []

    def test_append_counter(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            for update in sample_updates():
                wal.append(update)
            assert wal.appended == 4

    def test_closed_wal_rejects_appends(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(RuntimeError):
            wal.append(sample_updates()[0])

    def test_no_fsync_mode_still_recovers(self, tmp_path):
        db = MovingObjectDatabase(initial_time=-math.inf)
        with WriteAheadLog(str(tmp_path), sync="flush") as wal:
            for update in sample_updates():
                wal.append(update)
                db.apply(update)
        recovered, _ = recover(str(tmp_path))
        assert database_to_dict(recovered) == database_to_dict(db)


class TestCheckpointAtomicity:
    def test_no_temp_file_left_behind(self, tmp_path):
        logged_db(str(tmp_path), checkpoint_after=3)
        names = set(os.listdir(str(tmp_path)))
        assert names == {WAL_FILENAME, CHECKPOINT_FILENAME}

    def test_checkpoint_is_valid_snapshot(self, tmp_path):
        db = logged_db(str(tmp_path), checkpoint_after=3)
        with open(str(tmp_path / CHECKPOINT_FILENAME)) as handle:
            data = json.load(handle)
        assert data["tau"] == db.last_update_time


class TestCrashArtifacts:
    def test_truncated_final_line_skipped(self, tmp_path):
        db = logged_db(str(tmp_path))
        wal_path = str(tmp_path / WAL_FILENAME)
        with open(wal_path, "r+b") as handle:
            handle.truncate(os.path.getsize(wal_path) - 9)
        recovered, log = recover(str(tmp_path))
        # The last update was cut mid-line: three survive.
        assert log.updates == sample_updates()[:3]
        assert not recovered.is_terminated("b")

    def test_repair_truncates_partial_line(self, tmp_path):
        logged_db(str(tmp_path))
        wal_path = str(tmp_path / WAL_FILENAME)
        with open(wal_path, "ab") as handle:
            handle.write(b'{"kind": "terminate", "oid"')  # killed mid-append
        recover(str(tmp_path), repair=True)
        # The partial line is gone: appending resumes on a clean log.
        with open(wal_path, "rb") as handle:
            assert handle.read().endswith(b"}\n")
        db2 = MovingObjectDatabase(initial_time=-math.inf)
        with WriteAheadLog(str(tmp_path)) as wal:
            wal.append(Terminate("a", 9.0))
        recovered, log = recover(str(tmp_path))
        assert len(log.updates) == 5
        assert recovered.is_terminated("a")

    def test_repair_false_leaves_file_untouched(self, tmp_path):
        logged_db(str(tmp_path))
        wal_path = str(tmp_path / WAL_FILENAME)
        with open(wal_path, "ab") as handle:
            handle.write(b"garbage")
        before = open(wal_path, "rb").read()
        _, log = recover(str(tmp_path), repair=False)
        assert len(log.updates) == 4
        assert open(wal_path, "rb").read() == before

    def test_mid_file_corruption_raises(self, tmp_path):
        logged_db(str(tmp_path))
        wal_path = str(tmp_path / WAL_FILENAME)
        lines = open(wal_path, "rb").read().splitlines(keepends=True)
        lines[1] = b"{corrupt!}\n"
        with open(wal_path, "wb") as handle:
            handle.write(b"".join(lines))
        with pytest.raises(WalCorruptionError):
            recover(str(tmp_path))

    def test_recovered_log_replays_to_recovered_state(self, tmp_path):
        """The WAL contract: replaying the recovered log from scratch
        reproduces the recovered database exactly."""
        logged_db(str(tmp_path), checkpoint_after=1)
        wal_path = str(tmp_path / WAL_FILENAME)
        with open(wal_path, "ab") as handle:
            handle.write(b'{"kind":')  # crash artifact
        recovered, log = recover(str(tmp_path))
        replayed = MovingObjectDatabase(initial_time=-math.inf)
        for update in log.updates:
            replayed.apply(update)
        assert database_to_dict(replayed) == database_to_dict(recovered)

    def test_garbled_binary_tail_is_repairable(self, tmp_path):
        """Regression: a crash can flush arbitrary bytes — including
        invalid UTF-8 — into the tail.  A text-mode read died with
        UnicodeDecodeError before the repair logic ever ran; the WAL is
        now read as bytes and the garbled tail is treated exactly like
        a truncated line."""
        import random

        db = logged_db(str(tmp_path))
        wal_path = str(tmp_path / WAL_FILENAME)
        rng = random.Random(0xBAD)
        garbage = bytes(rng.randrange(256) for _ in range(256))
        with open(wal_path, "ab") as handle:
            handle.write(garbage)  # os.urandom-style crash splatter
        recovered, log = recover(str(tmp_path), repair=True)
        assert log.updates == sample_updates()
        assert database_to_dict(recovered) == database_to_dict(db)
        # Repair truncated the splatter: appends resume cleanly.
        with WriteAheadLog(str(tmp_path)) as wal:
            wal.append(Terminate("a", 9.0))
        recovered2, log2 = recover(str(tmp_path))
        assert len(log2.updates) == 5
        assert recovered2.is_terminated("a")

    def test_os_urandom_tail(self, tmp_path):
        """The literal issue reproducer: os.urandom bytes after the
        last intact line must not crash recovery."""
        logged_db(str(tmp_path))
        wal_path = str(tmp_path / WAL_FILENAME)
        with open(wal_path, "ab") as handle:
            handle.write(os.urandom(128))
        recovered, log = recover(str(tmp_path), repair=True)
        assert len(log.updates) == 4


class TestRecoveryCacheWarming:
    def test_recover_warms_curve_store(self, tmp_path):
        from repro.cache import QueryCache
        from repro.gdist.euclidean import SquaredEuclideanDistance

        logged_db(str(tmp_path))
        gd = SquaredEuclideanDistance([0.0, 0.0])
        cache = QueryCache()
        recovered, _ = recover(str(tmp_path), cache=cache, gdistances=[gd])
        assert cache.db is recovered
        assert len(cache.curves) == recovered.object_count
        # A post-recovery engine re-hits every warmed curve.
        from repro.geometry.intervals import Interval
        from repro.sweep.engine import SweepEngine

        engine = SweepEngine(
            recovered,
            gd,
            Interval(recovered.last_update_time, 10.0),
            curve_store=cache.curves,
        )
        assert cache.curves.hits == recovered.object_count


class TestRecoveryCorrelation:
    def test_recover_span_carries_query_id(self, tmp_path):
        """A recovery run under a QueryProfile correlates like any
        other stage: its ``wal.recover`` span is stamped with the
        owning query id, no WAL-side changes required."""
        from repro.obs.profile import QueryProfile

        logged_db(str(tmp_path))
        prof = QueryProfile("q-recovery", "recover")
        with prof:
            recover(str(tmp_path), observe=prof.observe)
        spans = [r for r in prof.spans if r["name"] == "wal.recover"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["query_id"] == "q-recovery"
        assert spans[0]["attrs"]["recovered"] == 4

"""Unit behavior of the server journal (:class:`ServerWal`)."""

import json
import os
import threading

import pytest

from repro.replication import (
    SERVER_WAL_FILENAME,
    NotDurableError,
    ReplicaFeed,
    ServerWal,
    load_server_state,
)


def _fill(journal, count, op="update", **fields):
    return [
        journal.append(op, i=i, **fields) for i in range(count)
    ]


class TestAppend:
    def test_seq_is_stamped_monotonically_from_one(self, tmp_path):
        journal = ServerWal(str(tmp_path))
        records = _fill(journal, 3)
        assert [r["seq"] for r in records] == [1, 2, 3]
        assert journal.seq == 3

    def test_unknown_op_is_rejected(self, tmp_path):
        journal = ServerWal(str(tmp_path))
        with pytest.raises(ValueError):
            journal.append("frobnicate")
        assert journal.seq == 0

    def test_append_after_close_is_rejected(self, tmp_path):
        journal = ServerWal(str(tmp_path))
        journal.close()
        with pytest.raises(RuntimeError):
            journal.append("update")


class TestRoundTrip:
    def test_snapshot_plus_tail_round_trips(self, tmp_path):
        journal = ServerWal(str(tmp_path))
        _fill(journal, 5)
        journal.write_snapshot({"seq": 3, "db": {}})
        journal.close()
        snapshot, tail = load_server_state(str(tmp_path))
        assert snapshot["seq"] == 3
        assert [r["seq"] for r in tail] == [4, 5]

    def test_no_checkpoint_means_full_tail(self, tmp_path):
        journal = ServerWal(str(tmp_path))
        _fill(journal, 4)
        journal.close()
        snapshot, tail = load_server_state(str(tmp_path))
        assert snapshot is None
        assert [r["seq"] for r in tail] == [1, 2, 3, 4]

    def test_torn_tail_is_skipped_and_repaired(self, tmp_path):
        journal = ServerWal(str(tmp_path))
        _fill(journal, 4)
        journal.close()
        wal_path = os.path.join(str(tmp_path), SERVER_WAL_FILENAME)
        size = os.path.getsize(wal_path)
        with open(wal_path, "ab") as handle:
            handle.truncate(size - 7)  # tear into the last record
        snapshot, tail = load_server_state(str(tmp_path), repair=True)
        assert [r["seq"] for r in tail] == [1, 2, 3]
        # The file now ends on a clean line again.
        with open(wal_path, "rb") as handle:
            assert handle.read().endswith(b"}\n")

    def test_start_seq_resumes_numbering(self, tmp_path):
        journal = ServerWal(str(tmp_path), start_seq=7)
        record = journal.append("update", i=0)
        assert record["seq"] == 8


class TestRetention:
    def test_records_since_returns_strict_suffix(self, tmp_path):
        journal = ServerWal(str(tmp_path))
        _fill(journal, 4)
        assert [r["seq"] for r in journal.records_since(2)] == [3, 4]
        assert journal.records_since(4) == []

    def test_checkpoint_trims_covered_records(self, tmp_path):
        journal = ServerWal(str(tmp_path))
        _fill(journal, 5)
        journal.write_snapshot({"seq": 4})
        assert journal.records_since(3) is None  # evicted
        assert [r["seq"] for r in journal.records_since(4)] == [5]

    def test_retain_floor_pins_records_past_checkpoint(self, tmp_path):
        journal = ServerWal(str(tmp_path))
        _fill(journal, 5)
        feed = ReplicaFeed(journal, threading.RLock(), snapshot=None)
        feed.attach("replica", 2)  # a replica has acknowledged through 2
        journal.write_snapshot({"seq": 4})
        # Everything past the slowest replica survives the trim.
        assert [r["seq"] for r in journal.records_since(2)] == [3, 4, 5]

    def test_clearing_the_floor_releases_history(self, tmp_path):
        journal = ServerWal(str(tmp_path))
        _fill(journal, 5)
        feed = ReplicaFeed(journal, threading.RLock(), snapshot=None)
        feed.attach("replica", 2)
        journal.write_snapshot({"seq": 4})
        feed.depart("replica", grace=0.0)  # gone, with no reconnect grace
        journal.write_snapshot({"seq": 5})
        assert journal.records_since(5) == []
        assert journal.records_since(4) is None


class TestMemoryOnly:
    def test_wal_path_requires_a_directory(self):
        journal = ServerWal(None)
        with pytest.raises(NotDurableError):
            journal.wal_path

    def test_memory_journal_still_streams_and_trims(self):
        journal = ServerWal(None)
        _fill(journal, 3)
        assert [r["seq"] for r in journal.records_since(0)] == [1, 2, 3]
        journal.write_snapshot({"seq": 3})
        assert journal.records_since(3) == []


class TestDurabilityPolicy:
    def test_flush_policy_is_readable_before_close(self, tmp_path):
        journal = ServerWal(str(tmp_path), sync="flush")
        _fill(journal, 3)
        wal_path = journal.wal_path
        with open(wal_path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert [r["seq"] for r in lines] == [1, 2, 3]

    def test_none_policy_may_buffer_until_close(self, tmp_path):
        journal = ServerWal(str(tmp_path), sync="none")
        _fill(journal, 3)
        journal.close()
        snapshot, tail = load_server_state(str(tmp_path))
        assert [r["seq"] for r in tail] == [1, 2, 3]

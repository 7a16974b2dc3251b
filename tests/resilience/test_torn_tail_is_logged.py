"""A torn journal tail is repaired in two places — the tolerant reader
under ``repair`` and the open-for-append cut — and each says so once:
the path, the bytes dropped, the last record kept (its ``seq`` where
records carry one, its line number in the database log)."""

import json
import logging
import os

from repro.geometry.vectors import Vector
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import New
from repro.replication import (
    SERVER_WAL_FILENAME,
    DurableQueryServer,
    load_server_state,
)
from repro.resilience.wal import WAL_FILENAME, WriteAheadLog, recover

WAL_LOG = "repro.resilience.wal"


def _new(oid, t):
    return New(oid, float(t), Vector([1.0, 0.0]), Vector([float(t), 0.0]))


def _messages(caplog):
    return [
        r.getMessage()
        for r in caplog.records
        if r.name == WAL_LOG and r.levelno == logging.WARNING
    ]


def _torn_database_log(directory, tear):
    with WriteAheadLog(directory) as wal:
        for i in range(3):
            wal.append(_new(f"o{i}", 1 + i))
    path = os.path.join(directory, WAL_FILENAME)
    os.truncate(path, os.path.getsize(path) - tear)
    with open(path, "rb") as handle:
        data = handle.read()
    return path, len(data) - (data.rfind(b"\n") + 1)


def test_the_reader_logs_its_repair_and_the_append_open_has_nothing_left(
    tmp_path, caplog
):
    path, torn = _torn_database_log(str(tmp_path), tear=5)
    with caplog.at_level(logging.WARNING, logger=WAL_LOG):
        db, _ = recover(str(tmp_path))
        WriteAheadLog(str(tmp_path)).close()
    assert sorted(db.object_ids) == ["o0", "o1"]
    assert _messages(caplog) == [
        f"{path}: torn tail repaired, {torn} bytes dropped, last good seq 2"
    ]


def test_without_repair_the_append_open_logs_the_cut(tmp_path, caplog):
    path, torn = _torn_database_log(str(tmp_path), tear=1)
    with caplog.at_level(logging.WARNING, logger=WAL_LOG):
        recover(str(tmp_path), repair=False)
        assert _messages(caplog) == [], "nothing repaired, nothing said"
        WriteAheadLog(str(tmp_path)).close()
    assert _messages(caplog) == [
        f"{path}: torn tail repaired, {torn} bytes dropped, last good seq 2"
    ]


def test_the_server_journal_reports_the_records_own_seq(tmp_path, caplog):
    directory = str(tmp_path)
    db = MovingObjectDatabase(initial_time=0.0)
    server = DurableQueryServer(db, directory=directory, checkpoint_interval=None)
    server.register_knn([0.0, 0.0], k=1)
    for i in range(3):
        db.apply(_new(f"o{i}", 1 + i))
    server.journal.close()
    # A journal that has been running a while: seqs are not line numbers.
    path = os.path.join(directory, SERVER_WAL_FILENAME)
    with open(path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    assert [r["seq"] for r in records] == [1, 2, 3, 4]
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            record["seq"] += 40
            handle.write(json.dumps(record) + "\n")
    os.truncate(path, os.path.getsize(path) - 1)
    with caplog.at_level(logging.WARNING, logger=WAL_LOG):
        _, tail = load_server_state(directory)
    assert [r["seq"] for r in tail] == [41, 42, 43]
    (message,) = _messages(caplog)
    assert message.startswith(f"{path}: torn tail repaired, ")
    assert message.endswith(" bytes dropped, last good seq 43")


def test_a_clean_log_says_nothing(tmp_path, caplog):
    with WriteAheadLog(str(tmp_path)) as wal:
        wal.append(_new("o0", 1))
    with caplog.at_level(logging.WARNING, logger=WAL_LOG):
        recover(str(tmp_path))
        WriteAheadLog(str(tmp_path)).close()
        load_server_state(str(tmp_path))
    assert _messages(caplog) == []

"""Each server snapshot cuts the journal records it covers.

``ServerWal.write_snapshot`` lands the snapshot (log fsync, temp file,
``os.replace``), fsyncs the directory, then truncates the log to zero
bytes and fsyncs it: recovery reads the tail, not the history, and the
log never holds more than ``checkpoint_interval`` records.  A crash
between the rename and the cut leaves a stale prefix that
``load_server_state`` skips by ``seq``.  The database
``WriteAheadLog`` is never cut: its ``recover()`` returns every intact
entry.
"""

import json
import os
import time

import pytest

from repro.core.api import serve
from repro.io import answer_to_dict
from repro.net import NetConfig, QueryNetServer, RemoteQueryClient
from repro.replication import DurableQueryServer, StandbyReplica, recover_server
from repro.replication import journal as journal_module
from repro.replication.journal import SERVER_WAL_FILENAME, load_server_state
from repro.resilience import wal as wal_module
from repro.resilience.wal import WAL_FILENAME, Journal, WriteAheadLog, recover
from repro.workloads.generator import UpdateStream, random_linear_mod

POINT = [0.0, 0.0]


def _base():
    return random_linear_mod(8, seed=5, extent=20.0, speed=3.0)


def _stream(n):
    return UpdateStream(
        _base(), seed=5, mean_gap=0.5, extent=20.0, speed=3.0
    ).run(n)


def _log_records(directory):
    with open(os.path.join(directory, SERVER_WAL_FILENAME), "rb") as handle:
        return [json.loads(line) for line in handle]


def _dump(answer):
    return json.dumps(answer_to_dict(answer), sort_keys=True)


def _mirror_close(updates, at):
    """An uninterrupted in-memory server over the same updates."""
    db = _base()
    server = serve(db)
    session = server.register_knn(POINT, k=2)
    for update in updates:
        db.apply(update)
    answer = session.close(at=at)
    server.shutdown()
    return answer


class _Crash(RuntimeError):
    pass


def test_the_log_holds_only_the_tail(tmp_path, monkeypatch):
    directory = str(tmp_path)
    db = _base()
    server = DurableQueryServer(db, directory=directory, checkpoint_interval=64)
    server.register_knn(POINT, k=2)
    for update in _stream(1000):
        db.apply(update)
    server.journal.close()
    records = _log_records(directory)
    snapshot_seq = server.journal.snapshot_seq
    assert snapshot_seq > 0
    assert len(records) <= 64
    assert all(record["seq"] > snapshot_seq for record in records)

    parsed = []

    def counting(data):
        parsed.append(data["seq"])
        return decode(data)

    decode = journal_module._decode_record
    monkeypatch.setattr(journal_module, "_decode_record", counting)
    snapshot, tail = load_server_state(directory)
    assert snapshot["seq"] == snapshot_seq
    assert parsed == [record["seq"] for record in records]
    assert [record["seq"] for record in tail] == parsed


def test_a_crash_between_the_rename_and_the_cut_recovers(tmp_path, monkeypatch):
    directory = str(tmp_path)
    updates = _stream(30)
    db = _base()
    server = DurableQueryServer(db, directory=directory, checkpoint_interval=8)
    session = server.register_knn(POINT, k=2)
    applied = 0
    for update in updates[:20]:
        db.apply(update)
        applied += 1

    def crash(self):
        raise _Crash("killed after the rename, before the cut")

    monkeypatch.setattr(Journal, "_cut_log", crash)
    with pytest.raises(_Crash):
        for update in updates[20:]:
            applied += 1
            db.apply(update)
    monkeypatch.undo()
    server.journal.close()

    # The new snapshot landed beside the records it covers.
    snapshot, tail = load_server_state(directory)
    stale = [r for r in _log_records(directory) if r["seq"] <= snapshot["seq"]]
    assert stale, "the crash must leave a stale prefix behind"
    assert tail == []

    recovered = recover_server(directory, checkpoint_on_recover=False)
    for update in updates[applied:]:
        recovered.db.apply(update)
    horizon = updates[-1].time + 1.0
    answer = recovered.session(session.session_id).close(at=horizon)
    assert _dump(answer) == _dump(_mirror_close(updates, horizon))
    recovered.journal.close()


def test_the_cut_follows_the_rename_and_a_directory_fsync(tmp_path, monkeypatch):
    journal = journal_module.ServerWal(str(tmp_path), sync="flush")
    for _ in range(3):
        journal.append("cancel", sid=1)
    log_fd = journal._handle.fileno()
    calls = []
    fsync, replace, ftruncate = os.fsync, os.replace, os.ftruncate
    fsync_directory = wal_module.fsync_directory

    def on_fsync(fd):
        if fd == log_fd:
            calls.append("log fsync")
        return fsync(fd)

    def on_replace(src, dst):
        calls.append("replace")
        return replace(src, dst)

    def on_directory(path):
        calls.append("directory fsync")
        return fsync_directory(path)

    def on_ftruncate(fd, length):
        if fd == log_fd:
            calls.append(f"cut to {length}")
        return ftruncate(fd, length)

    monkeypatch.setattr(os, "fsync", on_fsync)
    monkeypatch.setattr(os, "replace", on_replace)
    monkeypatch.setattr(os, "ftruncate", on_ftruncate)
    monkeypatch.setattr(wal_module, "fsync_directory", on_directory)
    journal.write_snapshot({"seq": journal.seq})
    monkeypatch.undo()
    assert calls == [
        "log fsync",
        "replace",
        "directory fsync",
        "cut to 0",
        "log fsync",
    ]
    # The append handle stays open and writes from the new start.
    journal.append("cancel", sid=2)
    journal.close()
    assert [r["seq"] for r in _log_records(str(tmp_path))] == [4]


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_a_promoted_standby_recovers_from_its_own_compacted_journal(tmp_path):
    db = random_linear_mod(6, seed=13, extent=20.0, speed=3.0)
    server = DurableQueryServer(db, checkpoint_interval=8)
    net = QueryNetServer(server, NetConfig(heartbeat_interval=0.05)).start(port=0)
    directory = str(tmp_path / "standby")
    sb = StandbyReplica(
        net.address, directory=directory, checkpoint_interval=8, poll_interval=0.01
    ).start()
    client = RemoteQueryClient(*net.address)
    try:
        session = client.open_knn(POINT, k=2)
        stream = UpdateStream(db, seed=13, extent=20.0, speed=3.0)
        for _ in range(30):
            stream.step()
        assert _wait(lambda: sb.applied_seq == server.journal.seq)
        net.kill()
        assert _wait(lambda: sb.primary_lost)
        sb.promote()
        mirror = sb.server
        promoted = UpdateStream(  # no New: its oids would repeat
            mirror.db, seed=14, extent=20.0, speed=3.0, weights=(0.0, 0.1, 0.9)
        )
        for _ in range(12):
            promoted.step()
        expected = mirror.session(session.session_id).members
        assert mirror.journal.snapshot_seq > 0
        mirror.journal.close()  # the standby dies here
        records = _log_records(directory)
        assert len(records) <= 8
        assert all(r["seq"] > mirror.journal.snapshot_seq for r in records)

        recovered = recover_server(directory, checkpoint_on_recover=False)
        assert recovered.recovered_tail == len(records)
        assert recovered.session(session.session_id).members == expected
        recovered.journal.close()
    finally:
        client.close()
        sb.kill()
        net.kill()


def test_the_database_wal_keeps_every_entry(tmp_path):
    directory = str(tmp_path)
    updates = _stream(20)
    db = _base()
    wal = WriteAheadLog(directory, sync="flush")
    db.subscribe(wal.append)
    for update in updates[:12]:
        db.apply(update)
    wal.checkpoint(db)
    for update in updates[12:]:
        db.apply(update)
    wal.close()
    with open(os.path.join(directory, WAL_FILENAME), "rb") as handle:
        assert len(handle.readlines()) == len(updates)
    recovered, log = recover(directory)
    assert list(log.updates) == list(updates)
    assert recovered.last_update_time == db.last_update_time

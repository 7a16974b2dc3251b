"""The durable formats, pinned as literals.

A directory written by an older build must recover under a newer one,
and an older standby must be able to follow a newer primary, so the
journal's ``open`` record and the snapshot's session entries are part
of the wire contract: key names, key order, and value types (``ks`` a
list, ``constants`` a list of floats, ``threshold`` already squared).
The golden lines below were written by the build that preceded the
``QuerySpec`` refactor.
"""

import json
from dataclasses import asdict

from repro.io import database_to_dict
from repro.mod.database import MovingObjectDatabase
from repro.replication import DurableQueryServer, recover_server
from repro.replication.journal import (
    SERVER_CHECKPOINT_FILENAME,
    SERVER_WAL_FILENAME,
)
from repro.server import ServerConfig

GD = (
    '{"type":"sqeuclid","trajectory":{"pieces":[{"velocity":[0.0,0.0],'
    '"offset":[0.0,0.5],"interval":["-inf","inf"]}]}}'
)
OPEN_LINES = [
    '{"seq":1,"op":"open","sid":1,"kind":"knn","gd":' + GD + ',"params":{"k":2},'
    '"constants":[],"priority":0,"shards":1,"state":"active","start":2.0}',
    '{"seq":2,"op":"open","sid":2,"kind":"within","gd":' + GD + ',"params":'
    '{"threshold":2.25},"constants":[2.25],"priority":1,"shards":1,'
    '"state":"active","start":2.0}',
    '{"seq":3,"op":"open","sid":3,"kind":"multiknn","gd":' + GD + ',"params":'
    '{"ks":[1,3]},"constants":[],"priority":0,"shards":2,"state":"active",'
    '"start":2.0}',
    '{"seq":4,"op":"open","sid":4,"kind":"knn","gd":' + GD + ',"params":{"k":1},'
    '"constants":[],"priority":0,"shards":1,"state":"queued","start":null}',
]
# Snapshot entries: the open record minus seq/op, plus the group clock.
SNAPSHOT_SESSIONS = [
    {
        **{k: v for k, v in json.loads(line).items() if k not in ("seq", "op")},
        "clock": clock,
    }
    for line, clock in zip(OPEN_LINES, (2.0, 2.0, 2.0, None))
]
SESSION_KEYS = [
    "sid", "kind", "gd", "params", "constants", "priority", "shards",
    "state", "start", "clock",
]  # fmt: skip

CONFIG = ServerConfig(max_sessions=3, admission_policy="queue")


def _db():
    db = MovingObjectDatabase(initial_time=0.0)
    db.create("a", 1.0, position=[1.0, 0.0], velocity=[0.5, 0.0])
    db.create("b", 2.0, position=[0.0, 3.0], velocity=[0.0, -0.25])
    return db


def _serve(directory):
    server = DurableQueryServer(
        _db(), CONFIG, directory=str(directory), checkpoint_interval=None
    )
    server.register_knn([0.0, 0.5], k=2)
    server.register_within([0.0, 0.5], 1.5, priority=1)
    server.register_multiknn([0.0, 0.5], [3, 1, 3], shards=2)
    server.register_knn([0.0, 0.5], k=1)  # over budget: queued
    return server


def test_open_records_are_written_byte_for_byte(tmp_path):
    _serve(tmp_path)
    with open(tmp_path / SERVER_WAL_FILENAME, encoding="utf-8") as handle:
        assert handle.read().splitlines() == OPEN_LINES


def test_snapshot_session_entries_keep_names_order_and_types(tmp_path):
    _serve(tmp_path).checkpoint()
    with open(tmp_path / SERVER_CHECKPOINT_FILENAME, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    assert snapshot["sessions"] == SNAPSHOT_SESSIONS
    assert all(list(entry) == SESSION_KEYS for entry in snapshot["sessions"])
    assert snapshot["pending"] == [4]
    within = snapshot["sessions"][1]
    assert isinstance(within["params"]["threshold"], float)
    assert isinstance(within["constants"][0], float)
    assert isinstance(snapshot["sessions"][2]["params"]["ks"], list)


def _assert_recovered(server, tmp_path):
    specs = [
        (s.kind, s.query.params, s.query.constants, s.priority, s.shards, s.state)
        for s in server.sessions()
    ]
    assert specs == [
        ("knn", {"k": 2}, (), 0, 1, "active"),
        ("within", {"threshold": 2.25}, (2.25,), 1, 1, "active"),
        ("multiknn", {"ks": [1, 3]}, (), 0, 2, "active"),
        ("knn", {"k": 1}, (), 0, 1, "queued"),
    ]
    live = _serve(tmp_path / "live")
    for sid in (1, 2, 3):
        assert server.session(sid).members == live.session(sid).members


def test_golden_journal_recovers(tmp_path):
    """Records as the previous build wrote them, replayed from the tail."""
    baseline = {
        "format": 1, "seq": 0, "db": database_to_dict(_db()), "next_sid": 1,
        "config": {}, "sessions": [], "pending": [], "terminal": [],
        "replies": {},
    }  # fmt: skip
    with open(tmp_path / SERVER_CHECKPOINT_FILENAME, "w") as handle:
        json.dump(baseline, handle)
    with open(tmp_path / SERVER_WAL_FILENAME, "w") as handle:
        handle.write("\n".join(OPEN_LINES) + "\n")
    recovered = recover_server(str(tmp_path), config=CONFIG)
    assert recovered.recovered_tail == 4
    _assert_recovered(recovered, tmp_path)
    recovered.shutdown()


def test_golden_snapshot_recovers(tmp_path):
    """Session entries as the previous build snapshotted them."""
    snapshot = {
        "format": 1, "seq": 4, "db": database_to_dict(_db()), "next_sid": 5,
        "config": asdict(CONFIG), "sessions": SNAPSHOT_SESSIONS,
        "pending": [4], "terminal": [], "replies": {},
    }  # fmt: skip
    with open(tmp_path / SERVER_CHECKPOINT_FILENAME, "w") as handle:
        json.dump(snapshot, handle)
    recovered = recover_server(str(tmp_path))
    assert recovered.recovered_tail == 0
    _assert_recovered(recovered, tmp_path)
    recovered.shutdown()

"""One restore path, one replay loop.

Crash recovery (:func:`recover_server`) and standby bootstrap both go
through :meth:`DurableQueryServer.restore`; the standby's streamed
frames and its resume suffix both go through one
skip-duplicates / apply / advance-the-watermark loop.
"""

import os

from repro.replication import DurableQueryServer, StandbyReplica, recover_server
from repro.replication.journal import load_server_state
from repro.workloads.generator import UpdateStream, random_linear_mod


def _served(directory):
    db = random_linear_mod(6, seed=11, extent=20.0, speed=3.0)
    server = DurableQueryServer(
        db, directory=directory, checkpoint_interval=None
    )
    session = server.register_knn([0.0, 0.0], k=2)
    stream = UpdateStream(db, seed=11, extent=20.0, speed=3.0)
    for _ in range(5):
        stream.step()
    return server, session


def test_restore_is_what_recover_server_does(tmp_path):
    directory = str(tmp_path / "primary")
    server, session = _served(directory)
    expected = session.members
    snapshot, tail = load_server_state(directory)
    assert tail, "the scenario must leave a journal tail to replay"

    mirror = DurableQueryServer.restore(
        snapshot, tail, str(tmp_path / "mirror"), checkpoint=False
    )
    assert mirror.recovered_tail == len(tail)
    assert mirror.session(session.session_id).members == expected
    assert not mirror._recovering
    # checkpoint=False persisted nothing yet; the default does.
    assert not os.path.exists(mirror.journal.checkpoint_path)

    recovered = recover_server(directory)
    assert recovered.recovered_tail == len(tail)
    assert recovered.session(session.session_id).members == expected
    assert os.path.exists(recovered.journal.checkpoint_path)
    assert load_server_state(directory)[1] == []
    for each in (server, mirror, recovered):
        each.journal.close()


def test_restore_without_a_snapshot_starts_empty():
    server = DurableQueryServer.restore(None, (), None)
    assert server.db.object_count == 0
    assert server.recovered_tail == 0
    assert server.journal.seq == 0
    server.shutdown()


def test_replay_loop_skips_duplicates_and_advances_per_record():
    standby = StandbyReplica(("127.0.0.1", 1))
    applied = []
    standby._apply = applied.append
    standby._applied_seq = 4
    records = [{"seq": seq} for seq in (3, 4, 5, 6)]
    assert standby._apply_records(records) is True
    assert applied == [{"seq": 5}, {"seq": 6}]
    assert standby.applied_seq == 6
    # A resume overlap re-sends what is already applied: nothing moves.
    assert standby._apply_records(records) is False
    assert len(applied) == 2

    def failing(record):
        raise RuntimeError("apply failed")

    standby._apply = failing
    try:
        standby._apply_records([{"seq": 7}])
    except RuntimeError:
        pass
    assert standby.applied_seq == 6  # a failed record is not acknowledged

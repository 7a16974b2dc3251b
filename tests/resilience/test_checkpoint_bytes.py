"""A checkpoint is one C-encoded write, byte-identical to the streamed
encoder's output.

``replace_json`` writes ``json.dumps(data)`` once: only a one-shot
``dumps`` runs the C encoder (``json.dump`` streams through the
pure-Python one).  Both use the default separators and escaping, so a
snapshot file is the same bytes either way; the formats test pins what
those bytes hold.
"""

import json

from repro.replication import DurableQueryServer
from repro.resilience.wal import replace_json
from repro.workloads.generator import UpdateStream, random_linear_mod


def _snapshot() -> dict:
    db = random_linear_mod(30, seed=4, extent=20.0, speed=3.0)
    server = DurableQueryServer(db, checkpoint_interval=None)
    server.register_knn([0.0, 0.5], k=3)
    server.register_within([1.0, -2.0], 6.5, priority=1)
    server.register_multiknn([0.0, 0.5], [3, 1], shards=2)
    UpdateStream(db, seed=4, extent=20.0, speed=3.0).run(40)
    data = server.snapshot_state()
    # Values the encoder escapes or spells specially.
    data["extra"] = {"é\n\"quoted\"": [-0.0, 1e-300, 2.5e17, True, None]}
    return data


def test_a_snapshot_is_written_byte_for_byte_as_the_streamed_encoder_writes_it(
    tmp_path,
):
    data = _snapshot()
    path = str(tmp_path / "snapshot.json")
    replace_json(path, data)
    with open(tmp_path / "streamed.json", "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    with open(path, "rb") as once, open(tmp_path / "streamed.json", "rb") as streamed:
        assert once.read() == streamed.read()

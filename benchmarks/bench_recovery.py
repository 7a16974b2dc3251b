"""E-REC: crash-recovery replay cost vs WAL-tail length.

Theorem 5 re-initialization says a killed server is reconstructible
from (snapshot, journal tail); the operational question is what that
reconstruction *costs*.  This benchmark crashes the same durable
serving workload after checkpointing at different moments, so
recovery replays tails of different lengths over an identical update
history, and reports per tail length:

- the replayed tail (journal records re-read and updates re-applied —
  exact, seeded, linear in the tail by construction);
- total recovery primitive sweep ops, and their ratio to what the
  uninterrupted live server paid ingesting the same 64 updates.

The measured shape is itself the finding: a recovered server builds
its engine groups *at the snapshot's clock* (one Theorem 5
initialization per group) and replays the tail — it never re-sweeps
the history before the snapshot, so recovery ops grow with the tail and
stay below what live ingestion of the whole stream cost.  What a
session's answer window holds before the snapshot's clock is a pruned
past query (Theorem 4) paid by that session's close, if it closes;
``scripts/perf_gate.py`` prices it next to these numbers
(``close_past_ops_*``).  Every metric is an op or record count, never
wall-clock, so the table is bit-stable across machines.  Correctness
rides along:
each recovered server's sessions must close to the same answers as an
uninterrupted in-process mirror of the full history.
"""

from repro.bench.harness import format_table
from repro.core.api import serve
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.io import answer_to_dict
from repro.replication import DurableQueryServer, recover_server
from repro.workloads.generator import UpdateStream, random_linear_mod

from _support import publish_table

OBJECTS = 48
UPDATES = 64
SEED = 29
TAILS = (0, 4, 8, 16, 32, 48)
ORIGIN = SquaredEuclideanDistance([0.0, 0.0])

SESSION_SPECS = (
    ("knn", {"k": 2}),
    ("within", {"threshold": 900.0}),
    ("multiknn", {"ks": (1, 3)}),
)


def _build_db():
    return random_linear_mod(OBJECTS, seed=SEED, extent=80.0, speed=4.0)


def _recorded_updates():
    """One seeded update history, replayable bit-for-bit everywhere."""
    scratch = _build_db()
    updates = []
    scratch.subscribe(updates.append)
    UpdateStream(
        scratch, seed=SEED + 1, extent=80.0, speed=4.0
    ).run(UPDATES)
    return updates, scratch.last_update_time + 1.0


def _register(server):
    sessions = []
    for kind, params in SESSION_SPECS:
        if kind == "knn":
            sessions.append(server.register_knn(ORIGIN, k=params["k"]))
        elif kind == "within":
            sessions.append(
                server.register_within(ORIGIN, params["threshold"])
            )
        else:
            sessions.append(server.register_multiknn(ORIGIN, params["ks"]))
    return sessions


def _close_all(sessions, horizon):
    return [s.close(at=horizon) for s in sessions]


def _assert_answers_equal(got, want):
    for g, w in zip(got, want):
        if isinstance(w, dict):
            assert set(g) == set(w)
            for k in w:
                assert answer_to_dict(g[k]) == answer_to_dict(w[k])
        else:
            assert answer_to_dict(g) == answer_to_dict(w)


def _live_ingest_ops(updates):
    """Primitive ops the uninterrupted server pays for the history."""
    server = DurableQueryServer(_build_db(), checkpoint_interval=None)
    _register(server)
    for update in updates:
        server.db.apply(update)
    ops = server.primitive_ops()
    server.shutdown()
    return ops


def _crash_and_recover(tail, updates, directory):
    """Run the workload, checkpoint ``tail`` updates before the end,
    crash, and recover.  Returns the recovered server."""
    server = DurableQueryServer(
        _build_db(),
        directory=directory,
        sync="flush",
        checkpoint_interval=None,
    )
    _register(server)
    cut = len(updates) - tail
    for i, update in enumerate(updates):
        server.db.apply(update)
        if i + 1 == cut:
            server.checkpoint()
    # Simulated kill: the journal handle dies mid-flight; the process
    # state is abandoned exactly as a crash would leave it.
    server.journal.close()
    return recover_server(directory, checkpoint_on_recover=False)


def test_recovery_replay_scales_with_tail(benchmark, tmp_path):
    updates, horizon = _recorded_updates()

    mirror = serve(_build_db())
    mirror_sessions = _register(mirror)
    for update in updates:
        mirror.db.apply(update)
    want = _close_all(mirror_sessions, horizon)
    mirror.shutdown()

    live_ops = _live_ingest_ops(updates)

    def sweep():
        rows = []
        for tail in TAILS:
            recovered = _crash_and_recover(
                tail, updates, str(tmp_path / f"tail-{tail}")
            )
            replayed = recovered.recovered_tail
            assert replayed == tail, (tail, replayed)
            assert recovered.stats.updates == tail
            ops = recovered.primitive_ops()
            got = _close_all(recovered.sessions(), horizon)
            _assert_answers_equal(got, want)
            recovered.shutdown()
            rows.append((tail, replayed, ops, ops / live_ops))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    publish_table(
        "recovery_replay",
        format_table(
            ["tail", "replayed", "recovery ops", "x live ingest"],
            rows,
            title=(
                f"E-REC: recovery replay cost, {OBJECTS} objects, "
                f"{UPDATES} updates, {len(SESSION_SPECS)} sessions, "
                f"live ingest {live_ops} ops (seed {SEED})"
            ),
        ),
    )
    # Recovery is initialization at the snapshot's clock plus the
    # tail's maintenance: it grows with the tail and never reaches the
    # cost of having ingested the whole history.
    ops = [row[2] for row in rows]
    assert ops == sorted(ops), ops
    for tail, _, _, ratio in rows:
        assert ratio <= 1.0, (tail, ratio)

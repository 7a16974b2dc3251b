"""DurableQueryServer: journaled serving, crash recovery, admission.

The differential classes are the Theorem 5 acceptance gate: a server
that is repeatedly crashed and rebuilt from its (checkpoint, WAL-tail)
pair must be answer-for-answer indistinguishable from the
uninterrupted in-process server and the naive baseline — and a WAL
whose tail was torn at an arbitrary byte offset must recover the
surviving prefix exactly.
"""

import pytest

from repro.gdist.base import GDistance
from repro.replication import (
    DurableQueryServer,
    NotDurableError,
    recover_server,
)
from repro.workloads.chaos import run_truncation_chaos
from repro.workloads.generator import random_linear_mod
from tests._oracle import (
    KNN,
    MULTIKNN,
    WITHIN,
    answers_equal,
    assert_probes_equal,
    generate_scenario,
    run_naive,
    run_recovered_server,
    run_server,
)

MODES = (KNN, WITHIN, MULTIKNN)
CLEAN_SEEDS = range(8)
TORN_SEEDS = range(12)


class TestRecoveryDifferential:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", CLEAN_SEEDS)
    def test_crashed_and_recovered_matches_naive_and_server(
        self, seed, mode
    ):
        sc = generate_scenario(seed)
        naive_final, naive_probes = run_naive(sc, mode)
        server_final, server_probes = run_server(sc, mode)
        rec_final, rec_probes = run_recovered_server(sc, mode)
        label = f"seed={seed} mode={mode}"
        assert answers_equal(rec_final, naive_final), f"{label}: vs naive"
        assert answers_equal(rec_final, server_final), f"{label}: vs server"
        assert_probes_equal(rec_probes, naive_probes, f"{label} vs naive")
        assert_probes_equal(rec_probes, server_probes, f"{label} vs server")

    @pytest.mark.parametrize("mode", MODES)
    def test_recovery_composes_with_shards(self, mode):
        """Sessions opened with a ``shards`` label (journaled in their
        ``open`` records, ignored by the engines) recover like any."""
        sc = generate_scenario(5)
        naive_final, naive_probes = run_naive(sc, mode)
        rec_final, rec_probes = run_recovered_server(sc, mode, shards=2)
        assert answers_equal(rec_final, naive_final)
        assert_probes_equal(rec_probes, naive_probes, f"shards=2 {mode}")

    @pytest.mark.parametrize("sync", ("none", "flush", "fsync"))
    def test_recovery_holds_under_every_sync_policy(self, sync):
        # In-process "crashes" leave the handle intact, so even
        # sync="none" recovers the full journal; the point is that the
        # policy knob composes with recovery, torn tails are exercised
        # by the truncation chaos below.
        sc = generate_scenario(3)
        naive_final, _ = run_naive(sc, KNN)
        rec_final, _ = run_recovered_server(sc, KNN, sync=sync)
        assert answers_equal(rec_final, naive_final)


class TestTornTailRecovery:
    @pytest.mark.parametrize("seed", TORN_SEEDS)
    def test_truncated_wal_recovers_surviving_prefix(self, seed, tmp_path):
        report = run_truncation_chaos(seed, directory=str(tmp_path))
        assert report.ok, (
            f"seed={seed} cut={report.cut_bytes}B: {report.mismatches}"
        )

class TestDurabilityAdmission:
    def test_opaque_gdistance_is_refused_before_state_changes(self):
        db = random_linear_mod(6, seed=11, extent=20.0, speed=3.0)
        server = DurableQueryServer(db)

        class Opaque(GDistance):
            def __call__(self, trajectory):
                raise NotImplementedError

        before = server.journal.seq
        with pytest.raises(NotDurableError):
            server.register_knn(Opaque(), k=1)
        assert server.journal.seq == before, "refusal was journaled"
        assert list(server.sessions()) == [], "refusal leaked a session"
        server.shutdown()

    def test_durable_registration_is_journaled(self):
        db = random_linear_mod(6, seed=11, extent=20.0, speed=3.0)
        server = DurableQueryServer(db)
        server.register_knn([0.0, 0.0], k=1)
        assert server.journal.seq == 1
        server.shutdown()


class TestCheckpointing:
    def test_interval_bounds_the_replay_tail(self, tmp_path):
        db = random_linear_mod(6, seed=3, extent=20.0, speed=3.0)
        server = DurableQueryServer(
            db, directory=str(tmp_path), checkpoint_interval=4
        )
        server.register_knn([0.0, 0.0], k=2)
        from repro.workloads.generator import UpdateStream

        stream = UpdateStream(db, seed=3, extent=20.0, speed=3.0)
        for _ in range(20):
            stream.step()
        assert server.journal.tail_length < 4 + 2, (
            "periodic checkpoints should keep the tail near the interval"
        )
        server.shutdown()

    def test_recovered_tail_counts_replayed_records(self, tmp_path):
        db = random_linear_mod(6, seed=5, extent=20.0, speed=3.0)
        server = DurableQueryServer(
            db, directory=str(tmp_path), checkpoint_interval=None
        )
        server.checkpoint()
        server.register_knn([0.0, 0.0], k=1)
        from repro.workloads.generator import UpdateStream

        stream = UpdateStream(db, seed=5, extent=20.0, speed=3.0)
        for _ in range(6):
            stream.step()
        expected_tail = server.journal.seq - server.journal.snapshot_seq
        recovered = recover_server(str(tmp_path))
        assert recovered.recovered_tail == expected_tail == 7
        recovered.shutdown()

    def test_closed_answer_survives_recovery(self, tmp_path):
        db = random_linear_mod(6, seed=8, extent=20.0, speed=3.0)
        server = DurableQueryServer(db, directory=str(tmp_path))
        server.checkpoint()
        session = server.register_knn([0.0, 0.0], k=2)
        from repro.workloads.generator import UpdateStream

        stream = UpdateStream(db, seed=8, extent=20.0, speed=3.0)
        for _ in range(4):
            stream.step()
        final = session.close(at=db.last_update_time)
        recovered = recover_server(str(tmp_path))
        replayed = recovered.session(session.session_id)
        assert replayed.state == "closed"
        assert final.approx_equals(replayed.answer, atol=1e-6)
        recovered.shutdown()
        server.shutdown()

    def test_installed_mod_recovers_before_the_first_checkpoint(
        self, tmp_path
    ):
        """Objects placed by ``install()`` are in no journal record: a
        fresh durable server snapshots them as its baseline (consuming
        no seq), so a crash before any checkpoint still recovers."""
        from repro.io import database_to_dict
        from repro.workloads.generator import UpdateStream

        db = random_linear_mod(6, seed=11, extent=20.0, speed=3.0)
        server = DurableQueryServer(
            db, directory=str(tmp_path), checkpoint_interval=None
        )
        assert server.journal.seq == 0 and server.journal.tail_length == 0
        session = server.register_knn([0.0, 0.0], k=2)
        stream = UpdateStream(db, seed=11, extent=20.0, speed=3.0)
        for _ in range(5):
            stream.step()  # chdirs of installed objects among them
        assert server.journal.tail_length == 6
        # Crash: no shutdown, no further checkpoint.
        recovered = recover_server(str(tmp_path))
        assert recovered.recovered_tail == 6
        assert database_to_dict(recovered.db) == database_to_dict(db)
        at = db.last_update_time
        assert answers_equal(
            recovered.session(session.session_id).close(at=at),
            session.close(at=at),
        )
        recovered.shutdown()
        server.shutdown()

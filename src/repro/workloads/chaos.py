"""Seeded chaos harness for durable serving and failover.

Each scenario drives the *whole* durable serving stack — a
:class:`~repro.replication.DurableQueryServer` primary behind a
:class:`~repro.net.QueryNetServer`, a :class:`~repro.replication.StandbyReplica`
streaming its journal, and a failover-aware
:class:`~repro.net.RemoteQueryClient` — through a reproducible update
stream while injecting exactly one of the faults the stack claims to
survive:

- **primary kill** (:func:`run_failover_chaos`) — the primary dies
  abruptly (no drain, no checkpoint) at a seeded update index; the
  standby auto-promotes and the client's in-flight session must keep
  probing and closing with *bit-identical* answers;
- **torn WAL tail** (:func:`run_truncation_chaos`) — a crashed
  primary's server WAL is truncated at a seeded byte offset
  (simulating a torn final write); recovery must succeed on the
  surviving prefix and match a mirror that only ever saw the
  surviving updates;
- **replication frame loss** (``drop_link_every`` on
  :func:`run_failover_chaos`) — the standby's replication link is cut
  mid-stream (TCP frame loss *is* connection loss); the pump must
  resume from its applied watermark with no record applied twice.

Every scenario is verified **three ways**: the chaos path's probe
sets and final answer against an uninterrupted in-process mirror
server, and both against the naive O(N^2) baseline recomputed from
trajectories.  A scenario passes only when all three agree.
"""

from __future__ import annotations

import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.baselines.naive import naive_knn_answer, naive_within_answer
from repro.geometry.intervals import Interval
from repro.geometry.vectors import Vector
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New, Terminate, Update

# Same irrational probe fraction the differential oracle uses: probes
# never coincide with update timestamps, so instant sets are exact.
PROBE_FRACTION = 0.41421356237309515

ANSWER_ATOL = 1e-5

KNN = "knn"
WITHIN = "within"
MULTIKNN = "multiknn"
MODES = (KNN, WITHIN, MULTIKNN)


# ---------------------------------------------------------------------------
# Seeded scenarios
# ---------------------------------------------------------------------------
@dataclass
class ChaosScenario:
    """One reproducible chaos scenario."""

    seed: int
    initial: List[New]
    stream: List[Update]
    start: float
    horizon: float
    point: Tuple[float, float]
    k: int
    ks: Tuple[int, ...]
    threshold: float
    mode: str  # which session the probes follow
    kill_after: int  # primary dies after this many stream updates

    def gdistance(self) -> SquaredEuclideanDistance:
        return SquaredEuclideanDistance(list(self.point))

    def build_db(self) -> MovingObjectDatabase:
        db = MovingObjectDatabase(initial_time=0.0)
        for update in self.initial:
            db.apply(update)
        return db

    def schedule(self) -> List[Tuple[Update, Optional[float]]]:
        out: List[Tuple[Update, Optional[float]]] = []
        for i, update in enumerate(self.stream):
            nxt = (
                self.stream[i + 1].time
                if i + 1 < len(self.stream)
                else self.horizon
            )
            probe = update.time + PROBE_FRACTION * (nxt - update.time)
            out.append((update, probe if probe < self.horizon else None))
        return out


def generate_chaos_scenario(seed: int) -> ChaosScenario:
    """A reproducible scenario: 5-8 objects, 6-10 updates, one seeded
    kill point strictly inside the stream (so some probes cross the
    wire before the kill and some after the failover)."""
    rng = random.Random(seed)
    objects = rng.randint(5, 8)
    initial = [
        New(
            f"o{i}",
            0.001 * (i + 1),
            velocity=Vector.of(rng.uniform(-4, 4), rng.uniform(-4, 4)),
            position=Vector.of(rng.uniform(-20, 20), rng.uniform(-20, 20)),
        )
        for i in range(objects)
    ]
    live = [u.oid for u in initial]
    born = 0
    stream: List[Update] = []
    t = 1.0
    for _ in range(rng.randint(6, 10)):
        t += rng.uniform(0.4, 2.0)
        choice = rng.random()
        if choice < 0.22:
            born += 1
            oid = f"n{born}"
            stream.append(
                New(
                    oid,
                    t,
                    velocity=Vector.of(rng.uniform(-4, 4), rng.uniform(-4, 4)),
                    position=Vector.of(
                        rng.uniform(-20, 20), rng.uniform(-20, 20)
                    ),
                )
            )
            live.append(oid)
        elif choice < 0.37 and len(live) > 2:
            oid = live.pop(rng.randrange(len(live)))
            stream.append(Terminate(oid, t))
        else:
            stream.append(
                ChangeDirection(
                    rng.choice(live),
                    t,
                    Vector.of(rng.uniform(-4, 4), rng.uniform(-4, 4)),
                )
            )
    return ChaosScenario(
        seed=seed,
        initial=initial,
        stream=stream,
        start=0.001 * objects,
        horizon=t + rng.uniform(1.0, 3.0),
        point=(rng.uniform(-5, 5), rng.uniform(-5, 5)),
        k=rng.randint(1, 3),
        ks=tuple(sorted(rng.sample([1, 2, 3, 4], rng.randint(2, 3)))),
        threshold=rng.uniform(16.0, 400.0),
        mode=MODES[rng.randrange(len(MODES))],
        kill_after=rng.randint(1, max(1, len(stream) - 2)),
    )


# ---------------------------------------------------------------------------
# Reference paths (mirror + naive)
# ---------------------------------------------------------------------------
def _naive_final(db, sc: ChaosScenario):
    gd = sc.gdistance()
    window = Interval(sc.start, sc.horizon)
    if sc.mode == KNN:
        return naive_knn_answer(db, gd, window, sc.k)
    if sc.mode == WITHIN:
        return naive_within_answer(db, gd, window, sc.threshold)
    return {k: naive_knn_answer(db, gd, window, k) for k in sc.ks}


def run_mirror(sc: ChaosScenario):
    """Uninterrupted in-process mirror: final answer + probe sets from
    a plain :class:`~repro.server.QueryServer` that never crashes."""
    from repro.core.api import serve

    db = sc.build_db()
    gd = sc.gdistance()
    server = serve(db)
    sessions = {
        KNN: server.register_knn(gd, k=sc.k),
        WITHIN: server.register_within(gd, sc.threshold),
        MULTIKNN: server.register_multiknn(gd, sc.ks),
    }
    session = sessions[sc.mode]
    probes: List[Tuple[float, Union[Set, Dict[int, Set]]]] = []
    try:
        for update, probe in sc.schedule():
            db.apply(update)
            if probe is not None:
                members = session.advance_to(probe)
                if sc.mode == MULTIKNN:
                    probes.append(
                        (probe, {k: set(members[k]) for k in sc.ks})
                    )
                else:
                    probes.append((probe, set(members)))
        final = session.close(at=sc.horizon)
        for other in sessions.values():
            if other is not session:
                other.close(at=sc.horizon)
    finally:
        server.shutdown()
    return final, probes


def _answers_equal(a, b, atol: float = ANSWER_ATOL) -> bool:
    if isinstance(a, dict) or isinstance(b, dict):
        return set(a) == set(b) and all(
            a[k].approx_equals(b[k], atol=atol) for k in a
        )
    return a.approx_equals(b, atol=atol)


# ---------------------------------------------------------------------------
# Failover chaos
# ---------------------------------------------------------------------------
@dataclass
class ChaosReport:
    """What one chaos run did and whether all three paths agreed."""

    seed: int
    mode: str
    kill_after: int
    updates: int
    probes: int
    probes_after_kill: int
    failovers: int
    promoted_seconds: float
    replicated_seq: int
    link_cuts: int
    agree_mirror: bool
    agree_naive: bool
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.agree_mirror and self.agree_naive and not self.mismatches


def run_failover_chaos(
    seed: int,
    promote_timeout: float = 10.0,
    drop_link_every: Optional[int] = None,
    directory: Optional[str] = None,
) -> ChaosReport:
    """Kill the primary at the scenario's seeded update index and
    verify the client-observed history three ways.

    ``drop_link_every=n`` additionally cuts the standby's replication
    link after every ``n`` applied stream updates *before* the kill —
    TCP frame loss is connection loss — forcing resume-from-watermark
    re-attaches on top of the eventual failover.
    """
    from repro.net import NetConfig, QueryNetServer, RemoteQueryClient
    from repro.replication import DurableQueryServer, StandbyReplica

    sc = generate_chaos_scenario(seed)
    workdir = directory or tempfile.mkdtemp(prefix="chaos-")
    db = sc.build_db()
    primary = DurableQueryServer(
        db, directory=f"{workdir}/primary", checkpoint_interval=4
    )
    net = QueryNetServer(
        primary, NetConfig(heartbeat_interval=0.05)
    ).start(port=0)
    standby = StandbyReplica(
        net.address,
        directory=f"{workdir}/standby",
        seed=seed,
        auto_promote=True,
        poll_interval=0.02,
        backoff=0.02,
    ).start()
    client = RemoteQueryClient(
        endpoints=[net.address, standby.address],
        seed=seed,
        retries=6,
        backoff=0.02,
    )
    report = ChaosReport(
        seed=seed,
        mode=sc.mode,
        kill_after=sc.kill_after,
        updates=len(sc.stream),
        probes=0,
        probes_after_kill=0,
        failovers=0,
        promoted_seconds=0.0,
        replicated_seq=0,
        link_cuts=0,
        agree_mirror=False,
        agree_naive=False,
    )
    try:
        gd_point = list(sc.point)
        sessions = {
            KNN: client.open_knn(gd_point, k=sc.k),
            WITHIN: client.open_within(gd_point, threshold=sc.threshold),
            MULTIKNN: client.open_multiknn(gd_point, ks=list(sc.ks)),
        }
        session = sessions[sc.mode]
        probes: List[Tuple[float, Union[Set, Dict[int, Set]]]] = []
        killed = False
        live_db = db
        for i, (update, probe) in enumerate(sc.schedule()):
            live_db.apply(update)
            if (
                not killed
                and drop_link_every
                and (i + 1) % drop_link_every == 0
            ):
                # Frame loss: cut the replication link; the pump must
                # resume from its applied watermark.
                if standby.cut_link():
                    report.link_cuts += 1
            if not killed and (i + 1) == sc.kill_after:
                report.replicated_seq = standby.applied_seq
                net.kill()
                killed = True
                t0 = time.monotonic()
                deadline = t0 + promote_timeout
                while (
                    not standby.is_promoted
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                report.promoted_seconds = time.monotonic() - t0
                if not standby.is_promoted:
                    report.mismatches.append("standby never promoted")
                    return report
                # The promoted standby's MOD is the live database now.
                live_db = standby.server.db
            if probe is not None:
                members = session.advance_to(probe)
                report.probes += 1
                if killed:
                    report.probes_after_kill += 1
                if sc.mode == MULTIKNN:
                    probes.append(
                        (probe, {k: set(members[k]) for k in sc.ks})
                    )
                else:
                    probes.append((probe, set(members)))
        final = session.close(at=sc.horizon)
        for other in sessions.values():
            if other is not session:
                other.close(at=sc.horizon)
        report.failovers = client.failovers

        mirror_final, mirror_probes = run_mirror(sc)
        report.agree_mirror = _answers_equal(final, mirror_final)
        if not report.agree_mirror:
            report.mismatches.append("final answer != mirror")
        if len(probes) != len(mirror_probes):
            report.mismatches.append("probe count != mirror")
        else:
            for (t1, m1), (t2, m2) in zip(probes, mirror_probes):
                if t1 != t2 or m1 != m2:
                    report.mismatches.append(
                        f"probe at t={t1} diverged from mirror"
                    )
        naive_db = sc.build_db()
        for update in sc.stream:
            naive_db.apply(update)
        report.agree_naive = _answers_equal(final, _naive_final(naive_db, sc))
        if not report.agree_naive:
            report.mismatches.append("final answer != naive baseline")
        return report
    finally:
        client.close()
        standby.close()
        if not net._closed:
            net.close()


# ---------------------------------------------------------------------------
# Torn-tail truncation chaos
# ---------------------------------------------------------------------------
@dataclass
class TruncationReport:
    """One torn-WAL-tail recovery run."""

    seed: int
    mode: str
    cut_bytes: int  # bytes sliced off the WAL tail
    records_before: int
    records_after: int
    recovered_tail: int
    agree_mirror: bool
    agree_naive: bool
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.agree_mirror and self.agree_naive and not self.mismatches


def run_truncation_chaos(
    seed: int, directory: Optional[str] = None
) -> TruncationReport:
    """Crash a durable server mid-stream, tear its WAL tail at a seeded
    byte offset, recover, and verify the recovered server's final
    answer against a mirror (and the naive baseline) that only ever
    saw the updates the durable state preserved.

    The tear removes a byte suffix, so the surviving records are a
    prefix of the journal; the recovered history is then exactly
    (updates the last checkpoint covers) + (update records in the
    surviving WAL tail) — a prefix of the applied update stream.  Each
    checkpoint cuts the records it covers from the log, so the run
    notes the ``seq`` of the ``open`` and of every update as it
    journals them and counts survivors from those.  The mirror
    registers its session up front (same back-dated window) and
    applies only that prefix.
    """
    import os

    from repro.core.api import serve
    from repro.replication import DurableQueryServer, recover_server
    from repro.replication.journal import load_server_state

    sc = generate_chaos_scenario(seed)
    rng = random.Random(seed ^ 0x5EED)
    workdir = directory or tempfile.mkdtemp(prefix="chaos-trunc-")
    db = sc.build_db()
    gd = sc.gdistance()
    server = DurableQueryServer(
        db, directory=workdir, sync="flush", checkpoint_interval=4
    )
    server.checkpoint()
    session = {
        KNN: lambda: server.register_knn(gd, k=sc.k),
        WITHIN: lambda: server.register_within(gd, sc.threshold),
        MULTIKNN: lambda: server.register_multiknn(gd, sc.ks),
    }[sc.mode]()
    open_seq = server.journal.seq
    update_seqs = []
    for update, probe in sc.schedule()[: sc.kill_after]:
        db.apply(update)
        update_seqs.append(server.journal.seq)
        if probe is not None:
            session.advance_to(probe)
    # Crash: close the journal handle (no flush owed under
    # sync="flush"), then tear the on-disk tail at a seeded byte offset.
    wal_path = server.journal.wal_path
    snapshot_seq = server.journal.snapshot_seq
    journal_seq = server.journal.seq
    server.journal.close()
    size = os.path.getsize(wal_path)
    cut = rng.randint(0, min(size, 160)) if size else 0
    with open(wal_path, "ab") as handle:
        handle.truncate(size - cut)

    snapshot, tail = load_server_state(workdir, repair=True)
    recovered = recover_server(workdir)
    report = TruncationReport(
        seed=seed,
        mode=sc.mode,
        cut_bytes=cut,
        records_before=journal_seq - snapshot_seq,
        records_after=len(tail),
        recovered_tail=recovered.recovered_tail,
        agree_mirror=False,
        agree_naive=False,
    )
    if recovered.recovered_tail != len(tail):
        report.mismatches.append("recovered tail length mismatch")
    # The surviving update prefix: records the last checkpoint covers
    # plus intact tail records past it.
    covered = 0 if snapshot is None else int(snapshot.get("seq", 0))
    tail_seqs = {record["seq"] for record in tail}

    def survived(seq: int) -> bool:
        return seq <= covered or seq in tail_seqs

    survivors = sum(1 for seq in update_seqs if survived(seq))
    open_survived = survived(open_seq) or (
        snapshot is not None and bool(snapshot.get("sessions"))
    )
    try:
        rec_session = recovered.session(session.session_id)
    except KeyError:
        # Legal only when the open record itself sat in the torn
        # suffix (and no snapshot captured the session).
        report.agree_mirror = report.agree_naive = not open_survived
        if open_survived:
            report.mismatches.append("durable session lost by recovery")
        recovered.shutdown()
        return report
    final = (
        rec_session.close(at=sc.horizon)
        if rec_session.state in ("active", "queued")
        else rec_session.answer
    )
    recovered.shutdown()

    # Mirror: register up front (identical back-dated answer window),
    # then apply exactly the surviving update prefix.
    mirror_db = sc.build_db()
    mirror = serve(mirror_db)
    mirror_session = {
        KNN: lambda: mirror.register_knn(gd, k=sc.k),
        WITHIN: lambda: mirror.register_within(gd, sc.threshold),
        MULTIKNN: lambda: mirror.register_multiknn(gd, sc.ks),
    }[sc.mode]()
    for update in sc.stream[:survivors]:
        mirror_db.apply(update)
    mirror_final = mirror_session.close(at=sc.horizon)
    mirror.shutdown()
    report.agree_mirror = _answers_equal(final, mirror_final)
    if not report.agree_mirror:
        report.mismatches.append("recovered answer != surviving mirror")

    report.agree_naive = _answers_equal(
        final, _naive_final(mirror_db, sc)
    )
    if not report.agree_naive:
        report.mismatches.append("recovered answer != naive baseline")
    return report

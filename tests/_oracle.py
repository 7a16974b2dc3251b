"""Shared differential-testing oracle.

One seeded scenario — an initial MOD population plus a chronological
``new``/``terminate``/``chdir`` update stream — is driven identically
through these evaluation paths:

- the **naive baseline** (O(N^2) recomputation from trajectories),
- a **single** :class:`~repro.sweep.engine.SweepEngine`,
- a plain :class:`~repro.core.api.ContinuousQuerySession`
  (:func:`run_session`): one live host (a rank reading's
  :class:`~repro.sweep.live.LiveSweep`, a range reading's
  :class:`~repro.sweep.within.RangeSweep`) with nothing around it,
  which also reports what its bar did (members, re-bars by reason) so a
  test can assert the edge it engineered really occurred,
- a bare :class:`~repro.server.group.EngineGroup` (the server's
  engine pool without the server around it),
- a shared :class:`~repro.server.QueryServer` hosting the probed
  session *alongside co-tenant sessions of every other kind* (so the
  server path also checks that fan-out sharing never perturbs answers),
- a :class:`~repro.resilience.supervisor.SupervisedQuerySession` (and
  a server session) hit by a forced probe/update race mid-stream, so
  the heal path is held to the same answers,
- the **one-shot past path** (:func:`run_past`): the stream replayed
  into a MOD first, then the whole session window evaluated at once
  through the pruned sweep of ``repro.core.api`` (final answer only —
  there is no live session to probe),

and each path reports the same two artifacts: the final snapshot
answer over the whole session and the instant answer sets at a fixed
probe schedule.  The differential tests assert all paths agree.

Probe instants sit at an *irrational* fraction between consecutive
update times, so they never coincide with an update timestamp or an
engineered crossing time — instant answers are then unambiguous (no
measure-zero boundary memberships) and set equality is exact.

The query is always passed as an explicit
:class:`~repro.gdist.euclidean.SquaredEuclideanDistance` and the
within threshold as a raw g-distance value, so every path compares
against bit-identical constants (no squaring on one side only).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.baselines.naive import naive_knn_answer, naive_within_answer
from repro.geometry.intervals import Interval, IntervalSet
from repro.geometry.piecewise import PiecewiseFunction
from repro.geometry.poly import Polynomial
from repro.geometry.tolerance import DEFAULT_ATOL
from repro.geometry.vectors import Vector
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New, Terminate, Update
from repro.query.answers import SnapshotAnswer
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.sweep.multiknn import MultiKNN
from repro.sweep.within import ContinuousWithin
from repro.trajectory.linearpiece import LinearPiece
from repro.trajectory.trajectory import Trajectory

# Fraction of the gap between consecutive update times at which instant
# probes are placed: sqrt(2) - 1, irrational, so probes never land on
# update timestamps or rationally-engineered crossing instants.
PROBE_FRACTION = 0.41421356237309515

ANSWER_ATOL = 1e-5

KNN = "knn"
WITHIN = "within"
MULTIKNN = "multiknn"

ProbeRecord = Tuple[float, Union[Set, Dict[int, Set]]]


@dataclass
class Scenario:
    """One seeded differential scenario."""

    seed: int
    initial: List[New]
    stream: List[Update]
    start: float
    horizon: float
    point: Tuple[float, float]
    k: int
    ks: Tuple[int, ...]
    threshold: float

    def gdistance(self) -> SquaredEuclideanDistance:
        return SquaredEuclideanDistance(list(self.point))

    def build_db(self) -> MovingObjectDatabase:
        db = MovingObjectDatabase(initial_time=0.0)
        for update in self.initial:
            db.apply(update)
        return db

    def schedule(self) -> List[Tuple[Update, Optional[float]]]:
        """The stream, each update paired with the probe instant that
        follows it (before the next update / the horizon)."""
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


def generate_scenario(seed: int) -> Scenario:
    """A reproducible random scenario: 5-8 objects, 6-10 updates."""
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
                    position=Vector.of(rng.uniform(-20, 20), rng.uniform(-20, 20)),
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
    return Scenario(
        seed=seed,
        initial=initial,
        stream=stream,
        start=0.001 * objects,
        horizon=t + rng.uniform(1.0, 3.0),
        point=(rng.uniform(-5, 5), rng.uniform(-5, 5)),
        k=rng.randint(1, 3),
        ks=tuple(sorted(rng.sample([1, 2, 3, 4], rng.randint(2, 3)))),
        threshold=rng.uniform(16.0, 400.0),
    )


# ---------------------------------------------------------------------------
# The three evaluation paths
# ---------------------------------------------------------------------------
def _naive_final(
    db: MovingObjectDatabase, sc: Scenario, mode: str
) -> Union[SnapshotAnswer, Dict[int, SnapshotAnswer]]:
    gd = sc.gdistance()
    window = Interval(sc.start, sc.horizon)
    if mode == KNN:
        return naive_knn_answer(db, gd, window, sc.k)
    if mode == WITHIN:
        return naive_within_answer(db, gd, window, sc.threshold)
    return {k: naive_knn_answer(db, gd, window, k) for k in sc.ks}


def _naive_instant(
    db: MovingObjectDatabase, sc: Scenario, mode: str, t: float
) -> Union[Set, Dict[int, Set]]:
    gd = sc.gdistance()
    instant = Interval(t, t)
    if mode == KNN:
        return naive_knn_answer(db, gd, instant, sc.k).at(t)
    if mode == WITHIN:
        return naive_within_answer(db, gd, instant, sc.threshold).at(t)
    return {k: naive_knn_answer(db, gd, instant, k).at(t) for k in sc.ks}


def run_naive(
    sc: Scenario, mode: str
) -> Tuple[
    Union[SnapshotAnswer, Dict[int, SnapshotAnswer]], List[ProbeRecord]
]:
    """Final answer + probe answers from the naive baseline."""
    db = sc.build_db()
    probes: List[ProbeRecord] = []
    for update, probe in sc.schedule():
        db.apply(update)
        if probe is not None:
            probes.append((probe, _naive_instant(db, sc, mode, probe)))
    return _naive_final(db, sc, mode), probes


def run_single(
    sc: Scenario, mode: str
) -> Tuple[
    Union[SnapshotAnswer, Dict[int, SnapshotAnswer]], List[ProbeRecord]
]:
    """Final answer + probe answers from one eager SweepEngine."""
    db = sc.build_db()
    gd = sc.gdistance()
    constants = [sc.threshold] if mode == WITHIN else []
    engine = SweepEngine(
        db, gd, Interval(sc.start, sc.horizon), constants=constants
    )
    if mode == KNN:
        view = ContinuousKNN(engine, sc.k)
    elif mode == WITHIN:
        view = ContinuousWithin(engine, sc.threshold)
    else:
        view = MultiKNN(engine, sc.ks)
    db.subscribe(engine.on_update)
    probes: List[ProbeRecord] = []
    for update, probe in sc.schedule():
        db.apply(update)
        if probe is not None:
            engine.advance_to(probe)
            if mode == MULTIKNN:
                probes.append((probe, {k: view.members(k) for k in sc.ks}))
            else:
                probes.append((probe, set(view.members)))
    engine.advance_to(sc.horizon)
    engine.finalize()
    final = view.answers() if mode == MULTIKNN else view.answer()
    return final, probes


def run_session(
    sc: Scenario, mode: str, facts_out: Optional[dict] = None
) -> Tuple[SnapshotAnswer, List[ProbeRecord]]:
    """Final answer + probe answers from a plain ContinuousQuerySession
    (kNN and within: the kinds it opens).  ``facts_out`` receives what
    the session's live host did: ``candidates`` (the curves its engine
    orders — a range host's: the curves with an event queued — at the
    open and after every update and probe), ``replans`` (re-bars by
    reason, from ``sweep_replans_total``) and ``bound_checks``."""
    from repro.core.api import ContinuousQuerySession
    from repro.obs.metrics import MetricsRegistry

    db = sc.build_db()
    registry = MetricsRegistry()
    options = dict(until=sc.horizon, start=sc.start, observe=registry)
    if mode == KNN:
        session = ContinuousQuerySession.knn(db, sc.gdistance(), k=sc.k, **options)
    else:
        session = ContinuousQuerySession.within(
            db, sc.gdistance(), sc.threshold, **options
        )
    host = session.engine
    candidates = []

    def note():
        candidates.append(host.candidates)

    note()
    probes: List[ProbeRecord] = []
    for update, probe in sc.schedule():
        db.apply(update)
        note()
        if probe is not None:
            probes.append((probe, session.advance_to(probe)))
            note()
    final = session.close(at=sc.horizon)
    if facts_out is not None:
        snapshot = registry.snapshot()
        facts_out.update(
            candidates=candidates,
            bound_checks=host.bound_checks,
            replans={
                reason: int(
                    snapshot.get(f'sweep_replans_total{{reason="{reason}"}}', 0)
                )
                for reason in ("raise", "lower", "tenant")
            },
        )
    return final, probes


def run_past(
    sc: Scenario, mode: str, slices: int = 1
) -> Union[SnapshotAnswer, Dict[int, SnapshotAnswer]]:
    """Final answer from the one-shot past path: every update applied
    first, then ``[start, horizon]`` evaluated at once by the body
    behind ``evaluate_knn`` / ``evaluate_within`` / ``evaluate_multiknn``
    (prune, sweep the candidates, stitch).  ``slices`` starts the planner
    from that many equal slices of the window instead of the window."""
    from repro.core.api import _single_sweep

    db = sc.build_db()
    for update in sc.stream:
        db.apply(update)
    return _single_sweep(
        db,
        _scenario_spec(sc, mode),
        Interval(sc.start, sc.horizon),
        None,
        _slices=slices,
    )


def _scenario_spec(sc: Scenario, mode: str):
    """The scenario's query of kind ``mode`` as a ``QuerySpec``."""
    from repro.core.spec import QuerySpec

    param = {KNN: {"k": sc.k}, WITHIN: {"threshold": sc.threshold}}.get(
        mode, {"ks": sc.ks}
    )
    return QuerySpec(sc.gdistance(), mode, **param)


def run_group(
    sc: Scenario, mode: str
) -> Tuple[
    Union[SnapshotAnswer, Dict[int, SnapshotAnswer]], List[ProbeRecord]
]:
    """Final answer + probe answers from a bare EngineGroup: the
    server's engine pool driven directly, one spec attached."""
    from repro.server.group import EngineGroup

    db = sc.build_db()
    spec = _scenario_spec(sc, mode)
    group = EngineGroup(1, db, spec.gdistance, constants=spec.constants)
    group.acquire(spec)
    probes: List[ProbeRecord] = []
    for update, probe in sc.schedule():
        db.apply(update)
        group.apply(update)
        if probe is not None:
            group.advance_to(probe)
            probes.append((probe, group.members(spec)))
    group.advance_to(sc.horizon)
    final = group.partial(spec, sc.start, sc.horizon)
    group.shutdown()
    return final, probes


# Fraction of the gap after the raced update at which the forced
# probe/update race parks the sweep: past the update's own timestamp
# (so the update lands in the engine's past) but short of the probe
# that follows it (so the probe schedule stays monotone for paths that
# cannot sweep backwards).
RACE_FRACTION = 0.2


class BrokenView:
    """A view whose accumulated timelines are gone: instant reads pass
    through to the real view, every windowed reading raises."""

    def __init__(self, view) -> None:
        self._view = view

    def __getattr__(self, name):
        if name.startswith(("answer", "partial")):
            raise RuntimeError("view corrupted")
        return getattr(self._view, name)


def _run_raced(
    sc: Scenario,
    db: MovingObjectDatabase,
    advance,
    close,
    races: int = 1,
    sabotage=None,
):
    """Drive the schedule with ``races`` forced probe/update races
    spread evenly mid-stream (one: at the middle update): just before
    a raced update is applied the sweep is advanced past that update's
    timestamp, so the update — valid for the database — arrives in the
    engine's past.  ``sabotage()`` runs right before the first race."""
    schedule = sc.schedule()
    raced = [
        len(schedule) * (i + 1) // (races + 1) for i in range(races)
    ]
    probes: List[ProbeRecord] = []
    for i, (update, probe) in enumerate(schedule):
        if i in raced:
            if sabotage is not None and i == raced[0]:
                sabotage()
            nxt = (
                schedule[i + 1][0].time if i + 1 < len(schedule) else sc.horizon
            )
            advance(update.time + RACE_FRACTION * (nxt - update.time))
        db.apply(update)
        if probe is not None:
            probes.append((probe, advance(probe)))
    return close(sc.horizon), probes


def run_supervised(
    sc: Scenario,
    mode: str,
    stats_out: Optional[dict] = None,
    races: int = 1,
    break_view: bool = False,
) -> Tuple[SnapshotAnswer, List[ProbeRecord]]:
    """Final answer + probe answers from a SupervisedQuerySession that
    is hit by forced probe/update races mid-stream (kNN and within).
    ``break_view`` swaps in a :class:`BrokenView` before the first
    race.  ``stats_out`` receives the session's ``failures`` /
    ``rebuilds``."""
    from repro.resilience.supervisor import SupervisedQuerySession

    db = sc.build_db()
    if mode == KNN:
        session = SupervisedQuerySession.knn(
            db, sc.gdistance(), k=sc.k, until=sc.horizon
        )
    else:
        session = SupervisedQuerySession.within(
            db, sc.gdistance(), sc.threshold, until=sc.horizon
        )

    def sabotage():
        session._view = BrokenView(session._view)

    final, probes = _run_raced(
        sc,
        db,
        session.advance_to,
        session.close,
        races,
        sabotage if break_view else None,
    )
    if stats_out is not None:
        stats_out.update(vars(session.stats))
    return final, probes


def run_healed_server(
    sc: Scenario,
    mode: str,
    stats_out: Optional[dict] = None,
    races: int = 1,
    break_view: bool = False,
) -> Tuple[
    Union[SnapshotAnswer, Dict[int, SnapshotAnswer]], List[ProbeRecord]
]:
    """The same forced races against one ``QueryServer`` session: each
    raced update fails the session's engine group, which the server
    heals.  ``break_view`` breaks the group's views before the first
    race.  ``stats_out`` receives the server's ``rebuilds``."""
    from repro.core.api import serve

    db = sc.build_db()
    server = serve(db)
    session = server._register(_scenario_spec(sc, mode), 0, None)

    def sabotage():
        views = session.group._views
        for key in views:
            views[key] = BrokenView(views[key])

    try:
        final, probes = _run_raced(
            sc,
            db,
            session.advance_to,
            session.close,
            races,
            sabotage if break_view else None,
        )
    finally:
        server.shutdown()
    if stats_out is not None:
        stats_out["rebuilds"] = server.stats.rebuilds
    return final, probes


def run_server(
    sc: Scenario,
    mode: str,
) -> Tuple[
    Union[SnapshotAnswer, Dict[int, SnapshotAnswer]], List[ProbeRecord]
]:
    """Final answer + probe answers from a shared QueryServer session.

    The probed session is co-registered with one session of *each
    other* kind (same g-distance, so knn/multiknn co-tenant the probed
    session's rank pool and within adds a sentinel group): sharing the
    sweep with unrelated tenants must never change the probed answers.
    """
    from repro.core.api import serve

    db = sc.build_db()
    gd = sc.gdistance()
    server = serve(db)
    sessions = {
        KNN: server.register_knn(gd, k=sc.k),
        # gd is a GDistance, so the threshold is compared as-is — the
        # same bit-identical constant every other path uses.
        WITHIN: server.register_within(gd, sc.threshold),
        MULTIKNN: server.register_multiknn(gd, sc.ks),
    }
    session = sessions[mode]
    probes: List[ProbeRecord] = []
    try:
        for update, probe in sc.schedule():
            db.apply(update)
            if probe is not None:
                members = session.advance_to(probe)
                if mode == MULTIKNN:
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


def run_netserve(
    sc: Scenario,
    mode: str,
    drop_every: Optional[int] = None,
    force_heal: bool = False,
    stats_out: Optional[dict] = None,
) -> Tuple[
    Union[SnapshotAnswer, Dict[int, SnapshotAnswer]], List[ProbeRecord]
]:
    """Final answer + probe answers through the TCP serving frontend.

    Mirrors :func:`run_server` — the probed session is co-registered
    with one session of each other kind — but every verb crosses the
    wire: registration, probes, and the final close are issued by a
    :class:`~repro.net.RemoteQueryClient` against a
    :func:`~repro.core.api.serve_tcp` frontend, so this path also
    checks the protocol's answer encodings and the applying-thread
    ingestion under the serving lock.

    ``drop_every=n`` hard-closes the client's socket before every nth
    request — the client must reconnect and retry with the same
    request id, and the answers must still match.  ``force_heal``
    opens a decoy session in its own engine group (distinct
    g-distance), advances it far past the MOD clock mid-stream, and
    lets the next accepted update poison it — the server must heal
    the decoy's group without perturbing the probed answers.

    ``stats_out``, if given, receives server/net counters observed
    before shutdown (``rebuilds``, ``replays``, ``requests``).
    """
    from repro.core.api import serve_tcp
    from repro.net.client import RemoteQueryClient
    from repro.server import ServerConfig

    class _DroppyClient(RemoteQueryClient):
        """Drops its own socket before every nth request."""

        _sent = 0

        def request(self, verb, args=None, timeout=None):
            self._sent = self._sent + 1
            if drop_every and self._sent % drop_every == 0:
                self._drop_socket()
            return super().request(verb, args, timeout)

    db = sc.build_db()
    # The poisoned decoy group re-fails on every update after the
    # poison (its rebuilt clock stays past the MOD's), so the forced
    # heal run needs a budget that outlasts the stream.
    config = ServerConfig(
        quarantine_after=(
            len(sc.stream) + 1 if force_heal else ServerConfig.quarantine_after
        ),
    )
    net = serve_tcp(db, config=config)
    probes: List[ProbeRecord] = []
    try:
        client = _DroppyClient(*net.address, retries=4)
        sessions = {
            KNN: client.open_knn(list(sc.point), k=sc.k),
            # threshold= is raw g-distance units, compared as-is —
            # the same bit-identical constant every other path uses.
            WITHIN: client.open_within(
                list(sc.point), threshold=sc.threshold
            ),
            MULTIKNN: client.open_multiknn(list(sc.point), ks=list(sc.ks)),
        }
        session = sessions[mode]
        decoy = None
        if force_heal:
            # Its own group: a different g-distance fingerprint.
            decoy = client.open_knn(
                [sc.point[0] + 1000.0, sc.point[1] - 1000.0], k=1
            )
        for i, (update, probe) in enumerate(sc.schedule()):
            if decoy is not None and i == 2:
                # Push only the decoy's group far past the MOD clock;
                # the next accepted update is then in *its* past and
                # the server must heal that group in-line.
                decoy.advance_to(sc.horizon + 50.0)
            db.apply(update)
            if probe is not None:
                members = session.advance_to(probe)
                if mode == MULTIKNN:
                    probes.append(
                        (probe, {k: set(members[k]) for k in sc.ks})
                    )
                else:
                    probes.append((probe, set(members)))
        final = session.close(at=sc.horizon)
        for other in sessions.values():
            if other is not session:
                other.close(at=sc.horizon)
        if decoy is not None:
            decoy.close(at=sc.horizon)
        if stats_out is not None:
            stats_out["rebuilds"] = net.server.stats.rebuilds
            stats_out["replays"] = net.stats.replays
            stats_out["requests"] = net.stats.requests
        client.close()
    finally:
        net.close()
    return final, probes


def run_recovered_server(
    sc: Scenario,
    mode: str,
    crash_every: int = 3,
    checkpoint_interval: int = 4,
    sync: str = "flush",
    shards: Optional[int] = None,
) -> Tuple[
    Union[SnapshotAnswer, Dict[int, SnapshotAnswer]], List[ProbeRecord]
]:
    """Final answer + probe answers from a repeatedly *crashed and
    recovered* :class:`~repro.replication.DurableQueryServer`.

    Mirrors :func:`run_server` — the probed session is co-registered
    with one session of each other kind — but every ``crash_every``
    stream updates the server is abandoned mid-flight (no shutdown, no
    final checkpoint: exactly what a process kill leaves on disk) and
    rebuilt with :func:`~repro.replication.recover_server` from its
    (checkpoint, WAL-tail) pair.  Sessions are re-fetched by id on the
    recovered server and the stream resumes against the recovered MOD.
    Theorem 5 equivalence demands bit-for-bit the same probe sets and
    a final answer equal to the uninterrupted paths'.  ``shards`` is
    the sessions' journaled ``open`` label (kept for the durable
    formats; it changes nothing), so recovery replays records that
    carry it.
    """
    import tempfile

    from repro.replication import DurableQueryServer

    with tempfile.TemporaryDirectory() as directory:
        db = sc.build_db()
        gd = sc.gdistance()
        server = DurableQueryServer(
            db,
            directory=directory,
            sync=sync,
            checkpoint_interval=checkpoint_interval,
        )
        # The initial population predates the journal: checkpoint so
        # recovery starts from a snapshot that carries it.
        server.checkpoint()
        sessions = {
            KNN: server.register_knn(gd, k=sc.k, shards=shards),
            WITHIN: server.register_within(gd, sc.threshold, shards=shards),
            MULTIKNN: server.register_multiknn(gd, sc.ks, shards=shards),
        }
        sids = {kind: s.session_id for kind, s in sessions.items()}
        session = sessions[mode]
        probes: List[ProbeRecord] = []
        applied = 0
        for update, probe in sc.schedule():
            db.apply(update)
            applied += 1
            if probe is not None:
                members = session.advance_to(probe)
                if mode == MULTIKNN:
                    probes.append(
                        (probe, {k: set(members[k]) for k in sc.ks})
                    )
                else:
                    probes.append((probe, set(members)))
            if crash_every and applied % crash_every == 0:
                # Crash: drop the whole serving stack on the floor —
                # db included — and rebuild from disk alone.
                from repro.replication import recover_server

                server = recover_server(directory, sync=sync)
                db = server.db
                session = server.session(sids[mode])
        final = session.close(at=sc.horizon)
        from repro.server.session import ACTIVE as _ACTIVE
        from repro.server.session import QUEUED as _QUEUED

        for kind, sid in sids.items():
            if kind != mode:
                other = server.session(sid)
                if other.state in (_ACTIVE, _QUEUED):
                    other.close(at=sc.horizon)
        server.shutdown()
    return final, probes


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------
def answers_equal(a, b, atol: float = ANSWER_ATOL) -> bool:
    """approx-equality for answers or per-k answer dicts."""
    if isinstance(a, dict) or isinstance(b, dict):
        return set(a) == set(b) and all(
            a[k].approx_equals(b[k], atol=atol) for k in a
        )
    return a.approx_equals(b, atol=atol)


def sliced_sweeps(slices: Optional[int]):
    """A context in which every sweep behind ``evaluate_*`` — a cold
    window or a cache's gap — is cut into ``slices`` equal time slices,
    each swept alone, and the slice answers stitched; ``None`` leaves
    the sweeps whole.  One evaluation split across several engines
    must leave no trace in its answer."""
    import contextlib
    from unittest import mock

    from repro.core import api
    from repro.parallel.merge import stitch_answers

    if slices is None:
        return contextlib.nullcontext()
    whole = api._single_sweep

    def sweep(db, spec, window, observe, curves=None):
        cuts = [window.lo + i * window.length / slices for i in range(slices)]
        cuts.append(window.hi)
        parts = [
            whole(db, spec, Interval(a, b), observe, curves)
            for a, b in zip(cuts, cuts[1:])
        ]
        return stitch_answers(parts, window)

    return mock.patch.object(api, "_single_sweep", sweep)


def sweep_ops(report) -> int:
    """Summed ``init`` / ``sweep`` ops of an EXPLAIN report, at any
    depth (a gap sweep nests under ``cache.extend``, a restored
    session's past under ``server.close``)."""

    def walk(stages):
        for stage in stages:
            if stage["name"] in ("init", "sweep"):
                yield stage.get("attrs", {}).get("ops", 0)
            yield from walk(stage.get("children", []))

    return sum(walk(report.to_dict()["stages"]))


def assert_probes_equal(
    got: List[ProbeRecord], expected: List[ProbeRecord], label: str
) -> None:
    assert len(got) == len(expected), f"{label}: probe count mismatch"
    for (t1, m1), (t2, m2) in zip(got, expected):
        assert t1 == t2, f"{label}: probe schedule diverged ({t1} vs {t2})"
        assert m1 == m2, f"{label}: instant answer at t={t1}: {m1} != {m2}"


# -- answer-algebra oracles -----------------------------------------------
# The two membership clips ``SnapshotAnswer.restrict`` replaced, kept
# verbatim from the commit before it (``parallel.merge.clip_answer`` at
# ``atol=0`` and ``cache.answer_cache.restrict_payload`` at
# ``DEFAULT_ATOL``): ``tests/query/test_answer_algebra.py`` holds the
# one restriction to exact equality with both.


def reference_clip_answer(answer, lo: float, hi: float):
    if isinstance(answer, dict):
        return {k: reference_clip_answer(a, lo, hi) for k, a in answer.items()}
    if hi < lo:
        lo = hi
    window = IntervalSet([Interval(lo, hi)])
    memberships = {}
    for oid in answer.objects:
        clipped = answer.intervals_for(oid).intersect(window)
        if not clipped.is_empty:
            memberships[oid] = clipped
    return SnapshotAnswer(memberships, Interval(lo, hi))


def reference_restrict_payload(
    payload, interval: Interval, atol: float = DEFAULT_ATOL
):
    def restrict(answer: SnapshotAnswer) -> SnapshotAnswer:
        window = IntervalSet([interval])
        memberships = {}
        for oid in answer.objects:
            clipped = answer.intervals_for(oid).intersect(window, atol=atol)
            if not clipped.is_empty:
                memberships[oid] = clipped
        return SnapshotAnswer(memberships, interval)

    if isinstance(payload, SnapshotAnswer):
        return restrict(payload)
    return {k: restrict(answer) for k, answer in payload.items()}


# -- geometry oracles -----------------------------------------------------
# The object pipeline the scalar kernels of ``repro.geometry.piecewise``
# replaced, kept verbatim: ``tests/geometry/test_flip_kernel.py`` holds
# the kernels to exact equality with these.


def reference_flip_after(
    f: PiecewiseFunction,
    g: PiecewiseFunction,
    t0: float,
    horizon: float = math.inf,
    min_gap: float = DEFAULT_ATOL,
    assume_sign: Optional[int] = None,
    allow_immediate: bool = False,
) -> Optional[float]:
    """``first_order_flip_after`` as the composition
    ``(f - g).restrict(window).sign_segments()`` plus the baseline scan."""
    domain = f.domain.intersect(g.domain)
    if domain is None or domain.hi <= t0:
        return None
    lo = max(t0, domain.lo)
    hi = min(horizon, domain.hi)
    if lo > hi:
        return None
    window = domain.intersect(Interval(lo, hi))
    if window is None:
        return None
    diff = (f - g).restrict(window)
    segments = diff.sign_segments()
    base_sign = 0 if assume_sign is None else assume_sign
    for iv, sign in segments:
        if sign == 0:
            continue
        if base_sign == 0:
            base_sign = sign
            continue
        if sign != base_sign:
            flip_at = iv.lo
            if flip_at > t0 + min_gap:
                return flip_at
            if allow_immediate:
                return max(flip_at, t0)
            # The flip sits at/behind the guard band: keep scanning with
            # the *new* sign as the baseline.
            base_sign = sign
    return None


def reference_forward_taylor(
    f: PiecewiseFunction, t: float, terms: int = 8
) -> Tuple[float, ...]:
    """``PiecewiseFunction.forward_taylor`` through ``terms`` successive
    ``Polynomial.derivative()`` objects."""
    current = f._forward_piece(t)[1]
    out: List[float] = []
    for _ in range(terms):
        out.append(current(t))
        current = current.derivative()
    return tuple(out)


# -- curve-construction oracle ---------------------------------------------
# ``Trajectory.squared_distance_to`` as it stood before the scalar curve
# kernel, kept verbatim (``self`` spelled ``a``): the ``Vector`` /
# ``Polynomial`` / ``PiecewiseFunction`` composition over the cut set,
# one probe and one ``piece_at`` per cell, every public constructor
# validating.  ``tests/trajectory/test_curve_kernel.py`` holds the kernel
# to exact equality with it.


def reference_squared_distance(a: Trajectory, b: Trajectory) -> PiecewiseFunction:
    """Squared Euclidean distance between two trajectories over time,
    through the object pipeline."""
    if b.dimension != a.dimension:
        raise ValueError("trajectories must share a dimension")
    domain = a.domain.intersect(b.domain)
    if domain is None:
        raise ValueError(f"domains {a.domain} and {b.domain} do not overlap")
    if len(a.pieces) == 1 and len(b.pieces) == 1 and not domain.is_point:
        return PiecewiseFunction(
            [(domain, _reference_squared_gap(a.pieces[0], b.pieces[0]))]
        )
    cuts = sorted(
        {
            boundary
            for piece in (*a.pieces, *b.pieces)
            for boundary in (piece.interval.lo, piece.interval.hi)
            if domain.lo < boundary < domain.hi and math.isfinite(boundary)
        }
    )
    bounds = [domain.lo, *cuts, domain.hi]
    out: List[Tuple[Interval, Polynomial]] = []
    if domain.is_point:
        delta = a.position(domain.lo) - b.position(domain.lo)
        return PiecewiseFunction.constant(delta.norm_squared(), domain)
    for lo, hi in zip(bounds, bounds[1:]):
        probe = _reference_probe(lo, hi)
        gap = _reference_squared_gap(a.piece_at(probe), b.piece_at(probe))
        out.append((Interval(lo, hi), gap))
    return PiecewiseFunction(out)


def _reference_squared_gap(a: LinearPiece, b: LinearPiece) -> Polynomial:
    """``|dv t + dp|^2 = (dv.dv) t^2 + 2 (dv.dp) t + dp.dp`` for two
    linear laws."""
    dv = a.velocity - b.velocity
    dp = a.offset - b.offset
    return Polynomial([dp.norm_squared(), 2.0 * dv.dot(dp), dv.norm_squared()])


def _reference_probe(lo: float, hi: float) -> float:
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(lo):
        return hi - 1.0
    if math.isinf(hi):
        return lo + 1.0
    return (lo + hi) / 2.0


# -- update-operation oracle --------------------------------------------------
# ``Trajectory.truncated_at`` / ``with_direction_change`` as they stood
# before they reused the untouched prefix, kept verbatim (``self`` spelled
# ``traj``): a walk over every piece and a public ``Trajectory(...)`` that
# re-proves every joint — twice per ``chdir``.
# ``tests/trajectory/test_update_ops.py`` holds the update operations to
# exact equality with them.


def reference_truncated_at(traj: Trajectory, tau: float) -> Trajectory:
    """The trajectory restricted to ``t <= tau`` (Definition 3's
    ``terminate``)."""
    if not traj.defined_at(tau):
        raise ValueError(f"cannot truncate at {tau}: outside {traj.domain}")
    out: List[LinearPiece] = []
    for piece in traj.pieces:
        if piece.interval.hi <= tau:
            out.append(piece)
        elif piece.interval.lo <= tau:
            out.append(piece.restricted(Interval(piece.interval.lo, tau)))
            break
    if not out:
        first = traj.pieces[0]
        out = [first.restricted(Interval.point(tau))]
    return Trajectory(out)


def reference_with_direction_change(
    traj: Trajectory, tau: float, velocity: Vector
) -> Trajectory:
    """Apply ``chdir(o, tau, A)``: keep the past, replace the future."""
    if not traj.defined_at(tau):
        raise ValueError(f"trajectory undefined at chdir time {tau}")
    if velocity.dimension != traj.dimension:
        raise ValueError("velocity dimension mismatch")
    position = traj.position(tau)
    past = reference_truncated_at(traj, tau)
    future = LinearPiece.anchored(
        velocity, position, tau, Interval.at_least(tau)
    )
    return Trajectory([*past.pieces, future])

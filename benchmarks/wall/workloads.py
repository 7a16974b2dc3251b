"""The four workloads: inputs from a seed, set-up, timed phase, checks.

Every workload is a closed loop driven by one generator thread (and,
for the serving workloads, one client connection): the next operation
is issued only when the previous one has returned.  The program only
ever sees generated inputs — the update stream is recorded beforehand
on a twin MOD — and ``--seed`` picks the frame of reference they are
seen from (:class:`Frame`).

A workload exposes

- ``make_inputs(seed)`` — untimed;
- ``setup(inputs)`` → a stack with ``close()`` — timed as ``setup_s``;
- ``run(stack, inputs, seconds)`` → a :class:`Phase` — the timed loop;
- ``verify(inputs, phases, tally)`` — every answer against a reference;
- ``operations()`` — its operation functions, for the tracer to wrap
  as root spans.

Sizes follow ISSUE 11 except where its 15–25 s repetitions had to fit
the driver's per-run cap: object and session counts are kept, update
counts became "as many as fit in ``--seconds``", and ``past_sweep``'s
random-linear window shrank from ``[0, 10]`` to ``[0, 2]``.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import (
    ChangeDirection,
    Interval,
    MovingObjectDatabase,
    New,
    Vector,
    evaluate_knn,
    evaluate_multiknn,
    evaluate_within,
    linear_from,
    serve_tcp,
)
from repro.net import QueryNetServer, RemoteQueryClient
from repro.replication import DurableQueryServer, StandbyReplica, recover_server
from repro.workloads.generator import (
    UpdateStream,
    banded_mod,
    crossing_rich_mod,
    random_linear_mod,
)

from harness import (
    Pace,
    Tally,
    Timing,
    cpu,
    new_scratch,
    now,
    speed_factor,
)
from reference import (
    Mirror,
    Spec,
    answers_equal,
    check_instants,
    check_naive,
    clip,
    digest,
    distinct_specs,
    probe_times,
)


#: Updates each layer probe replays (the traced run only).
PROBE_UPDATES = 24


@dataclass
class Phase:
    """What one timed phase did and saw.  ``samples`` holds
    :class:`~harness.Timing` per operation kind; ``pace`` the spins
    interleaved with the loop (see harness: machine speed)."""

    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0
    work: int = 0  # units of work completed (queries / updates)
    pace: Pace = field(default_factory=Pace)
    samples: Dict[str, List[Timing]] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    def begin(self) -> None:
        self.start, self.cpu_s = now(), cpu()

    def finish(self) -> None:
        self.end, self.cpu_s = now(), cpu() - self.cpu_s

    def sample(self, name: str) -> List[Timing]:
        return self.samples.setdefault(name, [])

    @property
    def factor(self) -> float:
        return speed_factor(self.pace.samples)

    @property
    def wall(self) -> float:
        """The loop's wall time, without the interleaved spins."""
        return self.end - self.start - self.pace.total

    @property
    def reference_wall(self) -> float:
        """:attr:`wall` with its CPU share rescaled to reference speed."""
        return self.wall + (self.cpu_s - self.pace.total) * (self.factor - 1.0)

    def raw(self, name: str) -> List[float]:
        return [t.wall for t in self.samples.get(name, ())]

    def at_reference(self, name: str) -> List[float]:
        factor = self.factor
        return [t.at_reference(factor) for t in self.samples.get(name, ())]


#: Seed of every generator call: the structure of each workload (which
#: objects, which updates, in which order) is fixed.
BASE_SEED = 1


class Frame:
    """The frame of reference ``--seed`` picks: a rotation of the plane
    about the origin, and for odd seeds a reflection first.

    The seed changes every coordinate the program sees and none of the
    distances, so every seed gives the same events in the same order —
    the same work.  Seeding the generators instead made the work itself
    vary: ``serve_crossing``'s primitive operations per update read
    16% apart (inter-quartile) over ten seeds, its median latency with
    them, and half of that is the sampling error of a median over 400
    heavy-tailed updates, which no longer run cures.  A regression gate
    wants the input's luck out of the comparison; the steadiness the
    driver checks across seeds is then the machine's alone.
    """

    def __init__(self, seed: int) -> None:
        angle = 2.0 * math.pi * ((seed * 0.6180339887498949) % 1.0)
        self._cos, self._sin = math.cos(angle), math.sin(angle)
        self._flip = -1.0 if seed % 2 else 1.0

    def point(self, p) -> Tuple[float, float]:
        x, y = p[0], p[1] * self._flip
        return (self._cos * x - self._sin * y, self._sin * x + self._cos * y)

    def spec(self, spec: Spec) -> Spec:
        return Spec(spec.kind, self.point(spec.point), spec.param)

    def db(self, base: MovingObjectDatabase) -> MovingObjectDatabase:
        """``base`` — objects installed at its clock, each on one linear
        piece, as the generators build them — seen from this frame."""
        out = MovingObjectDatabase(initial_time=base.last_update_time)
        for oid, traj in base.all_items():
            start = traj.domain.lo
            out.install(
                oid,
                linear_from(
                    start, self.point(traj.position(start)), self.point(traj.velocity(start))
                ),
            )
        return out

    def update(self, update):
        if isinstance(update, New):
            return New(
                update.oid,
                update.time,
                Vector(self.point(update.velocity)),
                Vector(self.point(update.position)),
            )
        if isinstance(update, ChangeDirection):
            return ChangeDirection(update.oid, update.time, Vector(self.point(update.velocity)))
        return update

    def stream(self, base: MovingObjectDatabase, count: int, **stream_kwargs) -> list:
        """``count`` updates recorded on ``base`` (a twin the program
        never sees), seen from this frame."""
        updates: list = []
        base.subscribe(updates.append)
        UpdateStream(base, seed=BASE_SEED + 1, **stream_kwargs).run(count)
        return [self.update(u) for u in updates]


def _combined(timings: Sequence[Timing]) -> Timing:
    """Operations run back to back, timed as one: walls and CPU add,
    the speed factor is the CPU-weighted mean of the parts'."""
    cpu_s = sum(t.cpu for t in timings)
    factor = sum(t.cpu * t.factor for t in timings) / cpu_s if cpu_s else 1.0
    return Timing(sum(t.wall for t in timings), cpu_s, factor)


# ---------------------------------------------------------------------------
# past_sweep
# ---------------------------------------------------------------------------
class _PastStack:
    def __init__(self, db, crossing) -> None:
        self.db = db
        self.crossing = crossing

    def close(self) -> None:
        pass


class PastSweep:
    """Batch Theorem-4 evaluation: three past queries over a random
    linear MOD of 400 objects plus k-NN over a crossing-rich MOD of
    120.  No server, no wire, no journal."""

    name = "past_sweep"
    durable = False
    objects = 400
    crossing_objects = 120
    window = Interval(0.0, 2.0)
    crossing_window = Interval(0.0, 10.0)
    queries: Tuple[Spec, ...] = (
        Spec("knn", (0.0, 0.0), 5),
        Spec("within", (0.0, 0.0), 50.0),
        Spec("multiknn", (0.0, 0.0), (1, 5, 10)),
    )
    crossing_query = Spec("knn", (0.0, 0.0), 5)
    roles = {"answer": "linear batch (knn + within + multiknn)", "second": "crossing-rich knn"}
    second = "second"

    def __init__(self, smoke: bool = False) -> None:
        if smoke:  # the shape of the run, not its size
            self.objects = 100
            self.window = Interval(0.0, 0.3)
            self.crossing_objects = 40

    def make_inputs(self, seed: int) -> dict:
        frame = Frame(seed)
        return {
            "seed": seed,
            "frame": frame,
            "queries": [frame.spec(q) for q in self.queries],
            "crossing_query": frame.spec(self.crossing_query),
        }

    def setup(self, inputs: dict) -> _PastStack:
        frame: Frame = inputs["frame"]
        return _PastStack(
            frame.db(random_linear_mod(self.objects, seed=BASE_SEED)),
            frame.db(crossing_rich_mod(self.crossing_objects, seed=BASE_SEED)),
        )

    # -- operations ---------------------------------------------------------
    @staticmethod
    def op_query(db, spec: Spec, window: Interval):
        point = list(spec.point)
        if spec.kind == "knn":
            return evaluate_knn(db, point, window, k=spec.param)
        if spec.kind == "within":
            return evaluate_within(db, point, window, distance=spec.param)
        return evaluate_multiknn(db, point, window, ks=spec.param)

    def operations(self):
        return [(PastSweep, "op_query", "bench.query")]

    def run(self, stack: _PastStack, inputs: dict, seconds: float) -> Phase:
        tally: Tally = inputs["tally"]
        plan = [(s, stack.db, self.window) for s in inputs["queries"]]
        plan.append((inputs["crossing_query"], stack.crossing, self.crossing_window))
        answers: List[list] = []
        batches: List[List[Timing]] = []
        batch_s = 0.0
        phase = Phase()
        phase.begin()
        pace = phase.pace
        # Start another batch only while, going by the last one, most of
        # it would still fall inside the budget.
        while not answers or now() - phase.start + 0.5 * batch_s < seconds:
            batch_start = now()
            row, timings = [], []
            for spec, db, window in plan:
                try:
                    answer, timing = pace.timed(self.op_query, db, spec, window)
                    tally.ok()
                except Exception as exc:  # the op failed; the run goes on
                    answer, timing = None, Timing(0.0, 0.0, 1.0)
                    tally.fail(f"past query {spec.kind} raised {exc!r}")
                row.append(answer)
                timings.append(timing)
                phase.work += 1
            answers.append(row)
            batches.append(timings)
            batch_s = now() - batch_start
        phase.finish()
        linear = len(self.queries)
        phase.samples["answer"] = [_combined(row[:linear]) for row in batches]
        phase.samples["second"] = [row[linear] for row in batches]
        phase.extra.update(answers=answers, db=stack.db, crossing=stack.crossing)
        return phase

    def finish(self, stack, inputs, phase: Phase) -> None:
        pass

    def verify(self, inputs: dict, phases: Sequence[Phase], tally: Tally) -> None:
        instants = probe_times(
            [self.window.lo + i * self.window.length / 12 for i in range(13)], 12
        )
        crossing_instants = probe_times([i * 0.5 for i in range(21)], 20)
        for phase in phases:
            answers = phase.extra["answers"]
            first, last = answers[0], answers[-1]
            if any(a is None for a in first + last):
                continue  # already counted as failed operations
            for a, b in zip(first, last):
                tally.check(answers_equal(a, b), "repeated past query changed its answer")
            tally.check(
                answers_equal(last[0], last[2][5]), "knn(k=5) and multiknn[5] disagree"
            )
            db, crossing = phase.extra["db"], phase.extra["crossing"]
            queries, crossing_query = inputs["queries"], inputs["crossing_query"]
            for spec, answer in zip(queries, last):
                check_instants(tally, self.name, spec, answer, db, instants)
            check_instants(
                tally, self.name, crossing_query, last[3], crossing, crossing_instants
            )
            if phase is not phases[-1]:
                continue  # the O(N^2) baseline once per run
            check_naive(tally, self.name, queries[1], last[1], db, self.window)
            # Every pair of the crossing-rich MOD crosses just before
            # t = 2; this slice of the pile-up holds two top-5 changes
            # and costs the baseline half a second, not five.
            check_naive(
                tally, self.name, crossing_query, last[3], crossing, Interval(1.9, 1.95)
            )

    def probe_inputs(self, inputs: dict):
        """This workload has no update stream of its own: the layer
        probes that need one get a short default stream recorded on a
        twin of its MOD."""
        frame: Frame = inputs["frame"]

        def base():
            return random_linear_mod(self.objects, seed=BASE_SEED)

        return (
            lambda: frame.db(base()),
            inputs["queries"],
            frame.stream(base(), PROBE_UPDATES, mean_gap=0.05),
        )


# ---------------------------------------------------------------------------
# serving workloads
# ---------------------------------------------------------------------------
def cycled_specs(
    count: int, points: Sequence[Tuple[float, float]], within: float = 40.0
) -> List[Spec]:
    """``count`` sessions cycling knn 1 / within / multiknn (1,3) / knn 3
    over ``points``."""
    kinds = (("knn", 1), ("within", within), ("multiknn", (1, 3)), ("knn", 3))
    return [
        Spec(kinds[i % 4][0], points[i % len(points)], kinds[i % 4][1])
        for i in range(count)
    ]


class _ServingStack:
    """Everything set-up builds: MOD, server(s), client, sessions."""

    def __init__(self) -> None:
        self.db = None
        self.net = None
        self.primary = None
        self.standby = None
        self.client = None
        self.sessions: list = []
        self.path: Optional[str] = None  # durable directories live here

    def close(self) -> None:
        # The durable primary is killed, not closed: with its standby
        # gone, QueryNetServer.close() drains through the ack barrier's
        # reconnect grace and waits out repl_ack_timeout (5 s).
        net_down = getattr(self.net, "kill" if self.primary is not None else "close", None)
        for closer in (
            getattr(self.client, "close", None),
            getattr(self.standby, "close", None),
            net_down,
        ):
            if closer is not None:
                try:
                    closer()
                except Exception:
                    pass  # tear-down of an already-killed stack
        if self.primary is not None:
            self.primary.journal.close()
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)


class ServingWorkload:
    """A closed loop of updates through the serving path.

    Per update ``u``: ``db.apply(u)`` then ``client.ping()`` on the
    subscribed connection — frames are FIFO per connection, so when the
    ping returns the client holds every ``answer_change`` ``u`` caused —
    timed together as the update→visible latency.  Then, untimed by
    that sample but inside the loop's wall: drain the pushes, do the
    workload's reads, churn a session."""

    name = ""
    objects = 0
    specs: List[Spec] = []
    subscribed: List[bool] = []
    stream_kwargs: dict = {}
    max_updates = 0
    read_every = 10  # probe reads of every session at these update indices
    churn_every = 0  # open a fresh-point knn session this often, close it later
    durable = False
    recover_repeats = 5
    roles: Dict[str, str] = {}

    def __init__(self, smoke: bool = False) -> None:
        if smoke:  # the shape of the run, not its size
            self.objects = min(self.objects, 60)

    def base_db(self) -> MovingObjectDatabase:
        raise NotImplementedError

    # -- inputs -------------------------------------------------------------
    def make_inputs(self, seed: int) -> dict:
        frame = Frame(seed)
        return {
            "seed": seed,
            "frame": frame,
            "build_db": lambda: frame.db(self.base_db()),
            "specs": [frame.spec(spec) for spec in self.specs],
            "updates": frame.stream(self.base_db(), self.max_updates, **self.stream_kwargs),
        }

    @staticmethod
    def churn_spec(frame: Frame, index: int) -> Spec:
        """A knn query at a point no other session uses: a new engine
        group, so the open pays a full Theorem-5 initialization."""
        # Low-discrepancy offsets keep every churn point distinct
        # without another random stream.
        x = ((index * 0.6180339887) % 1.0) * 100.0 - 50.0
        y = ((index * 0.7548776662) % 1.0) * 100.0 - 50.0
        return frame.spec(Spec("knn", (x, y), 2))

    # -- set-up -------------------------------------------------------------
    def setup(self, inputs: dict) -> _ServingStack:
        stack = _ServingStack()
        seed = inputs["seed"]
        try:
            stack.db = inputs["build_db"]()
            if self.durable:
                stack.path = new_scratch(f"{self.name}-")
                stack.primary = DurableQueryServer(
                    stack.db, directory=os.path.join(stack.path, "primary"), sync="fsync"
                )
                stack.net = QueryNetServer(stack.primary).start(port=0)
                stack.standby = StandbyReplica(
                    stack.net.address,
                    directory=os.path.join(stack.path, "standby"),
                    sync="fsync",
                    auto_promote=True,
                    seed=seed,
                ).start()
                stack.client = RemoteQueryClient(
                    endpoints=[stack.net.address, stack.standby.address],
                    retries=12,
                    seed=seed,
                )
            else:
                stack.net = serve_tcp(stack.db)
                stack.client = RemoteQueryClient(*stack.net.address)
            for spec, subscribe in zip(inputs["specs"], self.subscribed):
                session = spec.open(stack.client)
                if subscribe:
                    session.subscribe()
                stack.sessions.append(session)
            if self.durable:
                # The MOD was populated by install(), which no journal
                # records: until a snapshot holds it, recover_server
                # rebuilds an empty MOD and fails on the first chdir.
                stack.primary.checkpoint()
        except BaseException:
            stack.close()
            raise
        return stack

    # -- operations (wrapped as root spans by the traced run) --------------
    @staticmethod
    def op_update(db, client, update) -> None:
        db.apply(update)
        client.ping()

    @staticmethod
    def op_read(session):
        return session.members

    @staticmethod
    def op_open(client, spec: Spec):
        return spec.open(client)

    @staticmethod
    def op_close(session, at=None):
        return session.close(at)

    @staticmethod
    def op_changes(session):
        return session.changes()

    @staticmethod
    def op_recover(directory: str):
        return recover_server(directory, checkpoint_on_recover=False)

    def operations(self):
        return [
            (ServingWorkload, "op_update", "bench.update"),
            (ServingWorkload, "op_read", "bench.read"),
            (ServingWorkload, "op_open", "bench.open"),
            (ServingWorkload, "op_close", "bench.close"),
            (ServingWorkload, "op_changes", "bench.changes"),
            (ServingWorkload, "op_recover", "bench.recover"),
        ]

    # -- the timed loop -----------------------------------------------------
    def run(self, stack: _ServingStack, inputs: dict, seconds: float) -> Phase:
        tally: Tally = inputs["tally"]
        frame: Frame = inputs["frame"]
        db, client, sessions = stack.db, stack.client, stack.sessions
        watchers = [
            (j, s) for j, (s, on) in enumerate(zip(sessions, self.subscribed)) if on
        ]
        # What the loop saw, kept as digests (see reference.digest).
        pushes: List[List[tuple]] = [[] for _ in sessions]  # (update index, digest)
        read_at: List[int] = []
        seen: List[List[tuple]] = [[] for _ in sessions]  # (index, digest) where it changed
        churned: List[tuple] = []  # (spec, answer)
        churn: Dict[int, tuple] = {}  # close-at index -> (spec, session)
        times: List[float] = []
        phase = Phase()
        visible, reads, opens = phase.sample("answer"), phase.sample("read"), phase.sample("open")
        tick = phase.pace.tick
        phase.begin()
        deadline = phase.start + seconds
        for i, update in enumerate(inputs["updates"]):
            w0, c0 = now(), cpu()
            try:
                self.op_update(db, client, update)
            except Exception as exc:
                tally.fail(f"update {i} raised {exc!r}")
                break  # the stream is chronological: nothing after it applies
            visible.append(Timing(now() - w0, cpu() - c0))
            tally.ok()
            tick()
            times.append(update.time)
            for j, session in watchers:
                for event in self.op_changes(session):
                    if event.get("event") == "answer_change":
                        pushes[j].append((i, digest(event["members"])))
            if i % self.read_every == 0:
                read_at.append(i)
                for j, session in enumerate(sessions):
                    w0, c0 = now(), cpu()
                    try:
                        members = self.op_read(session)
                    except Exception as exc:
                        tally.fail(f"read of session {j} at update {i} raised {exc!r}")
                        continue
                    reads.append(Timing(now() - w0, cpu() - c0))
                    tally.ok()
                    held = digest(members)
                    if not seen[j] or seen[j][-1][1] != held:
                        seen[j].append((i, held))
            if self.churn_every and i % self.churn_every == 0:
                spec = self.churn_spec(frame, i)
                w0, c0 = now(), cpu()
                try:
                    churn[i + self.churn_every] = (spec, self.op_open(client, spec))
                    opens.append(Timing(now() - w0, cpu() - c0))
                    tally.ok()
                except Exception as exc:
                    tally.fail(f"churn open at update {i} raised {exc!r}")
                due = churn.pop(i, None)
                if due is not None:
                    try:
                        churned.append((due[0], self.op_close(due[1])))
                        tally.ok()
                    except Exception as exc:
                        tally.fail(f"churn close at update {i} raised {exc!r}")
            if now() >= deadline:
                break
        phase.finish()
        phase.work = len(visible)
        phase.extra.update(
            times=times,
            pushes=pushes,
            read_at=read_at,
            seen=seen,
            churned=churned,
            open_churn=list(churn.values()),
            session_ids=[s.session_id for s in sessions],
            stats=client.stats(),
        )
        return phase

    def finish(self, stack: _ServingStack, inputs: dict, phase: Phase) -> None:
        """After the timed loop: final answers at the horizon (and, on
        the durable workload, the kill, the failover and the timed
        recoveries).  Not part of the loop's wall."""
        tally: Tally = inputs["tally"]
        times = phase.extra["times"]
        if not times:
            return
        horizon = times[-1] + 1.0
        phase.extra["horizon"] = horizon
        if self.durable:
            self._fail_over_and_recover(stack, phase, tally)
        for _, session in phase.extra.pop("open_churn"):
            try:
                self.op_close(session)
                tally.ok()
            except Exception as exc:
                tally.fail(f"churn close after the loop raised {exc!r}")
        finals = []
        closes = phase.sample("close")
        for j, session in enumerate(stack.sessions):
            w0, c0 = now(), cpu()
            try:
                finals.append(self.op_close(session, horizon))
                closes.append(Timing(now() - w0, cpu() - c0))
                tally.ok()
            except Exception as exc:
                finals.append(None)
                tally.fail(f"final close of session {j} raised {exc!r}")
        phase.extra["finals"] = finals

    def _recover(self, directory: str):
        """Recovery is done when the rebuilt server answers ``members``
        for every session."""
        recovered = self.op_recover(directory)
        return recovered, [s.members for s in recovered.sessions()]

    def _fail_over_and_recover(self, stack, phase: Phase, tally: Tally) -> None:
        stack.net.kill()
        start = now()
        try:
            after = self.op_read(stack.sessions[0])
            phase.extra["failover_s"] = now() - start
            tally.check(
                stack.standby.is_promoted, "request answered but the standby never promoted"
            )
            phase.extra["after_failover"] = after
        except Exception as exc:
            tally.fail(f"no endpoint answered after the primary was killed: {exc!r}")
        recover = phase.sample("recover")
        directory = os.path.join(stack.path, "primary")
        for _ in range(self.recover_repeats):
            try:
                (recovered, members), timing = Pace().timed(self._recover, directory)
            except Exception as exc:
                tally.fail(f"recover_server raised {exc!r}")
                continue
            recover.append(timing)
            tally.ok()
            phase.extra["recovered"] = {
                s.session_id: m for s, m in zip(recovered.sessions(), members)
            }
            phase.extra["recovered_tail"] = recovered.recovered_tail
            recovered.journal.close()

    def probe_inputs(self, inputs: dict):
        return (
            inputs["build_db"],
            distinct_specs(inputs["specs"])[0],
            inputs["updates"][:PROBE_UPDATES],
        )

    # -- checks ---------------------------------------------------------------
    def verify(self, inputs: dict, phases: Sequence[Phase], tally: Tally) -> None:
        specs = inputs["specs"]
        count = max(phase.work for phase in phases)
        if count == 0:
            tally.fail("no update completed")
            return
        updates = inputs["updates"][:count]
        longest = max(phases, key=lambda p: p.work)
        distinct, where = distinct_specs(specs)
        mirror = Mirror(inputs["build_db"], distinct, updates, longest.extra["horizon"])
        for phase in phases:
            self._verify_phase(phase, mirror, where, count, tally)
        # The references that share nothing with the serving path, on
        # the longest phase's final answers.
        finals = longest.extra.get("finals", [])
        times = longest.extra["times"]
        instants = probe_times(times, 16)
        for j, spec in enumerate(specs[:4]):
            if j < len(finals) and finals[j] is not None:
                check_instants(tally, self.name, spec, finals[j], mirror.db, instants)
        horizon = longest.extra["horizon"]
        tail = Interval(horizon - 0.5, horizon)
        checked = set()
        for j, spec in enumerate(specs[:4]):
            if j >= len(finals) or finals[j] is None or spec.kind in checked:
                continue
            checked.add(spec.kind)
            if spec.kind == "within":
                check_naive(
                    tally, self.name, spec, finals[j], mirror.db,
                    Interval(finals[j].interval.lo, horizon),
                )
            elif spec.kind == "knn":  # O(N^2) pairs: a trailing window, one spec
                check_naive(tally, self.name, spec, finals[j], mirror.db, tail)
        for spec, answer in longest.extra["churned"][:: max(1, len(longest.extra["churned"]) // 8)]:
            if answer is not None:
                window = answer.interval
                check_instants(
                    tally, self.name + " churn", spec, answer, mirror.db,
                    probe_times([window.lo, window.hi], 1),
                )

    def _verify_phase(self, phase: Phase, mirror: Mirror, where, count: int, tally: Tally) -> None:
        n = phase.work
        for j, on in enumerate(self.subscribed):
            if not on:
                continue
            got = phase.extra["pushes"][j]
            want = mirror.expected_pushes(where[j], n)
            tally.check(
                got == want,
                f"{self.name}: session {j} saw {len(got)} answer_change pushes, "
                f"the mirror expects {len(want)} (or their contents differ)",
            )
        bad_reads = 0
        for j, changes in enumerate(phase.extra["seen"]):
            held, k = None, 0
            for i in phase.extra["read_at"]:
                if k < len(changes) and changes[k][0] == i:
                    held, k = changes[k][1], k + 1
                if held != mirror.digest_after(where[j], i):
                    bad_reads += 1
        tally.check(bad_reads == 0, f"{self.name}: {bad_reads} reads differ from the mirror")
        finals = phase.extra.get("finals", [])
        horizon = phase.extra["horizon"]
        upto = horizon if n == count else phase.extra["times"][-1]
        for j, final in enumerate(finals):
            if final is None:
                continue
            want = mirror.finals[where[j]]
            lo = (want[min(want)] if isinstance(want, dict) else want).interval.lo
            tally.check(
                answers_equal(clip(final, lo, upto), clip(want, lo, upto)),
                f"{self.name}: final answer of session {j} differs from the mirror",
            )
        if self.durable:
            last = n - 1
            if "after_failover" in phase.extra:
                tally.check(
                    phase.extra["after_failover"] == mirror.members_after(where[0], last),
                    f"{self.name}: promoted standby's answer differs from the mirror",
                )
            recovered = phase.extra.get("recovered")
            if recovered is not None:
                wrong = sum(
                    1
                    for j, sid in enumerate(phase.extra["session_ids"])
                    if recovered.get(sid) != mirror.members_after(where[j], last)
                )
                tally.check(
                    wrong == 0,
                    f"{self.name}: {wrong} recovered sessions differ from the mirror",
                )


class ServeCrossing(ServingWorkload):
    """Incremental Theorem-5 maintenance under a chdir-heavy,
    crossing-rich stream through the whole serving path."""

    name = "serve_crossing"
    objects = 200
    specs = cycled_specs(8, [(0.0, 0.0), (30.0, -20.0)])
    subscribed = [i % 2 == 0 for i in range(8)]
    stream_kwargs = dict(mean_gap=0.05, weights=(0.1, 0.1, 0.8))
    max_updates = 1500
    churn_every = 10
    roles = {"answer": "update -> visible at the subscriber", "second": "churn open_knn (new group)"}
    second = "open"

    def base_db(self):
        return random_linear_mod(self.objects, seed=BASE_SEED)


class FanoutReads(ServingWorkload):
    """Reads beside writes with little sweep work (Corollary-6 regime:
    ranks almost never cross): the wire, the codec and the session
    layer carry the loop."""

    name = "fanout_reads"
    objects = 200
    # Not within 40: banded_mod(band_gap=1.0) parks o30 at radius exactly
    # 40, tangent to that threshold, and the sweep and the naive baseline
    # then disagree about a 1e-5-long membership.
    specs = cycled_specs(32, [(0.0, 0.0)], within=40.5)
    subscribed = [True] * 32
    stream_kwargs = dict(mean_gap=0.05, extent=30, speed=0.2, weights=(0.3, 0.3, 0.4))
    max_updates = 4000
    read_every = 1
    roles = {"answer": "update -> visible at the subscriber", "second": "members read"}
    second = "read"

    def base_db(self):
        return banded_mod(self.objects, seed=BASE_SEED, band_gap=1.0)


class DurableFailover(ServingWorkload):
    """fsync journal + synchronous warm standby, then a primary kill:
    replication does most of the work."""

    name = "durable_failover"
    objects = 100
    specs = cycled_specs(16, [(0.0, 0.0)])
    subscribed = [True] * 16
    stream_kwargs = dict(mean_gap=0.05)
    max_updates = 600
    durable = True
    roles = {"answer": "update -> visible at the subscriber", "second": "recover_server after the kill"}
    second = "recover"

    def base_db(self):
        return random_linear_mod(self.objects, seed=BASE_SEED)


WORKLOADS: Dict[str, Callable[..., object]] = {
    cls.name: cls for cls in (PastSweep, ServeCrossing, FanoutReads, DurableFailover)
}

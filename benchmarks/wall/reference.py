"""Reference answers the benchmark checks the program against.

Three references, in rising independence from the code under test:

- the **mirror** — an in-process :class:`~repro.server.QueryServer`
  fed the same update stream, no TCP, no journal: what every pushed
  ``answer_change``, probe read and final answer must equal;
- :mod:`repro.baselines.naive` — the no-sweep ``O(N^2)`` evaluator,
  on a window per workload;
- **brute force at an instant** — positions straight off the final
  MOD's trajectories, ranked; shares nothing with the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.baselines.naive import naive_knn_answer, naive_within_answer
from repro.core.api import serve
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.parallel.merge import clip_answer

from harness import Tally, median, now

ANSWER_ATOL = 1e-6

#: Same irrational fraction the repo's differential oracle uses, so an
#: instant probe never lands on an update timestamp or a rational tie.
PROBE_FRACTION = 0.41421356237309515


@dataclass(frozen=True)
class Spec:
    """One continuous query: ``kind`` at ``point`` with its parameter
    (``k`` for knn, Euclidean ``distance`` for within, ``ks`` for
    multiknn)."""

    kind: str
    point: Tuple[float, float]
    param: object

    def open(self, client):
        point = list(self.point)
        if self.kind == "knn":
            return client.open_knn(point, k=self.param)
        if self.kind == "within":
            return client.open_within(point, distance=self.param)
        return client.open_multiknn(point, ks=list(self.param))

    def register(self, server):
        point = list(self.point)
        if self.kind == "knn":
            return server.register_knn(point, k=self.param)
        if self.kind == "within":
            return server.register_within(point, self.param)
        return server.register_multiknn(point, self.param)

    def gdistance(self) -> SquaredEuclideanDistance:
        return SquaredEuclideanDistance(list(self.point))

    def naive(self, db, window: Interval):
        gd = self.gdistance()
        if self.kind == "knn":
            return naive_knn_answer(db, gd, window, self.param)
        if self.kind == "within":
            return naive_within_answer(db, gd, window, self.param**2)
        return {k: naive_knn_answer(db, gd, window, k) for k in self.param}

    def brute(self, db, t: float):
        """The answer at instant ``t`` from trajectory positions."""
        px, py = self.point
        ranked = []
        for oid, traj in db.all_items():
            if traj.defined_at(t):
                x, y = traj.position(t)
                ranked.append(((x - px) ** 2 + (y - py) ** 2, str(oid), oid))
        ranked.sort()
        if self.kind == "within":
            limit = self.param**2
            return {oid for d2, _, oid in ranked if d2 <= limit}
        if self.kind == "knn":
            return {oid for _, _, oid in ranked[: self.param]}
        return {k: {oid for _, _, oid in ranked[:k]} for k in self.param}


def digest(members) -> int:
    """A number standing for one instant answer.  The loop keeps these
    instead of the member sets it reads — tens of thousands of sets
    would be the harness's memory, not the program's — and the mirror's
    members are compared by the same digest (same process, same string
    hashing)."""
    if isinstance(members, dict):
        return hash(tuple(sorted((k, hash(frozenset(v))) for k, v in members.items())))
    return hash(frozenset(members))


def answers_equal(a, b, atol: float = ANSWER_ATOL) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, dict) or isinstance(b, dict):
        return (
            isinstance(a, dict)
            and isinstance(b, dict)
            and set(a) == set(b)
            and all(a[k].approx_equals(b[k], atol=atol) for k in a)
        )
    return a.approx_equals(b, atol=atol)


def answer_at(answer, t: float):
    if isinstance(answer, dict):
        return {k: v.at(t) for k, v in answer.items()}
    return answer.at(t)


def clip(answer, lo: float, hi: float):
    if isinstance(answer, dict):
        return {k: clip_answer(v, lo, hi) for k, v in answer.items()}
    return clip_answer(answer, lo, hi)


def probe_times(times: Sequence[float], count: int) -> List[float]:
    """``count`` instants strictly between consecutive ``times``."""
    gaps = list(zip(times, times[1:]))
    if not gaps:
        return []
    step = max(1, len(gaps) // count)
    return [lo + PROBE_FRACTION * (hi - lo) for lo, hi in gaps[::step] if hi > lo]


def check_instants(
    tally: Tally, label: str, spec: Spec, answer, db, times: Sequence[float]
) -> None:
    """``answer`` must agree with brute force at each of ``times``."""
    for t in times:
        tally.check(
            answer_at(answer, t) == spec.brute(db, t),
            f"{label}: {spec.kind} answer differs from brute force at t={t:.6f}",
        )


def check_naive(
    tally: Tally, label: str, spec: Spec, answer, db, window: Interval
) -> None:
    """``answer`` clipped to ``window`` must equal the naive baseline."""
    tally.check(
        answers_equal(clip(answer, window.lo, window.hi), spec.naive(db, window), 1e-5),
        f"{label}: {spec.kind} answer differs from repro.baselines.naive on {window}",
    )


class Mirror:
    """The in-process run of one update stream: per-update members for
    every spec, final answers, and — because it *is* the ``server``
    layer with nothing around it — that layer's timings."""

    def __init__(
        self,
        build_db: Callable[[], object],
        specs: Sequence[Spec],
        updates: Sequence[object],
        horizon: float,
    ) -> None:
        db = build_db()
        server = serve(db)
        register: List[float] = []
        sessions = []
        for spec in specs:
            start = now()
            sessions.append(spec.register(server))
            register.append(now() - start)
        self.baseline = [s.members for s in sessions]
        self.members: List[list] = []
        apply_s: List[float] = []
        members_s: List[float] = []
        ops_before = server.primitive_ops()
        for update in updates:
            start = now()
            db.apply(update)
            apply_s.append(now() - start)
            row = []
            for session in sessions:
                start = now()
                row.append(session.members)
                members_s.append(now() - start)
            self.members.append(row)
        self.groups = server.group_count
        self.ops_per_update = (
            (server.primitive_ops() - ops_before) / len(updates) if updates else 0.0
        )
        self.digests = [[digest(m) for m in row] for row in self.members]
        self.finals = [s.close(at=horizon) for s in sessions]
        server.shutdown()
        self.db = db
        self.update_ms = median(apply_s) * 1e3
        self.members_us = median(members_s) * 1e6
        self.register_ms = median(register) * 1e3

    def members_after(self, spec_index: int, update_index: int):
        """The answer of one spec after the update at ``update_index``
        (``-1``: before any)."""
        if update_index < 0:
            return self.baseline[spec_index]
        return self.members[update_index][spec_index]

    def digest_after(self, spec_index: int, update_index: int) -> int:
        return self.digests[update_index][spec_index]

    def expected_pushes(self, spec_index: int, count: int) -> List[Tuple[int, int]]:
        """The ``answer_change`` events a subscriber of this spec must
        see over the first ``count`` updates — one whenever the members
        differ from what it last held — as ``(update index, digest)``."""
        held = self.baseline[spec_index]
        out = []
        for i in range(count):
            current = self.members[i][spec_index]
            if current != held:
                out.append((i, self.digests[i][spec_index]))
                held = current
        return out


def distinct_specs(specs: Sequence[Spec]) -> Tuple[List[Spec], Dict[int, int]]:
    """Sessions with the same spec hold the same answer: mirror each
    distinct spec once.  Returns the distinct list and session-index →
    distinct-index."""
    distinct: List[Spec] = []
    where: Dict[Spec, int] = {}
    mapping: Dict[int, int] = {}
    for i, spec in enumerate(specs):
        if spec not in where:
            where[spec] = len(distinct)
            distinct.append(spec)
        mapping[i] = where[spec]
    return distinct, mapping

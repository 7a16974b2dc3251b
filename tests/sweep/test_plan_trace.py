"""The plan did not move: every decision of every plan, pinned.

The op-count gates see sums.  This test sees each decision: one row per
re-bar of a live rank host (:class:`~repro.sweep.live.LiveSweep`) of an
in-process :class:`QueryServer` carrying ``serve_crossing``'s eight
sessions through the first 600 updates of its stream, with a
fresh-point knn session opened every ten updates and closed ten later —
the reason, ``tau``, the bar ``T``, the members and the bound checks
the re-bar spent — plus :func:`plan_sweep`'s slices for
``past_sweep``'s two rank one-shot queries.  Floats are compared by
their IEEE-754 bits.  A range reading has no bar of its own: its
sessions build no host that re-bars.

The one-shot rows were recorded before the plan pass's kernels were
rewritten (closed-form Taylor keys, the lean curve store); the live
rows when the bar replaced the horizon planner.  Regenerate with
``PYTHONPATH=src python tests/sweep/test_plan_trace.py >
tests/sweep/plan_trace_pin.json`` only for an intentional planner
change.
"""

import json
import os
import struct
import sys

from repro.cache import CurveStore
from repro.core.spec import QuerySpec
from repro.geometry.intervals import Interval
from repro.server import QueryServer
from repro.sweep.live import _Bar
from repro.sweep.prune import plan_sweep
from repro.workloads.generator import UpdateStream, random_linear_mod

PIN = os.path.join(os.path.dirname(__file__), "plan_trace_pin.json")

#: ``serve_crossing``'s sessions: knn 1 / within 40 / multiknn (1, 3) /
#: knn 3, alternating between two query points.
SESSIONS = [
    (("knn", 1), ("within", 40.0), ("multiknn", (1, 3)), ("knn", 3))[i % 4]
    + ([(0.0, 0.0), (30.0, -20.0)][i % 2],)
    for i in range(8)
]
UPDATES = 600
CHURN_EVERY = 10


def bits(x):
    """A float as its IEEE-754 bits (``None`` stays ``None``)."""
    return None if x is None else struct.pack(">d", x).hex()


def _churn_point(index):
    # The same low-discrepancy walk the wall benchmark's churn takes.
    return [
        ((index * 0.6180339887) % 1.0) * 100.0 - 50.0,
        ((index * 0.7548776662) % 1.0) * 100.0 - 50.0,
    ]


def _open(server, kind, param, point):
    if kind == "knn":
        return server.register_knn(point, k=param)
    if kind == "within":
        return server.register_within(point, param)
    return server.register_multiknn(point, ks=param)


def live_trace():
    """One row per re-bar of every live rank host, in the order they
    ran."""
    rows = []
    hosts = {}  # id -> (number, bar): held, so no id is reused
    rebar = _Bar.rebar

    def recording(self, tau, reason, k=None):
        checks = self.bound_checks
        rebar(self, tau, reason, k)
        number = hosts.setdefault(id(self), (len(hosts), self))[0]
        rows.append(
            [
                number,
                reason,
                bits(tau),
                bits(self.threshold),
                self.member_ids(),
                self.bound_checks - checks,
            ]
        )

    _Bar.rebar = recording
    try:
        db = random_linear_mod(200, seed=1)
        server = QueryServer(db)
        held = [_open(server, *session) for session in SESSIONS]
        stream = UpdateStream(db, seed=2, mean_gap=0.05, weights=(0.1, 0.1, 0.8))
        churn = {}
        for i in range(UPDATES):
            stream.step()
            if i % CHURN_EVERY == 0:
                churn[i + CHURN_EVERY] = server.register_knn(_churn_point(i), k=2)
                due = churn.pop(i, None)
                if due is not None:
                    due.close()
        for session in [*churn.values(), *held]:
            session.close()
    finally:
        _Bar.rebar = rebar
    return rows


def past_trace():
    """``plan_sweep``'s decision for each of ``past_sweep``'s rank
    queries."""
    db = random_linear_mod(400, seed=1)
    window = Interval(0.0, 2.0)
    out = []
    for spec in (
        QuerySpec.knn([0.0, 0.0], 5),
        QuerySpec.multiknn([0.0, 0.0], (1, 5, 10)),
    ):
        plan = plan_sweep(db, spec, window, CurveStore())
        out.append(
            {
                "kind": spec.kind,
                "objects": plan.objects,
                "slices": [
                    [bits(s.lo), bits(s.hi), list(s.candidates), s.overlap_pairs]
                    for s in plan.slices
                ],
            }
        )
    return out


def trace():
    return {"live": live_trace(), "past": past_trace()}


def test_every_plan_is_the_pinned_plan():
    with open(PIN, encoding="utf-8") as handle:
        pinned = json.load(handle)
    got = json.loads(json.dumps(trace()))
    assert got["past"] == pinned["past"]
    assert len(got["live"]) == len(pinned["live"])
    for i, (row, want) in enumerate(zip(got["live"], pinned["live"])):
        assert row == want, f"plan {i} moved"


def test_the_pin_covers_rank_plans():
    with open(PIN, encoding="utf-8") as handle:
        live = json.load(handle)["live"]
    assert {row[1] for row in live} >= {"tenant", "raise"}
    assert all(row[4] for row in live), "every re-bar kept members"


if __name__ == "__main__":
    # One plan (or one past query) per line.
    recorded = trace()
    for key in ("live", "past"):
        lines = ",\n".join(json.dumps(row, sort_keys=True) for row in recorded[key])
        recorded[key] = f"[\n{lines}\n]"
    sys.stdout.write(
        '{"live": %s,\n"past": %s}\n' % (recorded["live"], recorded["past"])
    )

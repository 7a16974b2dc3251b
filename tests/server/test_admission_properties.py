"""Property-based tests (hypothesis) for admission-control invariants.

The four invariants under test, each over randomized worlds, session
mixes, and interleavings:

1. **Close is terminal** — a closed session never yields another
   answer: every later read raises ``SessionClosedError`` while the
   final answer stays readable.
2. **Shed is typed** — sessions dropped by load shedding raise
   ``SessionShedError`` on every subsequent operation, and exactly the
   shed sessions do so.
3. **No silent drops** — every registration either raises
   ``AdmissionError`` synchronously or yields a session the server
   tracks to a terminal state; queued sessions activate FIFO as
   capacity frees and every activated session produces an answer.
4. **Registration-order invariance** — sessions registered at the same
   timestamp produce identical members/answers regardless of the order
   in which they were registered (shared-view refcounting and group
   keying must be order-insensitive).
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.api import serve
from repro.geometry.vectors import Vector
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New, Terminate
from repro.server import (
    AdmissionError,
    ServerConfig,
    SessionClosedError,
    SessionShedError,
)
from tests._oracle import answers_equal

SETTINGS = settings(max_examples=40)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def worlds(draw):
    """A small MOD plus a short chronological update stream.

    Coordinates are integers so hypothesis shrinks cleanly; times are
    the fixed grid 1.0, 2.0, ... so streams are always chronological.
    """
    n = draw(st.integers(3, 5))
    coord = st.integers(-8, 8)
    vel = st.integers(-3, 3)
    initial = []
    for i in range(n):
        initial.append(
            New(
                f"o{i}",
                0.01 * (i + 1),
                velocity=Vector.of(float(draw(vel)), float(draw(vel))),
                position=Vector.of(float(draw(coord)), float(draw(coord))),
            )
        )
    live = [u.oid for u in initial]
    events = []
    for j in range(draw(st.integers(2, 6))):
        t = 1.0 + j
        kind = draw(st.sampled_from(("chdir", "chdir", "chdir", "term")))
        if kind == "term" and len(live) > 2:
            events.append(Terminate(live.pop(0), t))
        else:
            events.append(
                ChangeDirection(
                    draw(st.sampled_from(live)),
                    t,
                    Vector.of(float(draw(vel)), float(draw(vel))),
                )
            )
    return initial, events


def session_specs():
    knn = st.integers(1, 3).map(lambda k: ("knn", {"k": k}))
    within = st.sampled_from([20.0, 80.0, 200.0]).map(
        lambda d: ("within", {"threshold": d})
    )
    multi = st.sampled_from([(1, 2), (1, 3), (2, 3)]).map(
        lambda ks: ("multiknn", {"ks": ks})
    )
    return st.one_of(knn, within, multi)


def _build_db(initial):
    db = MovingObjectDatabase(initial_time=0.0)
    for update in initial:
        db.apply(update)
    return db


def _register(server, spec, priority=0):
    kind, params = spec
    if kind == "knn":
        return server.register_knn(
            SquaredEuclideanDistance([0.0, 0.0]), k=params["k"],
            priority=priority,
        )
    if kind == "within":
        return server.register_within(
            SquaredEuclideanDistance([0.0, 0.0]), params["threshold"],
            priority=priority,
        )
    return server.register_multiknn(
        SquaredEuclideanDistance([0.0, 0.0]), params["ks"],
        priority=priority,
    )


# ---------------------------------------------------------------------------
# 1. Close is terminal
# ---------------------------------------------------------------------------
@SETTINGS
@given(world=worlds(), specs=st.lists(session_specs(), min_size=1, max_size=4))
def test_no_answers_after_close(world, specs):
    initial, events = world
    db = _build_db(initial)
    server = serve(db)
    try:
        sessions = [_register(server, spec) for spec in specs]
        for update in events:
            db.apply(update)
        horizon = (events[-1].time if events else 0.1) + 1.0
        for session in sessions:
            answer = session.close(at=horizon)
            assert answer is not None
            assert session.answer is answer
        for session in sessions:
            for op in (
                lambda s: s.members,
                lambda s: s.advance_to(horizon + 1.0),
                lambda s: s.close(),
                lambda s: s.current_time,
            ):
                try:
                    op(session)
                except SessionClosedError:
                    pass
                else:
                    raise AssertionError(
                        "a closed session served another read"
                    )
            # ...but the final answer must survive indefinitely.
            assert session.answer is not None
    finally:
        server.shutdown()


# ---------------------------------------------------------------------------
# 2. Shed sessions raise their typed error
# ---------------------------------------------------------------------------
@SETTINGS
@given(
    world=worlds(),
    specs=st.lists(
        st.tuples(session_specs(), st.integers(0, 3)),
        min_size=2,
        max_size=5,
    ),
)
def test_shed_sessions_raise_typed_error(world, specs):
    initial, events = world
    db = _build_db(initial)
    # A sub-unity ceiling over a 1-update window sheds on every flush
    # that costs any sweep work at all.
    server = serve(
        db, ServerConfig(op_rate_ceiling=1e-6, op_rate_window=1)
    )
    try:
        sessions = [
            _register(server, spec, priority=prio) for spec, prio in specs
        ]
        for update in events:
            db.apply(update)
        shed = [s for s in sessions if s.state == "shed"]
        assert len(shed) == server.stats.shed
        for session in shed:
            for op in (
                lambda s: s.members,
                lambda s: s.advance_to(events[-1].time + 1.0),
                lambda s: s.close(),
            ):
                try:
                    op(session)
                except SessionShedError:
                    pass
                else:
                    raise AssertionError(
                        "a shed session served a read without its "
                        "typed error"
                    )
        # Survivors stay fully serviceable: never a silent drop.
        for session in sessions:
            if session.state == "active":
                assert session.close(at=events[-1].time + 1.0) is not None
    finally:
        server.shutdown()


# ---------------------------------------------------------------------------
# 3. Accepted sessions are never silently dropped
# ---------------------------------------------------------------------------
@SETTINGS
@given(
    world=worlds(),
    specs=st.lists(session_specs(), min_size=1, max_size=8),
    budget=st.integers(1, 3),
    max_queued=st.integers(0, 4),
)
def test_accepted_sessions_never_silently_dropped(
    world, specs, budget, max_queued
):
    initial, events = world
    db = _build_db(initial)
    server = serve(
        db,
        ServerConfig(
            max_sessions=budget,
            admission_policy="queue",
            max_queued=max_queued,
        ),
    )
    try:
        accepted, rejected = [], 0
        for spec in specs:
            try:
                accepted.append(_register(server, spec))
            except AdmissionError:
                rejected += 1
        assert rejected == server.stats.rejected
        # Every accepted session is tracked, in a well-defined state.
        tracked = set(server.sessions())
        for session in accepted:
            assert session in tracked
            assert session.state in ("active", "queued")
        active = [s for s in accepted if s.state == "active"]
        queued = [s for s in accepted if s.state == "queued"]
        assert len(active) <= budget
        assert len(queued) <= max_queued
        for update in events:
            db.apply(update)
        horizon = (events[-1].time if events else 0.1) + 1.0
        # Draining actives promotes the queue strictly FIFO.
        order = []
        while active:
            assert active[0].close(at=horizon) is not None
            active.pop(0)
            promoted = [s for s in queued if s.state == "active"]
            for session in promoted:
                order.append(queued.index(session))
                active.append(session)
                queued.remove(session)
        assert order == sorted(order), "queue promotion was not FIFO"
        assert not queued, "capacity freed but sessions stayed queued"
        # Terminal accounting: nothing vanished.
        states = [s.state for s in accepted]
        assert all(state == "closed" for state in states)
        assert server.stats.closed == len(accepted)
        assert (
            server.stats.registered
            == len(accepted) + server.stats.rejected
        )
    finally:
        server.shutdown()


# ---------------------------------------------------------------------------
# 4. Same-timestamp registration order never changes answers
# ---------------------------------------------------------------------------
@SETTINGS
@given(
    world=worlds(),
    specs=st.lists(session_specs(), min_size=2, max_size=4),
    data=st.data(),
)
def test_registration_order_invariance(world, specs, data):
    initial, events = world
    permutation = data.draw(st.permutations(range(len(specs))))
    db_a = _build_db(initial)
    db_b = _build_db(initial)
    server_a = serve(db_a)
    server_b = serve(db_b)
    try:
        sessions_a = [_register(server_a, spec) for spec in specs]
        sessions_b_perm = [
            _register(server_b, specs[i]) for i in permutation
        ]
        # Undo the permutation so index i matches spec i on both sides.
        sessions_b = [None] * len(specs)
        for slot, i in enumerate(permutation):
            sessions_b[i] = sessions_b_perm[slot]
        for update in events:
            db_a.apply(update)
            db_b.apply(update)
            probe = update.time + 0.41421356237309515
            for a, b in zip(sessions_a, sessions_b):
                ma, mb = a.advance_to(probe), b.advance_to(probe)
                if isinstance(ma, dict):
                    ma = {k: set(v) for k, v in ma.items()}
                    mb = {k: set(v) for k, v in mb.items()}
                else:
                    ma, mb = set(ma), set(mb)
                assert ma == mb, (
                    f"members diverged under registration order "
                    f"{permutation}: {ma} != {mb}"
                )
        horizon = (events[-1].time if events else 0.1) + 1.0
        for a, b in zip(sessions_a, sessions_b):
            assert a.start == b.start
            assert answers_equal(a.close(at=horizon), b.close(at=horizon)), (
                f"final answers diverged under registration order "
                f"{permutation}"
            )
    finally:
        server_a.shutdown()
        server_b.shutdown()

"""One birth rule: every engine pool's host is born at its source's
``tau``, and a session's ``start`` only bounds its window.

Held here, for plain and supervised sessions alike:

- a ``start`` before ``tau`` over recorded history (turns, a recorded
  ``terminate``) answers ``[start, close]`` exactly — the one-shot and
  the naive baseline agree — and a supervised session sees no fault;
- a ``start`` after ``tau`` takes an update between the two in the
  host's future: no error out of ``db.apply``, no heal, no WARNING;
- a window wholly before ``tau`` closes over all of it;
- an installed finite trajectory whose host member left the bar before
  its recorded end dies without a trace in the engine.
"""

import logging
import random

import pytest

from repro.baselines.naive import naive_knn_answer
from repro.core.api import ContinuousQuerySession, evaluate_knn, evaluate_within
from repro.gdist.derived import ApproachRate
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.geometry.vectors import Vector
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, Terminate
from repro.resilience.supervisor import SupervisedQuerySession
from repro.trajectory.builder import from_waypoints
from repro.workloads.generator import random_linear_mod

POINT = [0.0, 0.0]

OWNERS = {
    "plain": ContinuousQuerySession,
    "supervised": SupervisedQuerySession,
}

GDISTANCES = {
    "squared": SquaredEuclideanDistance,
    "rate": ApproachRate,
}


def _recorded_history(seed):
    """Eight objects, 25 recorded turns and one recorded ``terminate``
    over ``(0, 3]``: ``tau`` lies well after a session's ``start``."""
    rng = random.Random(seed)
    db = random_linear_mod(8, seed=seed)
    times = sorted(rng.uniform(0.05, 3.0) for _ in range(26))
    for t in times[:25]:
        velocity = Vector([rng.uniform(-5, 5), rng.uniform(-5, 5)])
        db.apply(ChangeDirection(f"o{rng.randrange(8)}", t, velocity))
    db.apply(Terminate(f"o{rng.randrange(8)}", times[25]))
    return db


def _assert_no_heal(session, caplog):
    if isinstance(session, SupervisedQuerySession):
        assert session.stats.failures == 0
        assert session.stats.rebuilds == 0
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


# -- a start before tau: the span before the birth is a past query -------
# Seeds on which a host swept from ``start`` over this history fails: a
# member terminated after leaving it (squared 29), a turn behind its
# clock (rate 10), a misplaced point membership and no error (rate 57).
@pytest.mark.parametrize("owner", list(OWNERS))
@pytest.mark.parametrize(
    "gd_name, seed", [("squared", 29), ("rate", 10), ("rate", 57)]
)
def test_a_start_before_tau_answers_the_recorded_history(
    owner, gd_name, seed, caplog
):
    db = _recorded_history(seed)
    gd = GDISTANCES[gd_name](POINT)
    end = db.last_update_time + 1.0
    with caplog.at_level(logging.WARNING):
        session = OWNERS[owner].knn(db, gd, k=2, start=0.5)
        session.advance_to(end)
        got = session.close()
    assert got.interval == Interval(0.5, end)
    want = evaluate_knn(db, gd, Interval(0.5, end), k=2)
    assert got.approx_equals(want, atol=1e-6)
    rng = random.Random(seed)
    for t in sorted(rng.uniform(0.5, end) for _ in range(12)):
        assert got.at(t) == naive_knn_answer(db, gd, Interval(t, t), 2).at(t), t
    _assert_no_heal(session, caplog)


# -- a start after tau: an update before it lands in the host's future ----
KINDS = {
    "knn": (
        lambda cls, db: cls.knn(db, POINT, k=2, start=3.0),
        lambda db, w: evaluate_knn(db, POINT, w, k=2),
    ),
    "within": (
        lambda cls, db: cls.within(db, POINT, 40.0, start=3.0),
        lambda db, w: evaluate_within(db, POINT, w, 40.0),
    ),
}


@pytest.mark.parametrize("owner", list(OWNERS))
@pytest.mark.parametrize("kind", list(KINDS))
def test_a_start_after_tau_takes_earlier_updates_in_its_future(
    owner, kind, caplog
):
    db = random_linear_mod(20, seed=1)
    opened, cold = KINDS[kind]
    with caplog.at_level(logging.WARNING):
        session = opened(OWNERS[owner], db)
        db.apply(ChangeDirection("o0", 1.0, Vector.of(-2.0, 1.0)))
        db.apply(ChangeDirection("o1", 4.0, Vector.of(1.0, -3.0)))
        got = session.close(at=6.0)
    assert got.interval == Interval(3.0, 6.0)
    assert got.approx_equals(cold(db, Interval(3.0, 6.0)), atol=1e-6)
    _assert_no_heal(session, caplog)


# -- a window wholly before tau closes over all of it ----------------------
@pytest.mark.parametrize("owner", list(OWNERS))
def test_a_window_before_tau_closes_over_all_of_it(owner):
    db = random_linear_mod(12, seed=3)
    for i, t in enumerate([0.4, 1.1, 1.8, 2.5, 3.2]):
        db.apply(ChangeDirection(f"o{i}", t, Vector.of(1.0 - i, 0.5 * i)))
    assert db.last_update_time == 3.2
    session = OWNERS[owner].knn(db, POINT, k=2, start=0.5, until=2.0)
    got = session.close()
    assert got.interval == Interval(0.5, 2.0)
    assert got.approx_equals(
        evaluate_knn(db, POINT, Interval(0.5, 2.0), k=2), atol=1e-6
    )


# -- an installed finite trajectory that left the bar dies quietly --------
def test_an_installed_member_that_left_dies_without_a_trace():
    db = MovingObjectDatabase()
    db.install("o0", from_waypoints([(0, [1, 0]), (10, [101, 0])], extend=False))
    for i, x in enumerate([10, 20, 30, 40], 1):
        db.install(f"o{i}", from_waypoints([(0, [x, 0]), (1, [x, 0])]))
    session = ContinuousQuerySession.knn(db, POINT, k=1)
    assert session.advance_to(11) == {"o1"}
    got = session.close()
    assert got.interval == Interval(0.0, 11.0)
    assert got.approx_equals(evaluate_knn(db, POINT, Interval(0.0, 11.0), k=1))

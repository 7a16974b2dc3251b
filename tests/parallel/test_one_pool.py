"""One engine pool: every server and supervised live sweep is an
:class:`~repro.server.group.EngineGroup`.

Held here: the pool's one fault rule (a caller's bad argument is not an
engine failure, on every owner), a supervised close that answers
exactly ``[start, at]``, and the pool's window read — exact over
``[lo, end]`` however often its engine was rebuilt, byte-equal to the
cold one-shot query.
"""

import logging

import pytest

from repro.core.api import (
    evaluate_knn,
    evaluate_multiknn,
    evaluate_within,
    serve,
)
from repro.core.spec import QuerySpec
from repro.geometry.intervals import Interval
from repro.geometry.vectors import Vector
from repro.io import answer_to_dict
from repro.mod.updates import ChangeDirection, New
from repro.resilience.supervisor import SupervisedQuerySession
from repro.server.group import EngineGroup
from repro.trajectory.builder import linear_from
from repro.workloads.generator import random_linear_mod

from tests._oracle import KNN, WITHIN


POINT = [0.0, 0.0]


def _dump(answer):
    if isinstance(answer, dict):
        return {k: answer_to_dict(a) for k, a in answer.items()}
    return answer_to_dict(answer)


# -- a caller's bad argument is not an engine failure ---------------------
def _supervised(db, **options):
    session = SupervisedQuerySession.knn(db, POINT, k=2, **options)
    return session, lambda: vars(session.stats).copy()


def _server(db):
    server = serve(db)
    session = server.register_knn(POINT, k=2)
    return session, lambda: server.stats.rebuilds


OWNERS = {
    "supervised": _supervised,
    "server session": _server,
}


@pytest.mark.parametrize("owner", list(OWNERS))
def test_a_bad_argument_heals_nothing(owner, caplog):
    db = random_linear_mod(20, seed=1)
    session, heals = OWNERS[owner](db)
    before = heals()
    with caplog.at_level(logging.WARNING):
        with pytest.raises(TypeError):
            session.advance_to("x")
    assert heals() == before
    assert not caplog.records
    session.close(at=1.0)


# -- a supervised close behind the clock answers [start, at] --------------
@pytest.mark.parametrize("start", [None, 3])
def test_a_supervised_close_behind_the_clock_is_not_widened(start):
    """Whether the session starts at the MOD's clock (``None``) or at a
    given later instant."""
    db = random_linear_mod(20, seed=1)
    session = SupervisedQuerySession.knn(db, POINT, k=2, start=start)
    if start is None:
        start = db.last_update_time
    session.advance_to(10.0)
    got = session.close(at=4.0)
    assert got.interval == Interval(start, 4.0)
    want = evaluate_knn(db, POINT, Interval(start, 4.0), k=2)
    assert _dump(got) == _dump(want)


def test_a_supervised_close_before_its_start_is_refused():
    db = random_linear_mod(6, seed=2)
    db.create("late", 1.0, position=[1.0, 0.0], velocity=[0.0, 0.0])
    session = SupervisedQuerySession.knn(db, POINT, k=1)
    with pytest.raises(ValueError, match="precedes"):
        session.close(at=0.5)
    # Detached all the same.
    db.create("later", 2.0, position=[1.0, 1.0], velocity=[0.0, 0.0])


# -- the pool's window read after rebuilds ----------------------------------
# kind -> (spec, the cold one-shot, its nearest-one reading or None)
SPECS = {
    KNN: (
        QuerySpec.knn(POINT, 1),
        lambda db, w: evaluate_knn(db, POINT, w, k=1),
        lambda answer: answer,
    ),
    WITHIN: (
        QuerySpec.within(POINT, 6.0),
        lambda db, w: evaluate_within(db, POINT, w, 6.0),
        None,
    ),
    "multiknn": (
        QuerySpec.multiknn(POINT, [1, 3]),
        lambda db, w: evaluate_multiknn(db, POINT, w, [1, 3]),
        lambda answers: answers[1],
    ),
}


def _twin_mod():
    """A random MOD plus two identical curves nearest the query — ``z``
    inserted before ``a``, so ``z`` wins their eternal tie for the
    nearest one — that every rebuild below straddles."""
    db = random_linear_mod(12, seed=4, extent=10.0, speed=1.0)
    db.install("z", linear_from(0.0, [1.5, 0.0], [-0.25, 0.1]))
    db.install("a", linear_from(0.0, [1.5, 0.0], [-0.25, 0.1]))
    return db


def _stream(db):
    ids = sorted(oid for oid in db.object_ids if oid not in ("z", "a"))
    updates = []
    for i, t in enumerate([0.7, 1.4, 2.1, 2.8, 3.5, 4.2, 4.9, 5.6]):
        if i == 3:
            updates.append(New("n", t, Vector.of(0.2, 0.0), Vector.of(-2.0, 0.5)))
        else:
            velocity = Vector.of(0.3 * ((i % 3) - 1), 0.2 * ((i % 2) * 2 - 1))
            updates.append(ChangeDirection(ids[i % len(ids)], t, velocity))
    return updates


@pytest.mark.parametrize("kind", list(SPECS))
def test_partial_after_slot_rebuilds_is_the_cold_query(kind):
    spec, cold, nearest = SPECS[kind]
    db = _twin_mod()
    lo = db.last_update_time
    group = EngineGroup(1, db, spec.gdistance, constants=spec.constants)
    group.acquire(spec)
    births = []
    for i, update in enumerate(_stream(db)):
        db.apply(update)
        group.apply(update)
        if i in (1, 4):  # rebuilt at tau = 1.4, then again at 3.5
            group.advance_to(update.time + 0.3)
            group.rebuild()
            births.append(update.time)
    assert group.epoch_start == births[-1]
    end = db.last_update_time + 1.5
    group.advance_to(end)
    got = group.partial(spec, lo, end)
    want = cold(db, Interval(lo, end))
    assert _dump(got) == _dump(want)
    if nearest is not None:
        assert nearest(got).objects == {"z"}
    group.shutdown()

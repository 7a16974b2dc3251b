"""One QuerySpec from the front door to the engine.

The same query, stated the ways a caller can state it — ``(point,
distance)``, ``(GDistance, threshold)``, ``ks=[3, 1, 3]`` — goes
through every front door that accepts it and must come out as the same
answer, cached under the same fingerprint: the squaring rule, the
``ks`` normalisation and the view choice live in
:class:`~repro.core.spec.QuerySpec` and nowhere else.
"""

import pickle

import pytest

from repro import (
    ContinuousQuerySession,
    Interval,
    QueryCache,
    evaluate_knn,
    evaluate_multiknn,
    evaluate_within,
    explain,
    serve,
    serve_tcp,
)
from repro.cache.fingerprint import query_fingerprint
from repro.core.spec import QuerySpec
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.net import RemoteQueryClient
from repro.resilience.supervisor import SupervisedQuerySession
from repro.workloads.generator import random_linear_mod

POINT = [1.5, -2.0]
DISTANCE = 9.0
END = 6.0

# (kind, query, keyword arguments) as a caller states them, and the
# parameters every door must reduce them to.
CASES = {
    "knn(point)": ("knn", POINT, {"k": 2}),
    "within(point, distance)": ("within", POINT, {"distance": DISTANCE}),
    "within(gdistance, threshold)": (
        "within",
        SquaredEuclideanDistance(POINT),
        {"distance": DISTANCE * DISTANCE},
    ),
    "multiknn(ks=[3, 1, 3])": ("multiknn", POINT, {"ks": [3, 1, 3]}),
}
EXPECTED = {
    "knn(point)": {"k": 2},
    "within(point, distance)": {"threshold": 81.0},
    "within(gdistance, threshold)": {"threshold": 81.0},
    "multiknn(ks=[3, 1, 3])": {"ks": [1, 3]},
}
EVALUATE = {
    "knn": evaluate_knn,
    "within": evaluate_within,
    "multiknn": evaluate_multiknn,
}


def _db():
    return random_linear_mod(9, seed=21, extent=15.0, speed=2.5)


def _window(db):
    return Interval(db.last_update_time, END)


def _reference(db, kind):
    """The answer in canonical form: an explicit g-distance, the raw
    threshold, sorted distinct ks."""
    gdistance = SquaredEuclideanDistance(POINT)
    if kind == "knn":
        return evaluate_knn(db, gdistance, _window(db), k=2)
    if kind == "within":
        return evaluate_within(db, gdistance, _window(db), 81.0)
    return evaluate_multiknn(db, gdistance, _window(db), [1, 3])


# -- the seven front doors: (db, kind, query, kwargs, cache) -> answer --------
def door_evaluate(db, kind, query, kwargs, cache):
    return EVALUATE[kind](db, query, _window(db), cache=cache, **kwargs)


def door_explain(db, kind, query, kwargs, cache):
    return explain(db, query, _window(db), kind, cache=cache, **kwargs).answer


def door_session(db, kind, query, kwargs, cache):
    opener = getattr(ContinuousQuerySession, kind)
    return opener(db, query, cache=cache, **kwargs).close(at=END)


def door_supervised(db, kind, query, kwargs, cache):
    opener = getattr(SupervisedQuerySession, kind)
    return opener(db, query, cache=cache, **kwargs).close(at=END)


def door_server(db, kind, query, kwargs, cache):
    server = serve(db, cache=cache)
    try:
        return getattr(server, f"register_{kind}")(query, **kwargs).close(
            at=END
        )
    finally:
        server.shutdown()


def door_remote(db, kind, query, kwargs, cache):
    if not isinstance(query, list):
        # On the wire a g-distance is its point plus a raw threshold.
        query, kwargs = POINT, {"threshold": kwargs["distance"]}
    with serve_tcp(db, cache=cache) as net:
        client = RemoteQueryClient(*net.address)
        try:
            return getattr(client, f"open_{kind}")(query, **kwargs).close(
                at=END
            )
        finally:
            client.close()


DOORS = {
    "evaluate": (door_evaluate, CASES, True),
    "explain": (door_explain, CASES, True),
    # Sessions have no multiknn constructor.
    "session": (door_session, [c for c in CASES if "multiknn" not in c], True),
    # The supervisor shares curves but deposits no answers.
    "supervised": (
        door_supervised,
        [c for c in CASES if "multiknn" not in c],
        False,
    ),
    "server": (door_server, CASES, True),
    "remote": (door_remote, CASES, True),
}


def _equal(a, b):
    if isinstance(a, dict):
        return set(a) == set(b) and all(_equal(a[k], b[k]) for k in a)
    return a.approx_equals(b, atol=1e-9)


@pytest.mark.parametrize(
    "door, case",
    [(door, case) for door, (_, cases, _) in DOORS.items() for case in cases],
)
def test_every_door_reduces_a_query_to_the_same_spec(door, case):
    run, _, deposits = DOORS[door]
    kind, query, kwargs = CASES[case]
    db = _db()
    reference = _reference(db, kind)
    cache = QueryCache()
    answer = run(db, kind, query, kwargs, cache)
    assert _equal(answer, reference), f"{door} / {case}: answer differs"
    if deposits:
        fingerprint = query_fingerprint(
            kind, SquaredEuclideanDistance(POINT), **EXPECTED[case]
        )
        assert cache.answers.spans(fingerprint) == [_window(db)], (
            f"{door} / {case}: not cached under the shared fingerprint"
        )


class TestQuerySpec:
    def test_point_squares_gdistance_compares_as_is(self):
        assert QuerySpec.within(POINT, 9).threshold == 81.0
        assert (
            QuerySpec.within(SquaredEuclideanDistance(POINT), 9).threshold
            == 9.0
        )

    def test_ks_are_normalised_once(self):
        spec = QuerySpec.multiknn(POINT, [3, 1, 3])
        assert spec.ks == (1, 3)
        assert spec.params == {"ks": [1, 3]}
        assert spec.view_key == ("multiknn", (1, 3))
        assert spec.maintained_k == 3 and spec.multi

    def test_params_read_back(self):
        for spec in (
            QuerySpec.knn(POINT, 2),
            QuerySpec.within(POINT, 3.0),
            QuerySpec.multiknn(POINT, (2, 4)),
        ):
            again = QuerySpec(spec.gdistance, spec.kind, **spec.params)
            assert again == spec
            assert again.constants == spec.constants

    def test_only_within_carries_a_sentinel(self):
        assert QuerySpec.knn(POINT, 2).constants == ()
        assert QuerySpec.within(POINT, 3.0).constants == (9.0,)

    def test_rejects_what_no_view_could_answer(self):
        with pytest.raises(ValueError):
            QuerySpec.knn(POINT, 0)
        with pytest.raises(ValueError):
            QuerySpec.multiknn(POINT, [])
        with pytest.raises(ValueError):
            QuerySpec(SquaredEuclideanDistance(POINT), "nearest", k=1)

    def test_crosses_the_process_boundary(self):
        spec = QuerySpec.within(POINT, 3.0).over(1.0, 5.0)
        again = pickle.loads(pickle.dumps(spec))
        assert (again.kind, again.threshold, again.lo, again.hi) == (
            "within",
            9.0,
            1.0,
            5.0,
        )

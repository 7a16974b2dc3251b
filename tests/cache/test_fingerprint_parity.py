"""The cache key is the spec's: ``QuerySpec.fingerprint``.

The five functions of :mod:`repro.cache.fingerprint` keep their names
and values but decide nothing themselves — kind dispatch and ``ks``
normalisation are :class:`~repro.core.spec.QuerySpec`'s.
"""

import pytest

from repro.cache.fingerprint import (
    gdistance_fingerprint,
    knn_fingerprint,
    multiknn_fingerprint,
    query_fingerprint,
    within_fingerprint,
)
from repro.core.spec import QuerySpec
from repro.gdist.base import GDistance
from repro.gdist.euclidean import SquaredEuclideanDistance

from tests.test_query_spec_parity import CASES, EXPECTED, POINT

GD = SquaredEuclideanDistance(POINT)

PARAMS = [
    ("knn", {"k": 2}),
    ("knn", {"k": 2.0}),
    ("within", {"threshold": 81}),
    ("within", {"threshold": 81.0}),
    ("multiknn", {"ks": [3, 1, 3]}),
    ("multiknn", {"ks": (1.0, 3)}),
    ("multiknn", {"ks": [1, 3]}),
]


@pytest.mark.parametrize("kind, params", PARAMS)
def test_query_fingerprint_is_the_specs(kind, params):
    fingerprint = query_fingerprint(kind, GD, **params)
    assert fingerprint == QuerySpec(GD, kind, **params).fingerprint
    hash(fingerprint)  # a plain hashable tuple


def test_values_did_not_move():
    gd = gdistance_fingerprint(GD)
    assert knn_fingerprint(GD, 2) == ("knn", gd, 2)
    assert type(knn_fingerprint(GD, 2.0)[2]) is int
    assert within_fingerprint(GD, 81) == ("within", gd, 81.0)
    assert type(within_fingerprint(GD, 81)[2]) is float
    assert multiknn_fingerprint(GD, [3, 1, 3]) == ("multiknn", gd, (1, 3))
    assert multiknn_fingerprint(GD, (1.0, 3)) == multiknn_fingerprint(GD, [1, 3])
    with pytest.raises(ValueError):
        query_fingerprint("nearest", GD, k=1)


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_front_door_statement_shares_the_fingerprint(case):
    """However a caller states the query, the spec its front door
    builds is cached under the fingerprint of the canonical form."""
    kind, query, kwargs = CASES[case]
    spec = getattr(QuerySpec, kind)(query, *kwargs.values())
    assert spec.fingerprint == query_fingerprint(kind, GD, **EXPECTED[case])
    assert spec.over(1.0, 5.0).fingerprint == spec.fingerprint


def test_identity_fingerprints_survive():
    class Opaque(GDistance):
        is_polynomial = True

        def __call__(self, trajectory):  # pragma: no cover - never swept
            raise NotImplementedError

    opaque = Opaque()
    assert QuerySpec.knn(opaque, 1).fingerprint[1][0] == "id"
    assert knn_fingerprint(opaque, 1) == QuerySpec.knn(opaque, 1).fingerprint

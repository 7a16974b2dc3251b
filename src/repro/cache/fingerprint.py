"""Value fingerprints for cache keys.

A *g-distance fingerprint* identifies a g-distance by value (see
:meth:`repro.gdist.base.GDistance.cache_fingerprint`); a *query
fingerprint* extends it with the query kind and its parameters, so two
logically identical queries — possibly built from distinct objects —
share cache entries.  Fingerprints are plain hashable tuples; they
never capture the query interval, which is matched separately (the
answer cache serves sub-intervals and extensions of a cached span).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.spec import KNN, MULTIKNN, WITHIN, QuerySpec
from repro.gdist.base import GDistance

__all__ = [
    "gdistance_fingerprint",
    "is_identity_fingerprint",
    "knn_fingerprint",
    "multiknn_fingerprint",
    "query_fingerprint",
    "within_fingerprint",
]


def gdistance_fingerprint(gdistance: GDistance) -> Tuple:
    """The g-distance's value fingerprint."""
    return gdistance.cache_fingerprint()


def is_identity_fingerprint(fingerprint: Tuple) -> bool:
    """True for the id-based fallback fingerprint.

    Caches keyed on one must pin the g-distance instance (a strong
    reference) so the interpreter cannot recycle the id into a new,
    unrelated object.
    """
    return bool(fingerprint) and fingerprint[0] == "id"


def knn_fingerprint(gdistance: GDistance, k: int) -> Tuple:
    """Fingerprint of a k-NN query."""
    return query_fingerprint(KNN, gdistance, k=k)


def within_fingerprint(gdistance: GDistance, threshold: float) -> Tuple:
    """Fingerprint of a within-range query (g-distance units)."""
    return query_fingerprint(WITHIN, gdistance, threshold=threshold)


def multiknn_fingerprint(gdistance: GDistance, ks: Sequence[int]) -> Tuple:
    """Fingerprint of a multi-k k-NN query."""
    return query_fingerprint(MULTIKNN, gdistance, ks=ks)


def query_fingerprint(kind: str, gdistance: GDistance, **params) -> Tuple:
    """Fingerprint of the query that ``kind`` and its ``params`` name:
    :attr:`repro.core.spec.QuerySpec.fingerprint`."""
    return QuerySpec(gdistance, kind, **params).fingerprint

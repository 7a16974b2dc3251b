"""Deterministic hash partitioning of a MOD into disjoint shards.

The plane-sweep's per-update maintenance (Theorem 5) is sequential per
precedence order, but precedence orders over *disjoint* object sets are
independent: no intersection event ever relates curves of different
shards.  Hash-partitioning the object universe therefore splits the
sweep into ``S`` smaller sweeps whose event totals shrink — a pair of
objects only generates intersection events when co-sharded, so a
uniform partition drops roughly a ``1 - 1/S`` fraction of the order
changes from the maintenance path and defers the cross-shard
comparisons to the (much cheaper, candidates-only) merge step.

The shard function must be deterministic *across runs*: the op-count
baselines and the seeded differentials compare one run's partition
with another's, and Python's built-in ``hash`` is salted per process.
We therefore key on CRC-32 of the type-tagged oid encoding used by the
JSON codecs (:func:`repro.io.oid_to_key`), which is stable across
runs, processes, and platforms for every supported oid type (str, int,
bool, float, tuple).
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List

from repro.io import oid_to_key
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ObjectId

__all__ = ["shard_of", "partition_oids", "partition_database"]


def shard_of(oid: ObjectId, shards: int) -> int:
    """The shard index owning ``oid`` (stable across processes)."""
    if shards < 1:
        raise ValueError("need at least one shard")
    if shards == 1:
        return 0
    digest = zlib.crc32(oid_to_key(oid).encode("utf-8"))
    return digest % shards


def partition_oids(
    oids: Iterable[ObjectId], shards: int
) -> Dict[int, List[ObjectId]]:
    """Group oids by owning shard (shards with no objects are absent)."""
    out: Dict[int, List[ObjectId]] = {}
    for oid in oids:
        out.setdefault(shard_of(oid, shards), []).append(oid)
    return out


def partition_database(
    db: MovingObjectDatabase, shards: int
) -> List[MovingObjectDatabase]:
    """Split a MOD into ``shards`` disjoint sub-databases.

    Every object — live or terminated — lands in exactly one shard
    (chosen by :func:`shard_of`); each shard database starts its clock
    at the source's ``tau`` so Definition 2's turns-before-tau invariant
    holds piecewise.  Trajectories are immutable values and are shared,
    not copied.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    if shards == 1:
        return [db.clone()]
    tau = db.last_update_time
    parts = [MovingObjectDatabase(initial_time=tau) for _ in range(shards)]
    for oid, traj in db.all_items():
        parts[shard_of(oid, shards)].install(oid, traj)
    return parts

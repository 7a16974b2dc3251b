"""Sharded parallel sweep evaluation with batched updates.

The paper's plane-sweep (Section 5) is sequential per precedence
order, but disjoint object partitions have *independent* precedence
orders: hash-sharding the MOD splits one big sweep into ``S`` small
ones whose answers merge exactly (within-range by disjoint union,
k-NN via a bounded candidate set).  See
:class:`~repro.parallel.evaluator.ShardedSweepEvaluator` (the engine
facade over a one-tenant :class:`~repro.server.group.EngineGroup`).
"""

from repro.core.spec import QuerySpec
from repro.parallel.batching import BatchedUpdateApplier, BatchStats
from repro.parallel.evaluator import ShardedSweepEvaluator
from repro.parallel.merge import (
    candidate_mod,
    candidate_oids,
    clip_answer,
    merge_knn_answers,
    merge_multiknn_answers,
    merge_within_answers,
    select_top_k,
    union_answers,
)
from repro.parallel.sharding import partition_database, partition_oids, shard_of

__all__ = [
    "BatchStats",
    "BatchedUpdateApplier",
    "QuerySpec",
    "ShardedSweepEvaluator",
    "candidate_mod",
    "candidate_oids",
    "clip_answer",
    "merge_knn_answers",
    "merge_multiknn_answers",
    "merge_within_answers",
    "partition_database",
    "partition_oids",
    "select_top_k",
    "shard_of",
    "union_answers",
]

"""Combining per-shard partial answers into exact global answers.

Correctness rests on two observations:

- **within-range decomposes**: membership ``f_o(t) <= c`` involves one
  object at a time, so the global answer is the disjoint union of the
  shard answers — no cross-shard comparison at all.
- **k-NN admits a small candidate set**: an object in the global top-k
  at time ``t`` has fewer than ``k`` objects below it globally, hence
  fewer than ``k`` below it in its own shard — it is in its shard's
  top-k at ``t``.  The union of the shard answers' accumulative sets
  (at most ``k`` per shard per instant, Lemma 9-style bounded) is
  therefore a complete candidate set, and an exact second-level sweep
  over only the candidates reproduces the single-engine answer.  At a
  single instant the same argument gives the ``O(k * shards)``
  selection: pick the ``k`` smallest of the shards' current top-k
  values.

The same union also stitches *time*: a past query over the span
before an engine was (re)built and the live engine's answer since
cover abutting spans of one session's window, so
:func:`stitch_answers` is exact for the same reason the within-range
merge is.

Exact ties (identical curves) have one rule everywhere: *database
insertion order*, the order a single engine meets the objects in
(``SweepEngine._all_oids``).  The window merge gets it from
:func:`~repro.sweep.prune.candidate_mod`, the instant selection from
the source database when a tie straddles the k boundary, and the naive
baseline ranks the same way — so sharded ≡ single ≡ naive holds on
twins too.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.spec import WITHIN, QuerySpec
from repro.geometry.intervals import Interval, IntervalSet
from repro.gdist.base import GDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ObjectId
from repro.query.answers import Answer, Members, SnapshotAnswer, per_k
from repro.sweep.engine import SweepEngine
from repro.sweep.multiknn import MultiKNN
from repro.sweep.prune import candidate_mod

__all__ = [
    "candidate_mod",
    "candidate_oids",
    "clip_answer",
    "merge_knn_answers",
    "merge_multiknn_answers",
    "merge_within_answers",
    "select_top_k",
    "stitch_answers",
    "union_answers",
]


def select_top_k(
    candidates: Iterable[Tuple[ObjectId, float]],
    k: int,
    source: MovingObjectDatabase,
) -> List[ObjectId]:
    """The ``k`` nearest of ``(oid, value)`` candidates, nearest first.

    This is the instant-query merge: each shard contributes its current
    top-k members with their curve values, and a single
    ``O(k * shards)``-sized selection yields the global answer.  When
    an exact tie straddles the k boundary the tied run is taken in the
    order ``source`` inserted it (one scan, on such ties only), which
    is how a single engine over ``source`` breaks it.
    """
    pool = list(candidates)
    best = heapq.nsmallest(k + 1, pool, key=lambda kv: kv[1])
    if len(best) > k > 0 and best[k - 1][1] == best[k][1]:
        bar = best[k][1]
        tied = {oid for oid, value in pool if value == bar}
        below = [oid for oid, value in best if value < bar]
        run = [oid for oid, _ in source.all_items() if oid in tied]
        return (below + run)[:k]
    return [oid for oid, _ in best[:k]]


def shard_candidates(
    spec: QuerySpec, engine, view, t: float
) -> List[Tuple[ObjectId, float]]:
    """One shard's contribution to :func:`merge_members` (``engine`` is
    the shard's :class:`~repro.sweep.live.LiveSweep`): its current
    members (a rank view's at the widest maintained k, from which every
    smaller k selects) paired with their g-distance at ``t``."""
    return [
        (oid, engine.value(oid, t)) for oid in spec.widest(spec.members(view))
    ]


def merge_members(
    spec: QuerySpec,
    candidates: Sequence[Tuple[ObjectId, float]],
    source: Optional[MovingObjectDatabase] = None,
) -> Members:
    """The instant merge: ``spec``'s global answer set from the shards'
    pooled :func:`shard_candidates`.  A range reading takes the oids as
    they are and needs no ``source``; a rank reading selects the
    nearest k, once per k (:func:`select_top_k`)."""
    if spec.kind == WITHIN:
        return {oid for oid, _ in candidates}
    return spec.shaped(
        {k: set(select_top_k(candidates, k, source)) for k in spec.ranks}
    )


def merge_answers(
    spec: QuerySpec,
    source: MovingObjectDatabase,
    window: Interval,
    parts: Sequence[Answer],
    observe=None,
    curve_store=None,
) -> Answer:
    """The window merge: ``spec``'s exact global answer over ``window``
    from each shard's answer over it.  A range reading is the disjoint
    union; a rank reading runs one candidate sweep at all of its k,
    seeded by the shards' widest-k answers (which hold the candidates
    of every smaller k too)."""
    if spec.kind == WITHIN:
        return union_answers(parts, window)
    return spec.shaped(
        merge_multiknn_answers(
            source,
            spec.gdistance,
            window,
            spec.ranks,
            [spec.widest(part) for part in parts],
            observe=observe,
            curve_store=curve_store,
        )
    )


def union_answers(
    answers: Sequence[SnapshotAnswer], interval: Interval
) -> SnapshotAnswer:
    """Union several snapshot answers over a common window.

    Used both for the within-range merge (per-shard answers are
    disjoint, so union is exact) and for stitching one window's answer
    from pieces over abutting time ranges (touching closed intervals
    coalesce, so union is again exact).
    """
    memberships: Dict[ObjectId, IntervalSet] = {}
    for answer in answers:
        for oid in answer.objects:
            ivs = answer.intervals_for(oid)
            memberships[oid] = (
                memberships[oid].union(ivs) if oid in memberships else ivs
            )
    return SnapshotAnswer(memberships, interval)


def merge_within_answers(
    answers: Sequence[SnapshotAnswer], interval: Interval
) -> SnapshotAnswer:
    """Union disjoint per-shard within-range answers."""
    return union_answers(answers, interval)


def stitch_answers(segments: Sequence[Answer], window: Interval) -> Answer:
    """One answer over ``window`` from its pieces — a past query's
    slices, or the past before an engine's birth plus the live engine's
    answer — unioned (per k when the pieces are multiknn dicts)."""
    return per_k(lambda *pieces: union_answers(pieces, window), *segments)


def clip_answer(answer: Answer, lo: float, hi: float) -> Answer:
    """Restrict an answer's memberships (each k's, for a multiknn dict)
    to the window ``[lo, hi]`` (an inverted one collapses to
    ``[hi, hi]``).

    Used to cut one tenant's window out of timelines it shares: a
    group's view may have opened earlier, and swept further, than the
    session reading it.
    """
    window = Interval(min(lo, hi), hi)
    return per_k(lambda a: a.restrict(window), answer)


def candidate_oids(answers: Sequence[SnapshotAnswer]) -> Set[ObjectId]:
    """Accumulative union of per-shard answers: the window merge's
    candidates (:func:`~repro.sweep.prune.candidate_mod` orders them)."""
    seen: Set[ObjectId] = set()
    for answer in answers:
        seen.update(answer.objects)
    return seen


def merge_knn_answers(
    source: MovingObjectDatabase,
    gdistance: GDistance,
    interval: Interval,
    k: int,
    answers: Sequence[SnapshotAnswer],
    observe=None,
    curve_store=None,
) -> SnapshotAnswer:
    """Exact global k-NN answer from per-shard top-k answers: the
    one-k case of :func:`merge_multiknn_answers`."""
    return merge_multiknn_answers(
        source,
        gdistance,
        interval,
        [k],
        answers,
        observe=observe,
        curve_store=curve_store,
    )[int(k)]


def merge_multiknn_answers(
    source: MovingObjectDatabase,
    gdistance: GDistance,
    interval: Interval,
    ks: Sequence[int],
    answers: Sequence[SnapshotAnswer],
    observe=None,
    curve_store=None,
) -> Dict[int, SnapshotAnswer]:
    """Exact global answers for several k values from shard answers
    maintained at ``max(ks)``.

    Runs the second-level sweep over the candidate union — a MOD
    holding only the candidate objects — at cost
    ``O((m_c + C) log C)`` for ``C`` candidates, independent of the
    total object count ``N``.  The candidate MOD shares the source's
    trajectory instances, so a shared ``curve_store`` lets the sweep
    reuse curves already built elsewhere.
    """
    oids = candidate_oids(answers)
    if not oids:
        return {int(k): SnapshotAnswer({}, interval) for k in ks}
    engine = SweepEngine(
        candidate_mod(source, oids),
        gdistance,
        interval,
        observe=observe,
        curve_store=curve_store,
    )
    view = MultiKNN(engine, ks)
    engine.run_to_end()
    return view.answers()

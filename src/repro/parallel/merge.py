"""Answers from pieces: stitching abutting spans, clipping one window.

Snapshot answers over abutting time ranges of one window union exactly:
a membership is a set of closed intervals, and touching closed
intervals coalesce.  So a past query over the span before an engine was
(re)built and the live engine's answer since, or a cached prefix and
the sweep of the gap after it, are joined by :func:`stitch_answers`;
and one tenant's window is cut out of timelines it shares with
co-tenants by :func:`clip_answer`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.geometry.intervals import Interval, IntervalSet
from repro.mod.updates import ObjectId
from repro.query.answers import Answer, SnapshotAnswer, per_k
from repro.sweep.prune import candidate_mod

__all__ = [
    "candidate_mod",
    "clip_answer",
    "stitch_answers",
    "union_answers",
]


def union_answers(
    answers: Sequence[SnapshotAnswer], interval: Interval
) -> SnapshotAnswer:
    """Union several snapshot answers over a common window: pieces
    over abutting time ranges (touching closed intervals coalesce, so
    the union is exact)."""
    memberships: Dict[ObjectId, IntervalSet] = {}
    for answer in answers:
        for oid in answer.objects:
            ivs = answer.intervals_for(oid)
            memberships[oid] = (
                memberships[oid].union(ivs) if oid in memberships else ivs
            )
    return SnapshotAnswer(memberships, interval)


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

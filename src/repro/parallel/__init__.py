"""Answer stitching, and the batching applier.

:mod:`repro.parallel.merge` joins answers over abutting spans and clips
one tenant's window out of a shared timeline.
:mod:`repro.parallel.batching` is the per-key update batcher the server
fanned out through before every engine group swept the source MOD
directly; nothing under ``src/`` uses it any more.
"""

from repro.core.spec import QuerySpec
from repro.parallel.batching import BatchedUpdateApplier, BatchStats
from repro.parallel.merge import (
    candidate_mod,
    clip_answer,
    union_answers,
)

__all__ = [
    "BatchStats",
    "BatchedUpdateApplier",
    "QuerySpec",
    "candidate_mod",
    "clip_answer",
    "union_answers",
]

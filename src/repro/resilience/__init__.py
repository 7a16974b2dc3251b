"""Resilient update ingestion: policies, durability, self-healing.

The paper's premise (Sections 2 and 5) is a database that stays correct
under an *unbounded* stream of ``new``/``terminate``/``chdir`` updates.
An unbounded stream is never clean, and a long-lived process eventually
crashes; this package supplies the machinery that keeps the MOD — and
every continuous query attached to it — alive through both:

- :mod:`repro.resilience.ingest` — policy-driven admission of dirty
  update streams (``strict`` / ``repair`` / ``quarantine``) in front of
  :meth:`~repro.mod.database.MovingObjectDatabase.apply`;
- :mod:`repro.resilience.wal` — a JSONL write-ahead log with periodic
  checkpoints and crash :func:`~repro.resilience.wal.recover`;
- :mod:`repro.resilience.supervisor` — a continuous-query session (the
  one-tenant engine pool of :class:`~repro.core.api.ContinuousQuerySession`)
  with a heal: it survives engine failures by rebuilding from current
  database state (the paper's Theorem 5 ``O(N log N)``
  re-initialization step).

Fault injection for exercising all of the above lives in
:mod:`repro.workloads.faults`.
"""

from repro.resilience.ingest import (
    POLICIES,
    IngestPipeline,
    IngestStats,
    RejectedUpdate,
)
from repro.resilience.supervisor import SupervisedQuerySession, SupervisorStats
from repro.resilience.wal import WalCorruptionError, WriteAheadLog, recover

__all__ = [
    "IngestPipeline",
    "IngestStats",
    "POLICIES",
    "RejectedUpdate",
    "SupervisedQuerySession",
    "SupervisorStats",
    "WalCorruptionError",
    "WriteAheadLog",
    "recover",
]

"""Policy-driven admission of dirty update streams.

:meth:`MovingObjectDatabase.apply` enforces Definition 3 strictly: one
out-of-order, duplicate, or otherwise invalid update raises and — when
continuous sessions are subscribed — wedges every one of them.  The
:class:`IngestPipeline` sits in front of ``apply`` and decides, per
configured policy, what happens to updates that would violate the
contract:

``strict``
    Today's behavior: invalid updates raise ``ValueError`` at the
    submission site.  The pipeline only adds write-ahead logging and
    counters.

``repair``
    A bounded reorder buffer: submitted updates are held until the
    *watermark* (latest timestamp seen minus the window) passes them,
    so late arrivals within the window are re-sequenced into timestamp
    order and exact duplicates are dropped.  What cannot be repaired
    (an update older than the watermark, a reference to an unknown
    object, a malformed record) is quarantined.

``quarantine``
    No reordering: every update is validated immediately; invalid ones
    are captured as structured :class:`RejectedUpdate` records with a
    reason code instead of raising.

Accepted updates are written to the optional
:class:`~repro.resilience.wal.WriteAheadLog` *before* being applied —
write-ahead order — and the pipeline checkpoints the database every
``checkpoint_every`` accepted updates.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.io import update_to_dict
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New, Terminate, Update
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation

# Admission policies.
STRICT = "strict"
REPAIR = "repair"
QUARANTINE = "quarantine"
POLICIES = (STRICT, REPAIR, QUARANTINE)

# Reason codes carried by RejectedUpdate records.
REASON_MALFORMED = "malformed"
REASON_OUT_OF_ORDER = "out_of_order"
REASON_LATE = "late"
REASON_ALREADY_EXISTS = "already_exists"
REASON_UNKNOWN_OBJECT = "unknown_object"
REASON_UNDEFINED_AT_TIME = "undefined_at_time"
REASON_DIMENSION_MISMATCH = "dimension_mismatch"

# Dispositions returned by submit().
APPLIED = "applied"
BUFFERED = "buffered"
DEDUPED = "deduped"
QUARANTINED = "quarantined"


@dataclass(frozen=True)
class RejectedUpdate:
    """A quarantined update with the reason it was refused."""

    update: object
    reason: str
    detail: str
    sequence: int  # arrival index within this pipeline


@dataclass
class IngestStats:
    """Per-pipeline admission counters."""

    received: int = 0
    accepted: int = 0
    reordered: int = 0
    deduped: int = 0
    quarantined: int = 0
    checkpoints: int = 0
    by_reason: Dict[str, int] = field(default_factory=dict)

    def _count_reason(self, reason: str) -> None:
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1


def _structural_error(update: object) -> Optional[Tuple[str, str]]:
    """Malformedness that makes an update unusable even for buffering."""
    if not isinstance(update, (New, Terminate, ChangeDirection)):
        return REASON_MALFORMED, f"not an update record: {update!r}"
    if not isinstance(update.time, (int, float)) or not math.isfinite(
        update.time
    ):
        return REASON_MALFORMED, f"non-finite timestamp: {update.time!r}"
    return None


def validation_error(
    db: MovingObjectDatabase, update: object
) -> Optional[Tuple[str, str]]:
    """Why ``db.apply(update)`` would raise, as ``(reason, detail)``.

    Returns ``None`` when the update is applicable right now.  This
    mirrors the checks in :meth:`MovingObjectDatabase.apply` so
    admission control can classify failures without mutating state.
    """
    structural = _structural_error(update)
    if structural is not None:
        return structural
    if update.time <= db.last_update_time:
        return (
            REASON_OUT_OF_ORDER,
            f"update at {update.time} is not after tau={db.last_update_time}",
        )
    if isinstance(update, New):
        if update.oid in db or db.is_terminated(update.oid):
            return REASON_ALREADY_EXISTS, f"object {update.oid!r} already exists"
        if (
            db.dimension is not None
            and update.position.dimension != db.dimension
        ):
            return (
                REASON_DIMENSION_MISMATCH,
                f"MOD is {db.dimension}-dimensional, "
                f"got {update.position.dimension}",
            )
        return None
    if update.oid not in db:
        return REASON_UNKNOWN_OBJECT, f"no live object {update.oid!r}"
    if isinstance(update, ChangeDirection):
        if not db.trajectory(update.oid).defined_at(update.time):
            return (
                REASON_UNDEFINED_AT_TIME,
                f"trajectory of {update.oid!r} undefined at {update.time}",
            )
    return None


def _update_key(update: Update) -> Tuple:
    """A hashable identity for exact-duplicate detection."""
    data = update_to_dict(update)
    return tuple(
        (k, tuple(v) if isinstance(v, list) else v)
        for k, v in sorted(data.items())
    )


class IngestPipeline:
    """Admission control in front of a :class:`MovingObjectDatabase`.

    Parameters
    ----------
    db:
        The database updates are admitted into.
    policy:
        One of ``"strict"``, ``"repair"``, ``"quarantine"``.
    window:
        The repair policy's reorder window, in time units: an update may
        arrive up to ``window`` behind the latest timestamp seen and
        still be re-sequenced.  Ignored by the other policies.
    wal:
        Optional :class:`~repro.resilience.wal.WriteAheadLog`; accepted
        updates are appended before application (write-ahead order).
    checkpoint_every:
        Checkpoint the database into the WAL every this many accepted
        updates (0 disables automatic checkpoints).
    """

    def __init__(
        self,
        db: MovingObjectDatabase,
        policy: str = STRICT,
        window: float = 0.0,
        wal=None,
        checkpoint_every: int = 0,
        observe=None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        if window < 0.0:
            raise ValueError("window must be non-negative")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        self._db = db
        self._policy = policy
        self._window = float(window)
        self._wal = wal
        self._checkpoint_every = checkpoint_every
        self._since_checkpoint = 0
        self.stats = IngestStats()
        self.rejected: List[RejectedUpdate] = []
        self.observe = as_instrumentation(observe)
        self._bind_instruments()
        # Repair state: a (time, seq, update) min-heap of held updates,
        # their duplicate keys, recently applied keys (pruned as the
        # watermark advances), and the latest timestamp seen.
        self._buffer: List[Tuple[float, int, Update]] = []
        self._pending_keys: Set[Tuple] = set()
        self._applied_keys: Dict[Tuple, float] = {}
        self._max_seen = db.last_update_time
        self._seq = 0

    def _bind_instruments(self) -> None:
        """Bind admission counters (no-ops when telemetry is off)."""
        obs = self.observe or NULL_INSTRUMENTATION
        self._tracer = obs.tracer
        metrics = obs.metrics
        self._c_received = metrics.counter(
            "ingest_received_total", "Updates submitted to the pipeline."
        )
        self._c_accepted = metrics.counter(
            "ingest_accepted_total",
            "Updates admitted and applied to the database.",
        )
        self._c_reordered = metrics.counter(
            "ingest_reordered_total",
            "Late arrivals re-sequenced by the repair reorder buffer.",
        )
        self._c_deduped = metrics.counter(
            "ingest_deduped_total", "Exact duplicates dropped."
        )
        self._c_checkpoints = metrics.counter(
            "ingest_checkpoints_total", "Database checkpoints written."
        )
        self._f_quarantined = metrics.counter(
            "ingest_quarantined_total",
            "Updates refused admission, by reason code.",
            labels=("reason",),
        )
        metrics.gauge(
            "ingest_pending",
            "Updates currently held in the reorder buffer.",
        ).set_function(lambda: len(self._buffer))
        metrics.gauge(
            "ingest_watermark",
            "Completeness frontier of the repair policy.",
        ).set_function(lambda: self.watermark)

    # -- inspection ---------------------------------------------------------
    @property
    def db(self) -> MovingObjectDatabase:
        """The database this pipeline feeds."""
        return self._db

    @property
    def policy(self) -> str:
        """The admission policy in force."""
        return self._policy

    @property
    def window(self) -> float:
        """The repair reorder window (time units)."""
        return self._window

    @property
    def watermark(self) -> float:
        """Completeness frontier: updates at or before this timestamp
        are assumed to have all arrived (repair policy)."""
        return self._max_seen - self._window

    @property
    def pending(self) -> int:
        """Updates currently held in the reorder buffer."""
        return len(self._buffer)

    # -- submission ---------------------------------------------------------
    def submit(self, update: object) -> str:
        """Admit one update; returns its disposition.

        One of ``"applied"``, ``"buffered"`` (repair policy: held until
        the watermark passes it), ``"deduped"``, or ``"quarantined"``.
        Under the strict policy invalid updates raise ``ValueError``
        exactly like :meth:`MovingObjectDatabase.apply`.
        """
        self.stats.received += 1
        self._c_received.inc()
        self._seq += 1
        if self._policy == REPAIR:
            return self._submit_repair(update)
        error = validation_error(self._db, update)
        if error is not None:
            reason, detail = error
            if self._policy == STRICT:
                raise ValueError(f"[{reason}] {detail}")
            self._quarantine(update, reason, detail)
            return QUARANTINED
        self._apply(update)
        return APPLIED

    def submit_all(self, updates) -> List[str]:
        """Submit a whole iterable; returns per-update dispositions."""
        return [self.submit(u) for u in updates]

    def flush(self) -> int:
        """Drain the reorder buffer regardless of the watermark.

        Call at end-of-stream (or before closing) so updates younger
        than the window are not stranded.  Returns the number of
        updates drained (applied or quarantined).
        """
        drained = 0
        while self._buffer:
            _, _, held = heapq.heappop(self._buffer)
            self._pending_keys.discard(_update_key(held))
            self._apply_checked(held)
            drained += 1
        return drained

    def close(self, checkpoint: bool = True) -> None:
        """Flush the buffer and (optionally) write a final checkpoint."""
        self.flush()
        if checkpoint and self._wal is not None:
            self._wal.checkpoint(self._db)
            self.stats.checkpoints += 1
            self._c_checkpoints.inc()

    # -- repair policy ------------------------------------------------------
    def _submit_repair(self, update: object) -> str:
        structural = _structural_error(update)
        if structural is not None:
            self._quarantine(update, *structural)
            return QUARANTINED
        key = _update_key(update)
        if key in self._pending_keys or key in self._applied_keys:
            self.stats.deduped += 1
            self._c_deduped.inc()
            return DEDUPED
        if update.time <= self._db.last_update_time:
            # The watermark (or an already-applied update) has passed
            # this timestamp: it can no longer be re-sequenced.
            self._quarantine(
                update,
                REASON_LATE,
                f"update at {update.time} arrived after the watermark "
                f"(tau={self._db.last_update_time}, window={self._window})",
            )
            return QUARANTINED
        if update.time < self._max_seen:
            self.stats.reordered += 1
            self._c_reordered.inc()
        heapq.heappush(self._buffer, (update.time, self._seq, update))
        self._pending_keys.add(key)
        self._max_seen = max(self._max_seen, update.time)
        self._drain_to_watermark()
        return BUFFERED

    def _drain_to_watermark(self) -> None:
        watermark = self.watermark
        while self._buffer and self._buffer[0][0] <= watermark:
            _, _, held = heapq.heappop(self._buffer)
            self._pending_keys.discard(_update_key(held))
            self._apply_checked(held)
        # Forget applied duplicate keys once even a maximally delayed
        # duplicate (one full window behind the original) must have
        # arrived.
        if self._applied_keys:
            horizon = watermark - self._window
            self._applied_keys = {
                k: t for k, t in self._applied_keys.items() if t >= horizon
            }

    def _apply_checked(self, update: Update) -> None:
        """Validate against current state, then apply or quarantine."""
        error = validation_error(self._db, update)
        if error is not None:
            self._quarantine(update, *error)
            return
        self._apply(update)

    # -- shared plumbing ----------------------------------------------------
    def _apply(self, update: Update) -> None:
        if self._wal is not None:
            self._wal.append(update)
        self._db.apply(update)
        self.stats.accepted += 1
        self._c_accepted.inc()
        if self._policy == REPAIR:
            self._applied_keys[_update_key(update)] = update.time
        if (
            self._checkpoint_every
            and self._wal is not None
            and self.stats.accepted % self._checkpoint_every == 0
        ):
            self._wal.checkpoint(self._db)
            self.stats.checkpoints += 1
            self._c_checkpoints.inc()

    def _quarantine(self, update: object, reason: str, detail: str) -> None:
        self.stats.quarantined += 1
        self.stats._count_reason(reason)
        self._f_quarantined.labels(reason=reason).inc()
        self._tracer.event("ingest.quarantine", reason=reason, detail=detail)
        self.rejected.append(
            RejectedUpdate(update, reason, detail, self._seq)
        )

"""Admission-control and degradation policy for the query server."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ServerConfig"]

ADMISSION_POLICIES = ("reject", "queue")


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs for one :class:`~repro.server.QueryServer`.

    Parameters
    ----------
    max_sessions:
        Active-session budget; ``None`` means unbounded.  When the
        budget is exhausted, a new registration is rejected with
        :class:`~repro.server.AdmissionError` (``admission_policy ==
        "reject"``) or parked in a FIFO queue and activated as capacity
        frees up (``"queue"``).
    admission_policy:
        ``"reject"`` or ``"queue"``.
    max_queued:
        Queue depth bound under the ``queue`` policy; a full queue
        rejects like the ``reject`` policy.
    op_rate_ceiling:
        Mean primitive sweep operations per applied update above which
        the server sheds the lowest-priority active session.  ``None``
        disables shedding.  The rate is measured over a moving window
        of ``op_rate_window`` applied updates, so one expensive update
        does not trigger a shed.
    op_rate_window:
        Number of applied updates per shedding measurement window.
    quarantine_after:
        Consecutive engine-group failures tolerated (each healed by a
        Theorem 5 rebuild) before the group is quarantined and its
        sessions permanently detached.
    """

    max_sessions: Optional[int] = None
    admission_policy: str = "reject"
    max_queued: int = 64
    op_rate_ceiling: Optional[float] = None
    op_rate_window: int = 16
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if self.admission_policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission_policy must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission_policy!r}"
            )
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ValueError("max_sessions must be positive (or None)")
        if self.max_queued < 0:
            raise ValueError("max_queued cannot be negative")
        if self.op_rate_ceiling is not None and self.op_rate_ceiling <= 0:
            raise ValueError("op_rate_ceiling must be positive (or None)")
        if self.op_rate_window < 1:
            raise ValueError("op_rate_window must be positive")
        if self.quarantine_after < 0:
            raise ValueError("quarantine_after cannot be negative")

    @classmethod
    def from_dict(cls, data: dict) -> "ServerConfig":
        """The config a snapshot journaled.  Fields this build no longer
        has (``batch_size`` and ``shards``, from before object sharding
        was removed) are accepted and ignored."""
        known = cls.__dataclass_fields__
        return cls(**{k: v for k, v in data.items() if k in known})

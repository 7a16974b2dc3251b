"""Tuning knobs for the networked serving frontend: wire, push queue,
handshake, heartbeat and ack-barrier policy.  The frontend holds no
serving state to bound — sessions and the reply table retried requests
replay from are the query server's."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.protocol import MAX_FRAME

__all__ = ["NetConfig"]


@dataclass(frozen=True)
class NetConfig:
    """Policy for one :class:`~repro.net.QueryNetServer`.

    Parameters
    ----------
    max_frame:
        Hard cap on a single frame body, both directions; oversized
        frames fail with ``FrameTooLargeError`` before allocation.
    max_push_queue:
        Per-connection bound on buffered *push* frames (answer-change
        events).  A connection whose queue is full when the next push
        arrives is a slow consumer: its subscribed sessions are shed
        through the server's admission controller (same degradation
        path as op-rate shedding) and a final ``shed`` notice is
        force-queued.  Responses to explicit requests are never
        dropped — the bound only governs the unsolicited stream.
    handshake_timeout:
        Seconds a fresh connection gets to complete the ``hello``
        protocol-version handshake before it is dropped.
    heartbeat_interval:
        Seconds between server-pushed ``heartbeat`` events on
        connections with live subscriptions (and replication links).
        ``None`` (the default) disables heartbeats — clients relying on
        the heartbeat-stall watchdog for failure detection must run
        against a server with this set.
    repl_ack_timeout:
        Seconds the ack barrier waits for a replica's ack before
        dropping it as dead (the barrier must never wedge the primary
        behind a crashed standby), and the reconnect grace a departed
        replica gets.  On a replicated server a request whose dispatch
        appended replication records — and every ingested update — only
        completes after every attached replica acknowledged them, so an
        acknowledged write survives a primary kill: it is already
        applied on the standby.  The barrier returns within three of
        these timeouts whatever the replicas do.
    """

    max_frame: int = MAX_FRAME
    max_push_queue: int = 64
    handshake_timeout: float = 5.0
    heartbeat_interval: Optional[float] = None
    repl_ack_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.max_frame < 64:
            raise ValueError("max_frame must be at least 64 bytes")
        if self.max_push_queue < 1:
            raise ValueError("max_push_queue must be positive")
        if self.handshake_timeout <= 0:
            raise ValueError("handshake_timeout must be positive")
        if self.heartbeat_interval is not None and self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive (or None)")
        if self.repl_ack_timeout <= 0:
            raise ValueError("repl_ack_timeout must be positive")

"""Networked serving: a TCP wire over the multi-tenant QueryServer.

The package splits along the protocol boundary:

- :mod:`repro.net.protocol` — length-prefixed JSON framing and the
  oid-faithful answer encodings shared by both ends;
- :mod:`repro.net.errors` — transport errors plus the wire registry
  that lets the server's typed exceptions re-raise client-side;
- :mod:`repro.net.server` — :class:`QueryNetServer`, the frontend
  (one ``selectors`` loop on a dedicated thread, idempotent retries,
  bounded push queues with slow-consumer shedding, graceful drain);
- :mod:`repro.net.client` — :class:`RemoteQueryClient` /
  :class:`RemoteQuerySession`, the synchronous client with timeouts
  and reconnecting retries.

Most callers want :func:`repro.core.api.serve_tcp`.
"""

from repro.net.config import NetConfig
from repro.net.client import (
    RemoteExplain,
    RemoteQueryClient,
    RemoteQuerySession,
    connect,
)
from repro.net.errors import (
    ConnectionLostError,
    FrameTooLargeError,
    NetError,
    NotPrimaryError,
    ProtocolError,
    RemoteError,
    RequestTimeoutError,
    VersionMismatchError,
)
from repro.net.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    answer_from_wire,
    answer_to_wire,
    decode_payload,
    encode_frame,
    members_from_wire,
    members_to_wire,
)
from repro.net.server import NetStats, QueryNetServer

__all__ = [
    "NetConfig",
    "NetStats",
    "QueryNetServer",
    "RemoteExplain",
    "RemoteQueryClient",
    "RemoteQuerySession",
    "connect",
    "NetError",
    "ProtocolError",
    "FrameTooLargeError",
    "VersionMismatchError",
    "ConnectionLostError",
    "NotPrimaryError",
    "RequestTimeoutError",
    "RemoteError",
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "encode_frame",
    "decode_payload",
    "members_to_wire",
    "members_from_wire",
    "answer_to_wire",
    "answer_from_wire",
]

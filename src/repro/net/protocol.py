"""The wire protocol: length-prefixed JSON frames over TCP.

Every message is one *frame*: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON.  Three frame shapes exist:

- **requests** — ``{"id": <hex>, "verb": <name>, ...args}``; the ``id``
  is client-generated and idempotent (the server caches responses per
  id, so a retried request is applied at most once);
- **responses** — ``{"id": <hex>, "ok": true, "result": {...}}`` or
  ``{"id": <hex>, "ok": false, "error": {"type", "message"}}``;
- **events** — ``{"event": <name>, ...}``, pushed server→client with
  no id: ``answer_change`` (a subscribed session's members moved),
  ``shed`` (a slow consumer's sessions were load-shed), ``drain`` (a
  final answer at shutdown) and ``lost`` — ``{"event": "lost",
  "session": <id>, "error": {"type", "message"}}``, the one last frame
  of a subscription whose session was shed or quarantined, carrying the
  typed error its next read would raise.

The first request on a connection must be the ``hello`` handshake
carrying :data:`PROTOCOL_VERSION`; mismatches are rejected before any
session verb runs.

Answer payloads ride the type-preserving oid keys of
:func:`repro.io.oid_to_key` (int / str / tuple object ids survive the
round trip) and the ``inf``-safe interval bounds of :mod:`repro.io`,
so a remotely-served :class:`~repro.query.answers.SnapshotAnswer`
reconstructs bit-identically.
"""

from __future__ import annotations

import json
import struct
from typing import Optional, Union

from repro.io import (
    _answer_from_json,
    _answer_to_json,
    oid_from_key,
    oid_to_key,
)
from repro.net.errors import FrameTooLargeError, ProtocolError
from repro.query.answers import Answer, Members

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "MAX_OPEN_SHARDS",
    "HEADER",
    "encode_frame",
    "decode_payload",
    "members_to_wire",
    "members_from_wire",
    "answer_to_wire",
    "answer_from_wire",
]

PROTOCOL_VERSION = 1
MAX_FRAME = 8 * 1024 * 1024
# An ``open`` may still carry the shard count older clients sent: it is
# checked against this bound, recorded with the session and otherwise
# ignored (every session of a query class shares one engine group).
MAX_OPEN_SHARDS = 64
HEADER = struct.Struct(">I")

# ``json.dumps`` with non-default separators builds an encoder per call.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(payload: dict, max_frame: int = MAX_FRAME) -> bytes:
    """One message as ``len || utf-8 json`` bytes."""
    body = _ENCODE(payload).encode("utf-8")
    if len(body) > max_frame:
        raise FrameTooLargeError(
            f"frame of {len(body)} bytes exceeds the {max_frame}-byte cap"
        )
    return HEADER.pack(len(body)) + body


def decode_payload(body: bytes) -> dict:
    """The JSON object inside one frame body."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting past the parser's depth, well under
        # the frame cap in bytes.
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must carry a JSON object, got {type(payload).__name__}"
        )
    return payload


# ---------------------------------------------------------------------------
# Instant answers (member sets)
# ---------------------------------------------------------------------------
def members_to_wire(members: Members) -> Union[list, dict]:
    """Encode an instant answer: a sorted oid-key list, or per-k lists
    for multiknn sessions."""
    if isinstance(members, dict):
        return {
            str(int(k)): sorted(oid_to_key(oid) for oid in v)
            for k, v in members.items()
        }
    return sorted(oid_to_key(oid) for oid in members)


def members_from_wire(wire: Union[list, dict]) -> Members:
    """Decode an instant answer back to set / per-k dict-of-sets."""
    if isinstance(wire, dict):
        return {
            int(k): {oid_from_key(key) for key in v}
            for k, v in wire.items()
        }
    return {oid_from_key(key) for key in wire}


# ---------------------------------------------------------------------------
# Snapshot answers
# ---------------------------------------------------------------------------
def answer_to_wire(answer: Optional[Answer]) -> Optional[dict]:
    """Encode a snapshot answer (or a multiknn per-k dict of them)."""
    if answer is None:
        return None
    if isinstance(answer, dict):
        return {
            "ks": {
                str(int(k)): _answer_to_json(v, oid_to_key)
                for k, v in answer.items()
            }
        }
    return _answer_to_json(answer, oid_to_key)


def answer_from_wire(wire: Optional[dict]) -> Optional[Answer]:
    """Decode a snapshot answer written by :func:`answer_to_wire`."""
    if wire is None:
        return None
    if "ks" in wire:
        return {
            int(k): _answer_from_json(v, oid_from_key)
            for k, v in wire["ks"].items()
        }
    return _answer_from_json(wire, oid_from_key)

"""Serialization of MODs, trajectories, and update logs.

Plain-JSON round-tripping so databases and recorded update streams can
be stored, shared, and replayed.  The format mirrors the paper's
representation directly: a trajectory is a list of linear pieces
``x = A t + B`` with their intervals; a MOD is the triple
``(O, T, tau)``; an update log is the chronological update list.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Union

from repro.geometry.intervals import Interval, IntervalSet
from repro.geometry.vectors import Vector
from repro.query.answers import SnapshotAnswer
from repro.mod.database import MovingObjectDatabase
from repro.mod.log import UpdateLog
from repro.mod.updates import ChangeDirection, New, Terminate, Update
from repro.trajectory.linearpiece import LinearPiece
from repro.trajectory.trajectory import Trajectory

_INF = "inf"
_NEG_INF = "-inf"


def _bound_to_json(value: float) -> Union[float, str]:
    if math.isinf(value):
        return _INF if value > 0 else _NEG_INF
    return value


def _bound_from_json(value: Union[float, str]) -> float:
    if value == _INF:
        return math.inf
    if value == _NEG_INF:
        return -math.inf
    return float(value)


# ---------------------------------------------------------------------------
# Object identifiers
#
# JSON object keys are strings, so a naive ``str(oid)`` key loses the
# oid's type on the way back (integer oids reload as strings and no
# longer match the originals).  Keys therefore carry a one-letter type
# tag; tuple oids (e.g. composite fleet/vehicle ids) nest via JSON.
# Untagged keys from files written before the tag existed fall back to
# plain strings.
# ---------------------------------------------------------------------------
def oid_to_key(oid: Any) -> str:
    """Encode an object id as a type-preserving JSON object key."""
    if isinstance(oid, str):
        return "s:" + oid
    if isinstance(oid, bool):  # bool before int: bool is an int subclass
        return "b:" + ("1" if oid else "0")
    if isinstance(oid, int):
        return "i:" + str(oid)
    if isinstance(oid, float):
        return "f:" + repr(oid)
    if isinstance(oid, tuple):
        return "t:" + json.dumps([oid_to_key(item) for item in oid])
    raise TypeError(f"cannot encode object id of type {type(oid).__name__}: {oid!r}")


def oid_from_key(key: str) -> Any:
    """Decode an object id key written by :func:`oid_to_key`.

    Untagged keys (legacy files) decode as plain strings.
    """
    tag, sep, body = key.partition(":")
    if not sep:
        return key
    if tag == "s":
        return body
    if tag == "b":
        return body == "1"
    if tag == "i":
        return int(body)
    if tag == "f":
        return float(body)
    if tag == "t":
        return tuple(oid_from_key(item) for item in json.loads(body))
    return key  # unrecognized prefix: treat as a legacy plain-string oid


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------
def trajectory_to_dict(trajectory: Trajectory) -> Dict[str, Any]:
    """Serialize a trajectory to a JSON-compatible dict."""
    return {
        "pieces": [
            {
                "velocity": list(piece.velocity),
                "offset": list(piece.offset),
                "interval": [
                    _bound_to_json(piece.interval.lo),
                    _bound_to_json(piece.interval.hi),
                ],
            }
            for piece in trajectory.pieces
        ]
    }


def trajectory_from_dict(data: Dict[str, Any]) -> Trajectory:
    """Deserialize a trajectory."""
    pieces = [
        LinearPiece(
            Vector(raw["velocity"]),
            Vector(raw["offset"]),
            Interval(
                _bound_from_json(raw["interval"][0]),
                _bound_from_json(raw["interval"][1]),
            ),
        )
        for raw in data["pieces"]
    ]
    return Trajectory(pieces)


# ---------------------------------------------------------------------------
# Updates
# ---------------------------------------------------------------------------
def update_to_dict(update: Update) -> Dict[str, Any]:
    """Serialize one update record."""
    if isinstance(update, New):
        return {
            "kind": "new",
            "oid": update.oid,
            "time": update.time,
            "velocity": list(update.velocity),
            "position": list(update.position),
        }
    if isinstance(update, Terminate):
        return {"kind": "terminate", "oid": update.oid, "time": update.time}
    if isinstance(update, ChangeDirection):
        return {
            "kind": "chdir",
            "oid": update.oid,
            "time": update.time,
            "velocity": list(update.velocity),
        }
    raise TypeError(f"unknown update type: {update!r}")


def update_from_dict(data: Dict[str, Any]) -> Update:
    """Deserialize one update record."""
    kind = data["kind"]
    if kind == "new":
        return New(
            data["oid"],
            float(data["time"]),
            Vector(data["velocity"]),
            Vector(data["position"]),
        )
    if kind == "terminate":
        return Terminate(data["oid"], float(data["time"]))
    if kind == "chdir":
        return ChangeDirection(
            data["oid"], float(data["time"]), Vector(data["velocity"])
        )
    raise ValueError(f"unknown update kind: {kind!r}")


def log_to_dict(log: UpdateLog) -> Dict[str, Any]:
    """Serialize an update log."""
    return {"updates": [update_to_dict(u) for u in log]}


def log_from_dict(data: Dict[str, Any]) -> UpdateLog:
    """Deserialize an update log."""
    return UpdateLog(update_from_dict(u) for u in data["updates"])


# ---------------------------------------------------------------------------
# Databases
# ---------------------------------------------------------------------------
def database_to_dict(db: MovingObjectDatabase) -> Dict[str, Any]:
    """Serialize a MOD: the triple ``(O, T, tau)`` with live and
    terminated objects kept apart."""
    live: Dict[str, Any] = {}
    terminated: Dict[str, Any] = {}
    for oid, traj in db.all_items():
        target = terminated if db.is_terminated(oid) else live
        target[oid_to_key(oid)] = trajectory_to_dict(traj)
    return {
        "tau": db.last_update_time,
        "live": live,
        "terminated": terminated,
    }


def database_from_dict(data: Dict[str, Any]) -> MovingObjectDatabase:
    """Deserialize a MOD.

    Object identifiers round-trip through the tagged keys of
    :func:`oid_to_key` (legacy untagged keys decode as strings);
    terminated objects are installed via their (finite-domain)
    trajectories.  The clock is set to ``tau`` before installing so
    historical turns satisfy Definition 2's invariant throughout.
    """
    db = MovingObjectDatabase(initial_time=float(data["tau"]))
    for key, raw in data["live"].items():
        db.install(oid_from_key(key), trajectory_from_dict(raw))
    for key, raw in data["terminated"].items():
        db.install(oid_from_key(key), trajectory_from_dict(raw))
    return db


# ---------------------------------------------------------------------------
# Snapshot answers
# ---------------------------------------------------------------------------
def _answer_to_json(answer: SnapshotAnswer, oid_key) -> Dict[str, Any]:
    """The membership-JSON shape, with object ids keyed by ``oid_key``
    (``str`` here; the wire protocol passes :func:`oid_to_key`)."""
    return {
        "interval": [
            _bound_to_json(answer.interval.lo),
            _bound_to_json(answer.interval.hi),
        ],
        "memberships": {
            oid_key(oid): [
                [_bound_to_json(iv.lo), _bound_to_json(iv.hi)]
                for iv in answer.intervals_for(oid)
            ]
            for oid in sorted(answer.objects, key=oid_key)
        },
    }


def _answer_from_json(data: Dict[str, Any], key_oid) -> SnapshotAnswer:
    """Read :func:`_answer_to_json` back, object ids through ``key_oid``."""
    interval = Interval(
        _bound_from_json(data["interval"][0]),
        _bound_from_json(data["interval"][1]),
    )
    memberships = {
        key_oid(key): IntervalSet(
            Interval(_bound_from_json(lo), _bound_from_json(hi))
            for lo, hi in pairs
        )
        for key, pairs in data["memberships"].items()
    }
    return SnapshotAnswer(memberships, interval)


def answer_to_dict(answer: SnapshotAnswer) -> Dict[str, Any]:
    """Serialize a snapshot answer (per-object membership intervals)."""
    return _answer_to_json(answer, str)


def answer_from_dict(data: Dict[str, Any]) -> SnapshotAnswer:
    """Deserialize a snapshot answer (object ids become strings)."""
    return _answer_from_json(data, lambda key: key)


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------
def save_database(db: MovingObjectDatabase, path: str) -> None:
    """Write a MOD to a JSON file."""
    with open(path, "w") as handle:
        json.dump(database_to_dict(db), handle, indent=2)


def load_database(path: str) -> MovingObjectDatabase:
    """Read a MOD from a JSON file."""
    with open(path) as handle:
        return database_from_dict(json.load(handle))


def save_log(log: UpdateLog, path: str) -> None:
    """Write an update log to a JSON file."""
    with open(path, "w") as handle:
        json.dump(log_to_dict(log), handle, indent=2)


def load_log(path: str) -> UpdateLog:
    """Read an update log from a JSON file."""
    with open(path) as handle:
        return log_from_dict(json.load(handle))

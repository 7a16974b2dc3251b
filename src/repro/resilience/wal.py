"""Write-ahead logging and crash recovery for a MOD.

Durability layout (one directory per database):

- ``wal.jsonl`` — one JSON line per accepted update, appended in apply
  order via the :mod:`repro.io` update codecs and flushed (optionally
  fsynced) per line;
- ``checkpoint.json`` — the latest database snapshot
  (:func:`repro.io.database_to_dict`), written atomically via a
  temporary file and ``os.replace``.

:func:`recover` rebuilds the database after a crash: load the
checkpoint (if any), then replay the WAL tail — every logged update
with a timestamp after the checkpoint's ``tau``.  A process killed
mid-``append`` leaves a truncated final line; recovery detects it,
skips it, and (by default) truncates the file back to the last intact
line so subsequent appends produce a clean log.  Corruption anywhere
*before* the final line is not a crash artifact and raises
:class:`WalCorruptionError`.
"""

from __future__ import annotations

import json
import os
import time as _time
from typing import Callable, List, Optional, Tuple

from repro.io import database_to_dict, database_from_dict, update_from_dict, update_to_dict
from repro.mod.database import MovingObjectDatabase
from repro.mod.log import UpdateLog
from repro.mod.updates import Update
from repro.obs.instrument import as_instrumentation
from repro.obs.metrics import NULL_COUNTER
from repro.obs.tracing import NULL_TRACER

WAL_FILENAME = "wal.jsonl"
CHECKPOINT_FILENAME = "checkpoint.json"


class WalCorruptionError(RuntimeError):
    """The WAL is damaged beyond what a crash can explain."""


# Durability policies for appended lines, weakest to strongest:
# ``none`` buffers in the process (a *process* crash can lose the
# buffered tail), ``flush`` pushes every line to the OS page cache (a
# process crash loses nothing, an OS crash can lose the tail), and
# ``fsync`` forces every line to stable storage before returning.
SYNC_POLICIES = ("none", "flush", "fsync")


def check_sync(sync: str) -> str:
    """Validate a per-append durability policy name."""
    if sync not in SYNC_POLICIES:
        raise ValueError(f"sync must be one of {SYNC_POLICIES}, got {sync!r}")
    return sync


class WriteAheadLog:
    """Append-only durable log of accepted updates, plus checkpoints.

    ``sync`` picks the per-append durability policy: ``"fsync"`` (the
    default) forces every appended line to stable storage before
    returning — the strongest guarantee and the honest configuration
    for crash-recovery claims; ``"flush"`` flushes to the OS only,
    trading the durability of the last few updates under an *OS* crash
    for throughput; ``"none"`` leaves lines in the process buffer (a
    process crash can lose the buffered tail — ``recover()`` tolerates
    the resulting truncation either way).  :meth:`checkpoint` always
    fsyncs — both the snapshot and, under the weaker policies, the WAL
    itself — so a checkpoint is a durability boundary regardless of
    the per-append policy.
    """

    def __init__(
        self,
        directory: str,
        observe=None,
        sync: Optional[str] = None,
    ) -> None:
        self._directory = str(directory)
        os.makedirs(self._directory, exist_ok=True)
        self._sync = check_sync("fsync" if sync is None else sync)
        self._handle = open(self.wal_path, "a", encoding="utf-8")
        self._appended = 0
        self._closed = False
        self.observe = as_instrumentation(observe)
        if self.observe is None:
            self._c_appends = self._c_checkpoints = NULL_COUNTER
            self._h_append_seconds = None
        else:
            metrics = self.observe.metrics
            self._c_appends = metrics.counter(
                "wal_appends_total", "Updates durably appended to the WAL."
            )
            self._c_checkpoints = metrics.counter(
                "wal_checkpoints_total", "Atomic snapshots written."
            )
            self._h_append_seconds = metrics.histogram(
                "wal_append_seconds",
                "Wall-clock latency of one durable append "
                "(write + flush + optional fsync).",
            )

    # -- paths --------------------------------------------------------------
    @property
    def directory(self) -> str:
        """The durability directory."""
        return self._directory

    @property
    def wal_path(self) -> str:
        """Path of the JSONL update log."""
        return os.path.join(self._directory, WAL_FILENAME)

    @property
    def checkpoint_path(self) -> str:
        """Path of the snapshot file."""
        return os.path.join(self._directory, CHECKPOINT_FILENAME)

    @property
    def appended(self) -> int:
        """Updates appended through this handle."""
        return self._appended

    @property
    def sync(self) -> str:
        """The per-append durability policy (``none``/``flush``/``fsync``)."""
        return self._sync

    # -- writing ------------------------------------------------------------
    def append(self, update: Update) -> None:
        """Append one update as a JSON line, durably per the ``sync``
        policy."""
        if self._closed:
            raise RuntimeError("write-ahead log is closed")
        timed = self._h_append_seconds is not None
        started = _time.perf_counter() if timed else 0.0
        append_jsonl(self._handle, update_to_dict(update), self._sync)
        self._appended += 1
        self._c_appends.inc()
        if timed:
            self._h_append_seconds.observe(_time.perf_counter() - started)

    def checkpoint(self, db: MovingObjectDatabase) -> None:
        """Atomically snapshot the database next to the WAL.

        The snapshot lands via a temporary file and ``os.replace`` so a
        crash mid-checkpoint leaves the previous checkpoint intact.
        Checkpoints are durability boundaries: under the ``none`` /
        ``flush`` append policies the WAL itself is flushed and fsynced
        here, so everything the snapshot does not cover is on stable
        storage the moment the snapshot is.
        """
        if not self._closed and self._sync != "fsync":
            self._handle.flush()
            os.fsync(self._handle.fileno())
        replace_json(self.checkpoint_path, database_to_dict(db))
        self._c_checkpoints.inc()

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if not self._closed:
            self._closed = True
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def append_jsonl(handle, record: dict, sync: str) -> None:
    """Write ``record`` as one compact JSON line, then flush (and
    fsync) as the ``sync`` policy demands — what both the database WAL
    and the server journal mean by an append."""
    handle.write(json.dumps(record, separators=(",", ":")) + "\n")
    if sync != "none":
        handle.flush()
    if sync == "fsync":
        os.fsync(handle.fileno())


def replace_json(path: str, data: dict) -> None:
    """Atomically replace ``path`` with ``data`` as JSON: written to a
    temporary file, fsynced, then ``os.replace``d, so a crash
    mid-checkpoint leaves the previous file intact."""
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


# What a line that is not one intact record raises: undecodable bytes,
# malformed JSON, or a ``decode`` rejecting the parsed value.
_BAD_LINE = (
    UnicodeDecodeError,
    json.JSONDecodeError,
    KeyError,
    ValueError,
    TypeError,
)


def read_jsonl_records(
    path: str, repair: bool, decode: Callable[[dict], object]
) -> List[object]:
    """Parse a JSONL log, handling a crash-truncated or garbled tail.

    The generic engine behind :func:`recover` — the server-level WAL of
    :mod:`repro.replication` reuses it with its own record codec.

    The file is read as *bytes*: a crash mid-append can leave arbitrary
    garbage (including invalid UTF-8) in the tail, and a text-mode read
    would raise ``UnicodeDecodeError`` before any repair logic runs.
    Each line is decoded individually via ``decode`` (which may raise
    ``KeyError``/``ValueError``/``TypeError`` on malformed records); a
    tail of lines that all fail to decode or parse is one
    partially-written append (garbage bytes may contain newlines, so
    the artifact is not necessarily a single line) and is skipped — and
    truncated away under ``repair``.  A corrupt line *followed by an
    intact one* cannot be a crash artifact and raises
    :class:`WalCorruptionError`.
    """
    records: List[object] = []
    good_offset = 0
    with open(path, "rb") as handle:
        lines = handle.readlines()
    for index, raw in enumerate(lines):
        if not raw.strip():
            good_offset += len(raw)
            continue
        try:
            records.append(decode(json.loads(raw.decode("utf-8"))))
        except _BAD_LINE as exc:
            for later in lines[index + 1 :]:
                if _parses_as_record(later, decode):
                    raise WalCorruptionError(
                        f"{path}: line {index + 1} is corrupt but intact "
                        f"entries follow — not a crash artifact ({exc})"
                    ) from exc
            # A process killed mid-append leaves exactly this: a
            # corrupt tail (truncated or garbled, possibly spanning
            # several newline-split chunks).  Skip it.
            if repair:
                _truncate_file(path, good_offset)
            return records
        good_offset += len(raw)
    return records


def _parses_as_record(raw: bytes, decode) -> bool:
    if not raw.strip():
        return False
    try:
        decode(json.loads(raw.decode("utf-8")))
    except _BAD_LINE:
        return False
    return True


def _truncate_file(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.truncate(offset)
        handle.flush()
        os.fsync(handle.fileno())


def recover(
    directory: str,
    repair: bool = True,
    observe=None,
    cache=None,
    gdistances=(),
) -> Tuple[MovingObjectDatabase, UpdateLog]:
    """Rebuild ``(database, update log)`` from a durability directory.

    Loads the checkpoint when present (otherwise starts from an empty
    database), then replays every WAL update with a timestamp after the
    checkpoint's ``tau``.  The returned :class:`UpdateLog` holds *all*
    intact WAL entries — including those the checkpoint already covers
    — so callers can re-derive any prefix state.

    With ``repair=True`` (default) a crash-truncated final WAL line is
    removed from the file so the recovered process can keep appending
    to a clean log.  ``observe`` optionally records a ``wal.recover``
    span and replay counters.

    ``cache`` (a :class:`repro.cache.QueryCache`) binds the recovered
    database and — for each g-distance in ``gdistances`` — pre-builds
    every object's curve into the cache's curve store, so the first
    post-recovery query skips the per-object construction work of its
    Theorem 5 initialization.
    """
    obs = as_instrumentation(observe)
    tracer = obs.tracer if obs is not None else NULL_TRACER
    checkpoint_path = os.path.join(str(directory), CHECKPOINT_FILENAME)
    wal_path = os.path.join(str(directory), WAL_FILENAME)
    with tracer.span("wal.recover", directory=str(directory)) as span:
        had_checkpoint = os.path.exists(checkpoint_path)
        if had_checkpoint:
            with open(checkpoint_path, "r", encoding="utf-8") as handle:
                db = database_from_dict(json.load(handle))
        else:
            db = MovingObjectDatabase(initial_time=float("-inf"))
        updates: List[Update] = []
        if os.path.exists(wal_path):
            updates = read_jsonl_records(wal_path, repair, update_from_dict)
        replayed = 0
        for update in updates:
            if update.time > db.last_update_time:
                db.apply(update)
                replayed += 1
        if obs is not None:
            obs.metrics.counter(
                "wal_recovered_updates_total",
                "Intact WAL entries read during recovery.",
            ).inc(len(updates))
            obs.metrics.counter(
                "wal_replayed_updates_total",
                "WAL entries replayed past the checkpoint during recovery.",
            ).inc(replayed)
        warmed = 0
        if cache is not None:
            cache.bind(db)
            for gdistance in gdistances:
                for oid, trajectory in db:
                    cache.curves.curve(gdistance, oid, trajectory)
                    warmed += 1
        span.set_attribute("checkpoint", had_checkpoint)
        span.set_attribute("recovered", len(updates))
        span.set_attribute("replayed", replayed)
        span.set_attribute("warmed_curves", warmed)
    return db, UpdateLog(updates)

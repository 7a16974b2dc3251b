"""The journal — a JSONL log beside a checkpoint — and crash recovery
for a MOD.

:class:`Journal` is the one class that knows the on-disk layout of a
durability directory: a JSONL log that only grows between checkpoints,
one checkpoint file replaced atomically, the per-append ``sync``
policy, the cut that empties the log once a checkpoint covers it
(:meth:`Journal._cut_log`, called only by the server journal), and the
tolerant reader :meth:`Journal.load`.  This module also holds its
*database* reading, :class:`WriteAheadLog`; the serving layer's
sequenced reading is :class:`repro.replication.ServerWal`.

Database layout (one directory per database):

- ``wal.jsonl`` — one JSON line per accepted update, appended in apply
  order via the :mod:`repro.io` update codecs and flushed (optionally
  fsynced) per line;
- ``checkpoint.json`` — the latest database snapshot
  (:func:`repro.io.database_to_dict`), written atomically via a
  temporary file and ``os.replace``.

:func:`recover` rebuilds the database after a crash — Theorem 5's
(snapshot, suffix of updates) reconstruction: load the checkpoint (if
any), then replay the WAL tail — every logged update with a timestamp
after the checkpoint's ``tau``.  A record is committed by its newline:
a process killed mid-``append`` leaves an unterminated or garbled
final line; recovery skips it and (by default) truncates the file back
to the last intact line, and opening the log for append cuts an
unterminated tail off regardless, so later appends always start a
clean line.  Corruption anywhere *before* the tail, or in a checkpoint,
is not a crash artifact and raises :class:`WalCorruptionError`.
"""

from __future__ import annotations

import json
import logging
import os
import time as _time
from typing import Callable, List, Optional, Tuple

from repro.io import database_to_dict, database_from_dict, update_from_dict, update_to_dict
from repro.mod.database import MovingObjectDatabase
from repro.mod.log import UpdateLog
from repro.mod.updates import Update
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation

log = logging.getLogger(__name__)

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


class Journal:
    """One durability directory: a JSONL log beside one checkpoint file.

    The one class that knows the on-disk layout.  Its two readings —
    :class:`WriteAheadLog` (one database update per line) and
    :class:`repro.replication.ServerWal` (sequenced serving-layer
    records) — name the two files and own what a record *means*; the
    file handling is here, once:

    - **a record is committed by its newline**: an append returns only
      after ``line + "\n"`` is written, so an unterminated final line
      was never acknowledged.  :func:`read_jsonl_records` treats one as
      torn whatever it parses as, and opening for append cuts it off
      before the first write — reader and appender agree, with or
      without ``repair``;
    - ``sync`` picks the per-append policy (:data:`SYNC_POLICIES`);
    - **a checkpoint is a durability boundary**: the log is flushed and
      fsynced first under the weaker policies, then the checkpoint
      lands via a temporary file and ``os.replace`` — so the
      (checkpoint, log tail) pair on disk is always consistent and a
      crash mid-checkpoint leaves the previous one intact;
    - **a covered log may be cut** (:meth:`_cut_log`): between
      checkpoints the log is append-only; once a checkpoint covering
      every record has landed, the log can be emptied in place, in this
      order — (1) fsync the log, (2) write, fsync and ``os.replace``
      the checkpoint (both :meth:`_write_checkpoint`), (3) fsync the
      directory so the rename is durable, (4) truncate the log to zero
      bytes and fsync it.  A crash before (3) leaves the old checkpoint
      and the whole log; one between (3) and (4) leaves the new
      checkpoint beside a stale prefix its reader skips by ``seq``.
      Without (3) a power loss could keep the cut and lose the rename.
      Only the server journal cuts: the database reading's ``recover``
      promises every intact entry, covered or not;
    - ``directory=None`` keeps nothing on disk (appends and checkpoints
      only run the subclass's bookkeeping);
    - :meth:`load` is the one tolerant reader of the pair.
    """

    log_filename: str
    checkpoint_filename: str
    # What asking a memory-only journal for a path raises.
    not_durable = RuntimeError

    def __init__(self, directory: Optional[str], sync: str) -> None:
        self._directory = None if directory is None else str(directory)
        self._sync = check_sync(sync)
        self._handle = None
        self._closed = False
        if self._directory is not None:
            os.makedirs(self._directory, exist_ok=True)
            _drop_torn_tail(self.wal_path)
            self._handle = open(self.wal_path, "a", encoding="utf-8")

    # -- layout -------------------------------------------------------------
    @property
    def directory(self) -> Optional[str]:
        """The durability directory (``None`` when memory-only)."""
        return self._directory

    def _path(self, filename: str) -> str:
        if self._directory is None:
            raise self.not_durable(f"memory-only journal has no {filename}")
        return os.path.join(self._directory, filename)

    @property
    def wal_path(self) -> str:
        """Path of the JSONL log."""
        return self._path(self.log_filename)

    @property
    def checkpoint_path(self) -> str:
        """Path of the checkpoint file."""
        return self._path(self.checkpoint_filename)

    @property
    def sync(self) -> str:
        """The per-append durability policy (``none``/``flush``/``fsync``)."""
        return self._sync

    # -- writing ------------------------------------------------------------
    def _write_record(self, record: dict) -> None:
        """Append one record as a JSON line, durably per ``sync``."""
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        if self._handle is not None:
            append_jsonl(self._handle, record, self._sync)

    def _write_checkpoint(self, data: dict) -> None:
        """Atomically replace the checkpoint, the log made durable first."""
        if self._handle is not None and self._sync != "fsync":
            self._handle.flush()
            os.fsync(self._handle.fileno())
        replace_json(self.checkpoint_path, data)

    def _cut_log(self) -> None:
        """Empty the log in place — steps (3) and (4) of the cut: the
        caller has just landed a checkpoint covering every record.  The
        append handle stays open (``O_APPEND`` writes land at the new
        end)."""
        if self._handle is None:
            return
        fsync_directory(self._directory)
        self._handle.flush()
        os.ftruncate(self._handle.fileno(), 0)
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the log's file handle (idempotent)."""
        self._closed = True
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading ------------------------------------------------------------
    @classmethod
    def load(
        cls, directory: str, repair: bool, decode: Callable[[dict], object]
    ) -> Tuple[Optional[dict], List[object]]:
        """Read ``(checkpoint, records)`` from a durability directory.

        The checkpoint is ``None`` when none was ever written; the
        records are every intact log line, decoded, in order (empty
        when there is no log).  A torn log tail is skipped — and
        truncated away under ``repair`` — by
        :func:`read_jsonl_records`; damage before the tail raises
        :class:`WalCorruptionError`, and so does a checkpoint that is
        not one JSON object: checkpoints land by atomic replace, so a
        damaged one is never a crash artifact.
        """
        path = os.path.join(str(directory), cls.checkpoint_filename)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                checkpoint = json.load(handle)
            if not isinstance(checkpoint, dict):
                raise ValueError("not a JSON object")
        except FileNotFoundError:
            checkpoint = None
        except (ValueError, RecursionError) as exc:
            raise WalCorruptionError(
                f"{path}: corrupt checkpoint ({exc})"
            ) from exc
        try:
            records = read_jsonl_records(
                os.path.join(str(directory), cls.log_filename), repair, decode
            )
        except FileNotFoundError:
            records = []
        return checkpoint, records


class WriteAheadLog(Journal):
    """The database reading of a :class:`Journal`: one accepted update
    per line (the :mod:`repro.io` update codec), checkpoints of the
    whole database.

    ``sync`` picks the per-append durability policy: ``"fsync"`` (the
    default) forces every appended line to stable storage before
    returning — the strongest guarantee and the honest configuration
    for crash-recovery claims; ``"flush"`` flushes to the OS only,
    trading the durability of the last few updates under an *OS* crash
    for throughput; ``"none"`` leaves lines in the process buffer (a
    process crash can lose the buffered tail — ``recover()`` tolerates
    the resulting truncation either way).  :meth:`checkpoint` is a
    durability boundary regardless of the per-append policy.
    """

    log_filename = WAL_FILENAME
    checkpoint_filename = CHECKPOINT_FILENAME

    def __init__(
        self,
        directory: str,
        observe=None,
        sync: Optional[str] = None,
    ) -> None:
        super().__init__(directory, "fsync" if sync is None else sync)
        self._appended = 0
        self.observe = as_instrumentation(observe)
        metrics = (self.observe or NULL_INSTRUMENTATION).metrics
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

    @property
    def appended(self) -> int:
        """Updates appended through this handle."""
        return self._appended

    def append(self, update: Update) -> None:
        """Append one update as a JSON line, durably per the ``sync``
        policy."""
        # An off WAL makes no clock call.
        timed = self.observe is not None
        started = _time.perf_counter() if timed else 0.0
        self._write_record(update_to_dict(update))
        self._appended += 1
        self._c_appends.inc()
        if timed:
            self._h_append_seconds.observe(_time.perf_counter() - started)

    def checkpoint(self, db: MovingObjectDatabase) -> None:
        """Atomically snapshot the database next to the WAL — a
        durability boundary: everything the snapshot does not cover is
        on stable storage the moment the snapshot is."""
        self._write_checkpoint(database_to_dict(db))
        self._c_checkpoints.inc()


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
    mid-checkpoint leaves the previous file intact.  One ``dumps``
    call, one write: only a one-shot ``dumps`` runs the C encoder
    (``json.dump`` streams through the pure-Python one), and the bytes
    are the same."""
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(data))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def fsync_directory(path: str) -> None:
    """Force ``path``'s directory entries (a rename into it) to stable
    storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# What a line that is not one intact record raises: undecodable bytes
# or malformed JSON (both ``ValueError``s), JSON nested past the
# parser's depth, or a ``decode`` rejecting the parsed value.
_BAD_LINE = (ValueError, RecursionError, KeyError, TypeError)


def read_jsonl_records(
    path: str, repair: bool, decode: Callable[[dict], object]
) -> List[object]:
    """Parse a JSONL log, handling a crash-truncated or garbled tail.

    The generic engine behind :meth:`Journal.load`, shared by both
    journals through their own record codecs.

    The file is read as *bytes*: a crash mid-append can leave arbitrary
    garbage (including invalid UTF-8) in the tail, and a text-mode read
    would raise ``UnicodeDecodeError`` before any repair logic runs.
    A line is a record only if it is newline-terminated — an
    unterminated final line was never acknowledged and is torn whatever
    it parses as.  Each line is decoded individually via ``decode``
    (which may raise ``KeyError``/``ValueError``/``TypeError`` on
    malformed records); a tail of lines that all fail to decode or
    parse is one partially-written append (garbage bytes may contain
    newlines, so the artifact is not necessarily a single line) and is
    skipped — and truncated away under ``repair``.  A corrupt line
    *followed by an intact one* cannot be a crash artifact and raises
    :class:`WalCorruptionError`.
    """
    with open(path, "rb") as handle:
        lines = handle.readlines()
    torn = bool(lines) and not lines[-1].endswith(b"\n")
    if torn:
        lines.pop()
    records: List[object] = []
    good_offset = 0
    bad = None  # (line number, error) of the first line that is no record
    for number, raw in enumerate(lines, 1):
        if raw.strip():
            try:
                record = decode(json.loads(raw.decode("utf-8")))
            except _BAD_LINE as exc:
                # A process killed mid-append leaves exactly this: a
                # corrupt tail (truncated or garbled, possibly spanning
                # several newline-split chunks) — unless a record follows.
                bad = bad or (number, exc)
                continue
            if bad is not None:
                raise WalCorruptionError(
                    f"{path}: line {bad[0]} is corrupt but intact entries "
                    f"follow — not a crash artifact ({bad[1]})"
                ) from bad[1]
            records.append(record)
        if bad is None:
            good_offset += len(raw)
    if (torn or bad is not None) and repair:
        _cut_tail(path, b"".join(lines)[:good_offset])
    return records


def _cut_tail(path: str, kept: bytes) -> None:
    """Truncate the log at ``path`` to its first ``len(kept)`` bytes —
    the intact records — and say what went."""
    dropped = os.path.getsize(path) - len(kept)
    _truncate_file(path, len(kept))
    lines = kept.splitlines()
    try:
        seq = json.loads(lines[-1])["seq"] if lines else 0
    except _BAD_LINE:  # the database log numbers its records by line
        seq = len(lines)
    log.warning(
        "%s: torn tail repaired, %d bytes dropped, last good seq %s",
        path,
        dropped,
        seq,
    )


def _truncate_file(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.truncate(offset)
        handle.flush()
        os.fsync(handle.fileno())


def _drop_torn_tail(path: str) -> None:
    """Cut an unterminated final line off the log at ``path`` (if there
    is one), so the next append starts a line of its own."""
    try:
        with open(path, "rb") as handle:
            handle.seek(max(os.path.getsize(path) - 1, 0))
            if handle.read() in (b"", b"\n"):
                return  # the usual case, without reading the log
            handle.seek(0)
            data = handle.read()
    except FileNotFoundError:
        return
    _cut_tail(path, data[: data.rfind(b"\n") + 1])


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
    obs = as_instrumentation(observe) or NULL_INSTRUMENTATION
    with obs.tracer.span("wal.recover", directory=str(directory)) as span:
        checkpoint, updates = WriteAheadLog.load(
            directory, repair, update_from_dict
        )
        if checkpoint is None:
            db = MovingObjectDatabase(initial_time=float("-inf"))
        else:
            db = database_from_dict(checkpoint)
        replayed = 0
        for update in updates:
            if update.time > db.last_update_time:
                db.apply(update)
                replayed += 1
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
        span.set_attribute("checkpoint", checkpoint is not None)
        span.set_attribute("recovered", len(updates))
        span.set_attribute("replayed", replayed)
        span.set_attribute("warmed_curves", warmed)
    return db, UpdateLog(updates)

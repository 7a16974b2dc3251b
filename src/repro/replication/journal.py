"""The server-level write-ahead log: sequenced records + snapshots.

The sequenced reading of :class:`repro.resilience.wal.Journal` (which
owns the files, the ``sync`` policy, the durability boundary and the
tolerant reader).  Where :class:`repro.resilience.WriteAheadLog`
journals the *database* (one update per line), :class:`ServerWal`
journals the whole serving layer: applied updates **and** session
lifecycle ops (open / advance / close / cancel / shed) plus the query
server's idempotent replies.  Every record carries a monotone ``seq``;
a snapshot records the seq it covers and then cuts those records from
the log, so recovery reads and replays exactly the tail — Theorem 5's
(checkpoint, suffix-of-updates) reconstruction discipline applied to
the server's entire answer state.

The journal is what a warm standby replicates: its
:class:`~repro.replication.feed.ReplicaFeed` reads :meth:`records_since`
each replica's last streamed seq and hands the records to the
transport — the same read serves resume-after-reconnect without a
fresh snapshot — and a snapshot trims the retained records only down
to the floor that feed derives from its replica table.

``directory=None`` runs the journal memory-only — still sequenced,
still streamable to replicas — for primaries that want warm-standby
replication without local disk.
"""

from __future__ import annotations

from typing import List, Optional

from repro.gdist.base import GDistance
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.io import trajectory_from_dict, trajectory_to_dict
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation
from repro.replication.errors import NotDurableError
from repro.resilience.wal import Journal

__all__ = [
    "SERVER_WAL_FILENAME",
    "SERVER_CHECKPOINT_FILENAME",
    "ServerWal",
    "gdistance_to_record",
    "gdistance_from_record",
    "load_server_state",
]

SERVER_WAL_FILENAME = "server_wal.jsonl"
SERVER_CHECKPOINT_FILENAME = "server_checkpoint.json"

SNAPSHOT_FORMAT = 1

# Record ops a journal may carry.  ``update`` is an applied database
# update; the rest are session lifecycle / serving-layer ops.
RECORD_OPS = (
    "update",
    "open",
    "advance",
    "close",
    "cancel",
    "shed",
    "reply",
)


def gdistance_to_record(gdistance: GDistance) -> dict:
    """Serialize a session's g-distance for the journal.

    Only :class:`~repro.gdist.euclidean.SquaredEuclideanDistance`
    (fixed points and trajectory queries alike — both reduce to a
    query trajectory) is durable; an opaque g-distance callable cannot
    be reconstructed after a crash and raises
    :class:`~repro.replication.errors.NotDurableError` at registration
    time, not at recovery time.
    """
    if isinstance(gdistance, SquaredEuclideanDistance):
        return {
            "type": "sqeuclid",
            "trajectory": trajectory_to_dict(gdistance.query_trajectory),
        }
    raise NotDurableError(
        f"cannot journal g-distance {type(gdistance).__name__}; durable "
        f"serving requires a SquaredEuclideanDistance (point or "
        f"trajectory query)"
    )


def gdistance_from_record(data: dict) -> GDistance:
    """Rebuild a journaled g-distance."""
    if data.get("type") == "sqeuclid":
        return SquaredEuclideanDistance(
            trajectory_from_dict(data["trajectory"])
        )
    raise NotDurableError(
        f"unknown journaled g-distance type {data.get('type')!r}"
    )


def _decode_record(data: dict) -> dict:
    """Validate one journal line (the tail-repair reader's codec)."""
    if not isinstance(data, dict):
        raise TypeError("journal record must be a JSON object")
    seq = data["seq"]
    op = data["op"]
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        raise ValueError(f"bad journal seq {seq!r}")
    if op not in RECORD_OPS:
        raise ValueError(f"unknown journal op {op!r}")
    return data


class ServerWal(Journal):
    """Sequenced server journal with atomic snapshot checkpoints.

    Between snapshots the log is append-only; each snapshot that
    covers every record cuts it to zero bytes (see
    :meth:`write_snapshot`), so ``server_wal.jsonl`` holds at most
    ``checkpoint_interval`` records and recovery reads the tail, not
    the history.

    Parameters
    ----------
    directory:
        Durability directory (``server_wal.jsonl`` +
        ``server_checkpoint.json``), or ``None`` for a memory-only
        journal (replicated without local durability).
    sync:
        Per-append policy for the JSONL file: ``none`` / ``flush`` /
        ``fsync`` (see :class:`repro.resilience.WriteAheadLog`).  The
        default ``flush`` survives process crashes; snapshots always
        fsync — and fsync the WAL too — so checkpoints are durability
        boundaries regardless (the fsync-at-checkpoint policy).
    start_seq:
        First seq to assign minus one — recovery passes the last
        journaled seq so appends continue the sequence.
    """

    log_filename = SERVER_WAL_FILENAME
    checkpoint_filename = SERVER_CHECKPOINT_FILENAME
    not_durable = NotDurableError
    # The ReplicaFeed streaming this journal (it registers itself): its
    # replicas' positions are the floor a snapshot trims retention to.
    feed = None

    def __init__(
        self,
        directory: Optional[str] = None,
        sync: str = "flush",
        observe=None,
        start_seq: int = 0,
    ) -> None:
        super().__init__(directory, sync)
        self._seq = int(start_seq)
        self._snapshot_seq = 0
        self._records: List[dict] = []  # retained for replica resume
        m = (as_instrumentation(observe) or NULL_INSTRUMENTATION).metrics
        records = m.counter(
            "repl_journal_records_total",
            "Server-journal records appended, by op.",
            labels=("op",),
        )
        self._c_records = lambda op: records.labels(op=op)
        self._c_checkpoints = m.counter(
            "repl_checkpoints_total",
            "Server snapshots checkpointed.",
        )
        m.gauge(
            "repl_journal_seq",
            "Last sequence number appended to the server journal.",
        ).set_function(lambda: self._seq)

    # -- sequence and retention --------------------------------------------
    @property
    def seq(self) -> int:
        """The last appended sequence number (0 before any append)."""
        return self._seq

    @property
    def snapshot_seq(self) -> int:
        """The seq covered by the most recent snapshot this run."""
        return self._snapshot_seq

    @property
    def tail_length(self) -> int:
        """Records appended since the last snapshot (the replay cost a
        crash right now would pay)."""
        return self._seq - self._snapshot_seq

    def records_since(self, seq: int) -> Optional[List[dict]]:
        """Retained records with ``seq`` strictly greater than ``seq``,
        or ``None`` when that suffix is no longer fully retained (the
        caller must fall back to a fresh snapshot)."""
        if not self._records:
            return [] if seq >= self._seq else None
        base = self._records[0]["seq"] - 1
        if seq < base:
            return None
        return [r for r in self._records if r["seq"] > seq]

    # -- writing ------------------------------------------------------------
    def append(self, op: str, **fields) -> dict:
        """Stamp, persist and retain one record."""
        if op not in RECORD_OPS:
            raise ValueError(f"unknown journal op {op!r}")
        record = {"seq": self._seq + 1, "op": op, **fields}
        self._write_record(record)  # raises, seq unmoved, when closed
        self._seq += 1
        self._records.append(record)
        self._c_records(op).inc()
        return record

    def write_snapshot(self, snapshot: dict) -> None:
        """Atomically persist one server snapshot (fsync-at-checkpoint),
        then cut the log records it covers.

        The snapshot must carry the ``seq`` it covers.  The WAL handle
        is flushed and fsynced first, so the (snapshot, WAL-tail) pair
        on disk is always consistent; the snapshot itself lands via a
        temporary file and ``os.replace``.  A snapshot that covers every
        appended record — what :meth:`DurableQueryServer.checkpoint`
        always writes, reading :attr:`seq` under the MOD's lock — then
        empties the log (:meth:`Journal._cut_log`: directory fsync, cut,
        log fsync), so the log never holds more than the records since
        the last snapshot.
        """
        self._snapshot_seq = int(snapshot.get("seq", self._seq))
        # Trim in-memory retention: everything the snapshot covers is
        # recoverable from disk, so only the suffix a replica may still
        # resume from (the feed's floor) must stay resident.
        floor = self._snapshot_seq
        if self.feed is not None:
            floor = self.feed.floor(floor)
        if self._records and self._records[0]["seq"] <= floor:
            self._records = [r for r in self._records if r["seq"] > floor]
        if self._directory is None:
            return
        self._write_checkpoint(snapshot)
        self._c_checkpoints.inc()
        if self._snapshot_seq >= self._seq:
            self._cut_log()


def load_server_state(
    directory: str, repair: bool = True
) -> "tuple[Optional[dict], List[dict]]":
    """Read ``(snapshot, tail_records)`` from a durability directory.

    The snapshot is ``None`` when no checkpoint was ever written; the
    tail is every intact journal record with ``seq`` past the
    snapshot's (all records when there is no snapshot), in order.  A
    crash-truncated journal tail is skipped — and truncated away under
    ``repair`` — by the same tolerant reader the database WAL uses.
    Each snapshot cuts the records it covers, so the log read here is
    the tail alone — except after a crash between a snapshot's rename
    and its cut, whose stale prefix the ``seq`` filter skips.
    """
    snapshot, records = ServerWal.load(directory, repair, _decode_record)
    covered = 0 if snapshot is None else int(snapshot.get("seq", 0))
    return snapshot, [r for r in records if r["seq"] > covered]

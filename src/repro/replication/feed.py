"""The primary's half of the replication link.

A warm standby runs Theorem 5's reconstruction without stopping: a
snapshot, then the suffix of journal records after it.
:class:`ReplicaFeed` is the primary's side of that protocol, whatever
transport carries it: the replica table (per link, the last seq sent
and the last acknowledged), the ``repl.subscribe`` and ``repl.ack``
bodies, the batches streamed at flush boundaries, the ack barrier, and
the retention floor the journal trims to — derived from that one table
when records are trimmed.

A :class:`~repro.replication.DurableQueryServer` builds one over its
journal (``server.feed``).  The TCP frontend owns the connections (the
feed's links), moves their frames and calls the feed under the serving
lock, which the feed takes again (it is reentrant) where it waits or
wakes a waiter.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.net.errors import ProtocolError
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation

__all__ = ["ReplicaFeed"]

# A link's row in the replica table.
_SENT, _ACKED, _UNTIL = 0, 1, 2


class ReplicaFeed:
    """The replica table of one server journal, and the rules over it.

    Parameters
    ----------
    journal:
        The :class:`~repro.replication.journal.ServerWal` streamed; the
        feed registers itself as ``journal.feed``, so every trim the
        journal makes reads the floor from this table.
    lock:
        The serving lock (the MOD's ``RLock``): the ack barrier waits on
        a condition over it, which releases it however deeply held.
    snapshot:
        Zero-argument callable returning the server's snapshot — what a
        replica whose suffix is gone bootstraps from.
    observe:
        Instrumentation for the barrier's ``repl_*`` families.
    """

    def __init__(self, journal, lock, snapshot: Callable[[], dict], observe=None):
        self._journal = journal
        self._snapshot = snapshot
        self._acks = threading.Condition(lock)
        # link -> [seq sent, seq acknowledged, grace deadline].  The
        # deadline is None while the link is attached; a departed link
        # keeps pinning retention until it passes, so a replica that
        # comes back inside its grace resumes from records.
        self._links: Dict[object, list] = {}
        # The reconnect grace the barrier honours: the last departure's
        # deadline (0.0 = none pending, or its degrade already reported).
        self._grace_until = 0.0
        journal.feed = self
        m = (as_instrumentation(observe) or NULL_INSTRUMENTATION).metrics
        self._h_ack = m.histogram(
            "repl_ack_seconds",
            "Sync-replication barrier: journal flush to the last "
            "attached replica's ack (or to the ack timeout that dropped "
            "it), per barrier that waited on a replica.",
        )
        self._c_degraded = m.counter(
            "repl_barrier_degraded_total",
            "Times the sync barrier stopped waiting for a departed "
            "replica to re-attach and fell back to async replication.",
        )

    # -- the table ----------------------------------------------------------
    @property
    def seq(self) -> int:
        """The journal's last seq: what a replica holding everything
        has acknowledged."""
        return self._journal.seq

    def replicas(self) -> List[object]:
        """The attached links (a copy of the table is read first, so the
        loop may ask without the serving lock)."""
        return [link for link, row in list(self._links.items()) if row[_UNTIL] is None]

    def floor(self, seq: int) -> int:
        """The lowest seq at or below ``seq`` whose successors a replica
        may still ask for: the least acknowledged seq of every attached
        link and of every departed one inside its grace (the rows of
        those past it go here)."""
        with self._acks:
            now = time.monotonic()
            for link, row in list(self._links.items()):
                if row[_UNTIL] is not None and row[_UNTIL] <= now:
                    del self._links[link]
            return min([seq] + [row[_ACKED] for row in self._links.values()])

    def stats(self) -> dict:
        """The ``replication`` section of the ``stats`` verb."""
        journal = self._journal
        acked = [self._links[link][_ACKED] for link in self.replicas()]
        least = min(acked) if acked else None
        return {
            "seq": journal.seq,
            "snapshot_seq": journal.snapshot_seq,
            "replicas": len(acked),
            "min_acked": least,
            # The staleness watermark: journal records a freshly
            # promoted laggard replica would still be missing.
            "lag": None if least is None else journal.seq - least,
        }

    # -- the link protocol ----------------------------------------------------
    def attach(self, link, since: int) -> dict:
        """The ``repl.subscribe`` body: attach ``link`` as a replica
        holding every record through ``since``.

        ``0`` (a cold standby) receives a full snapshot to bootstrap
        from; a resuming replica receives the missed record suffix while
        the journal retains it, and a snapshot otherwise.  A ``since``
        beyond the journal claims records this primary never wrote: a
        lost suffix, like one retention moved past.  Either way the
        reply pins what the link was sent, and every record after it
        streams in :meth:`batches`.
        """
        journal = self._journal
        records = (
            journal.records_since(since) if 0 < since <= journal.seq else None
        )
        if records is None:
            snapshot = self._snapshot()
            sent = acked = int(snapshot["seq"])
            reply = {"mode": "snapshot", "snapshot": snapshot, "seq": journal.seq}
        else:
            sent = records[-1]["seq"] if records else journal.seq
            acked = since
            reply = {"mode": "records", "records": records, "seq": journal.seq}
        self._links[link] = [sent, acked, None]
        # Wake any barrier holding through the reconnect grace: it
        # re-runs against this replica's ack stream.
        self.notify()
        return reply

    def ack(self, link, seq: int) -> dict:
        """The ``repl.ack`` body: ``link`` holds every record through
        ``seq``, which it must have been sent."""
        row = self._links.get(link)
        if row is None or row[_UNTIL] is not None:
            raise ProtocolError("repl.ack from a non-replica connection")
        if seq > row[_SENT]:
            raise ProtocolError(
                f"repl.ack of seq {seq} is beyond the {row[_SENT]} "
                f"streamed to this replica"
            )
        if seq > row[_ACKED]:
            row[_ACKED] = seq
        self.notify()
        return {"acked": row[_ACKED], "seq": self._journal.seq}

    def depart(self, link, grace: float) -> Optional[int]:
        """``link`` stopped being a replica (dropped, or its connection
        died): wake every barrier waiting on its ack and open the
        reconnect grace — ``grace`` seconds in which the barrier holds a
        write no replica holds, and the link's acknowledged seq keeps
        pinning retention.  ``0`` opens none (a draining primary's
        listener is closed: nothing can come back).  Returns that seq,
        or ``None`` when ``link`` was not attached."""
        row = self._links.get(link)
        if row is None or row[_UNTIL] is not None:
            return None
        self.notify()
        if grace > 0:
            row[_UNTIL] = self._grace_until = time.monotonic() + grace
        else:
            del self._links[link]
        return row[_ACKED]

    def end_grace(self) -> None:
        """No departed link can come back (the primary is draining): the
        barrier honours no reconnect grace, and departed links stop
        pinning retention."""
        self._grace_until = 0.0
        for link in self._links.keys() - self.replicas():
            del self._links[link]

    def notify(self) -> None:
        """Wake every barrier to re-check the table (and its ``stopped``
        test)."""
        with self._acks:
            self._acks.notify_all()

    def batches(self) -> Iterator[Tuple[object, Optional[List[dict]]]]:
        """``(link, records)`` for each attached link with records past
        the last it was sent: the batch to stream, or ``None`` when that
        suffix fell off retention (the caller drops the link; it must
        re-sync from a snapshot).

        Batching at flush boundaries (not per append) keeps compound
        operations — a ``close`` record and its ``reply`` record, say —
        atomic on the wire: a standby holds either both or neither, so
        a primary kill between them cannot strand a half-applied pair.
        """
        seq = self._journal.seq
        for link, row in list(self._links.items()):
            if row[_UNTIL] is None and row[_SENT] < seq:
                records = self._journal.records_since(row[_SENT])
                if records:
                    row[_SENT] = records[-1]["seq"]
                yield link, records

    # -- the ack barrier ------------------------------------------------------
    def barrier(
        self,
        timeout: float,
        stopped: Callable[[], bool],
        drop: Callable[[object, str], None],
    ) -> Optional[int]:
        """Hold until every replica acknowledged the journal's current
        seq, calling ``drop(link, "ack timeout")`` on one that has not
        within ``timeout`` seconds (``drop`` departs it).

        A write no replica holds — every replica waited on left, or
        there is none — holds through the reconnect grace the last
        departure opened, and a replica that attaches in it gets a full
        ``timeout`` from then, so a primary kill inside a standby's
        reconnect window cannot lose an acknowledged write no standby
        ever saw.  Whatever the replicas do, it returns within three
        timeouts, or as soon as ``stopped()``; the caller's thread
        holds the serving lock, which every wait releases.

        Returns the seq when this is the first write let through with no
        replica holding it since a departure — the degrade to async
        replication, counted here and reported by the caller — else
        ``None``.
        """
        with self._acks:
            target = self._journal.seq
            clock = time.monotonic
            began = clock()
            limit = began + 3 * timeout
            deadline = began + timeout
            held = replicated = False
            degraded = None
            while not stopped():
                attached = self.replicas()
                links = self._links
                pending = [link for link in attached if links[link][_ACKED] < target]
                held = held or len(pending) < len(attached)
                replicated = replicated or bool(attached)
                now, grace = clock(), min(self._grace_until, limit)
                if pending and now < deadline:
                    self._acks.wait(deadline - now)
                elif pending:
                    for link in pending:
                        drop(link, "ack timeout")
                elif held:
                    break
                elif now < grace:
                    # No replica holds the write: wait for one to
                    # attach, then give it a full ack timeout.
                    self._acks.wait(grace - now)
                    deadline = min(clock() + timeout, limit)
                else:
                    if self._grace_until:
                        # Once per departure; a server that never had a
                        # replica has nothing to report.
                        self._grace_until = 0.0
                        self._c_degraded.inc()
                        degraded = target
                    break
            if replicated:
                self._h_ack.observe(clock() - began)
        return degraded

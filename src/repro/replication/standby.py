"""Warm-standby replication: a second serving stack fed by the wire.

:class:`StandbyReplica` bootstraps from a primary
:class:`~repro.net.QueryNetServer` (``repl.subscribe`` with
``from=0`` returns a full server snapshot), rebuilds an equivalent
:class:`~repro.replication.DurableQueryServer` locally, and then
applies the primary's journal records as they stream in as
``repl.append`` event batches — acknowledging each applied batch so the
primary's ack barrier can guarantee that every acknowledged write
already lives on the standby.

The standby fronts its mirror with its own
:class:`~repro.net.QueryNetServer` in *standby mode*: clients may
connect (it answers ``hello`` / ``ping`` / ``stats``) but session
verbs are refused with
:class:`~repro.net.errors.NotPrimaryError` until :meth:`promote`
flips it into a primary.  Because every applied record is re-journaled
locally, the standby is itself crash-recoverable and — once promoted —
replicable to the next standby down the chain.

The pump thread blocks on the replication link
(:meth:`~repro.net.RemoteQueryClient.wait_events`) and applies and
acks each batch on receipt, so a sync primary's ack barrier costs a
round trip plus the standby's own apply (its journal append and its
engine groups' maintenance), not a poll period.  Failure detection is
pull-based: when the link dies the pump re-subscribes with
``from=<last applied seq>`` (resuming from the record suffix, or a
fresh snapshot when retention moved on).  When the primary stays dead
past the configured retries the standby records the loss
(:attr:`primary_lost`) and — with ``auto_promote=True`` — promotes
itself, at which point failover-aware clients
(:class:`~repro.net.RemoteQueryClient` with an endpoint list) find it
round-robin.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional, Tuple

from repro.net.client import RemoteQueryClient
from repro.net.config import NetConfig
from repro.net.errors import NetError, ProtocolError
from repro.net.server import QueryNetServer
from repro.replication.durable import DurableQueryServer
from repro.replication.errors import ReplicationError

__all__ = ["StandbyReplica"]


class _ReplicaDropped(Exception):
    """Internal: the primary sent ``repl.dropped`` (it is alive)."""


class StandbyReplica:
    """One warm standby: mirror server + standby frontend + pump.

    Parameters
    ----------
    primary:
        The primary net server's ``(host, port)``.
    directory:
        Durability directory for the standby's own journal (``None``
        journals in memory only — the standby still mirrors and can
        still promote, it just cannot crash-recover itself).
    host, port:
        Where the standby's own frontend binds (``port=0`` picks a
        free port; see :attr:`address`).
    net_config:
        The standby frontend's :class:`~repro.net.NetConfig`.
    sync, checkpoint_interval:
        Journal knobs for the mirror, as on
        :class:`~repro.replication.DurableQueryServer`.
    poll_interval:
        The pump's *idle* period: with nothing arriving, how often it
        re-checks its stop flag and the link (so it bounds how long
        ``close`` / ``promote`` wait for an idle pump).  Not a latency
        knob — a ``repl.append`` is applied and acked the moment it
        lands, and a closed link wakes the pump at once.
    reconnect_retries, backoff:
        Resume policy when the replication link drops: how many
        re-subscribe attempts (each with jittered exponential backoff)
        before the primary is declared lost.
    auto_promote:
        Promote automatically when the primary is declared lost.
    seed:
        Seed for the replication client's backoff jitter.
    observe:
        Optional instrumentation for the mirror server + journal.
    """

    def __init__(
        self,
        primary: Tuple[str, int],
        directory: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        net_config: Optional[NetConfig] = None,
        sync: str = "flush",
        checkpoint_interval: Optional[int] = 64,
        poll_interval: float = 0.05,
        reconnect_retries: int = 3,
        backoff: float = 0.05,
        auto_promote: bool = False,
        seed: Optional[int] = None,
        observe=None,
    ) -> None:
        self._primary = (str(primary[0]), int(primary[1]))
        self._directory = directory
        self._host = host
        self._port = int(port)
        self._net_config = net_config
        self._sync = sync
        self._checkpoint_interval = checkpoint_interval
        self._poll_interval = float(poll_interval)
        self._reconnect_retries = int(reconnect_retries)
        self._backoff = float(backoff)
        self._auto_promote = bool(auto_promote)
        self._seed = seed
        self._observe = observe

        self._client: Optional[RemoteQueryClient] = None
        self._server: Optional[DurableQueryServer] = None
        self._net: Optional[QueryNetServer] = None
        self._pump: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._applied_seq = 0
        self._started = False
        self.primary_lost = False  # primary unreachable (failover case)
        self.detached = False  # stream unrecoverable, primary may live
        self.resync_count = 0  # resume attempts that needed a snapshot

    # -- accessors ----------------------------------------------------------
    @property
    def server(self) -> DurableQueryServer:
        """The mirror query server (read access; do not mutate while
        the standby is still replicating)."""
        if self._server is None:
            raise ReplicationError("standby is not started")
        return self._server

    @property
    def net(self) -> QueryNetServer:
        """The standby's own frontend."""
        if self._net is None:
            raise ReplicationError("standby is not started")
        return self._net

    @property
    def address(self) -> Tuple[str, int]:
        """The standby frontend's bound ``(host, port)`` — what
        failover clients list after the primary."""
        return self.net.address

    @property
    def applied_seq(self) -> int:
        """The last primary journal seq applied (the ack watermark)."""
        return self._applied_seq

    @property
    def is_promoted(self) -> bool:
        return self._net is not None and not self._net.is_standby

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "StandbyReplica":
        """Bootstrap from the primary's snapshot, bind the standby
        frontend, and start streaming."""
        if self._started:
            raise ReplicationError("standby already started")
        self._started = True
        # The replication link: plain client, jittered retries.  No
        # heartbeat watchdog — the pump's own read loop is the
        # liveness check for this connection.
        self._client = RemoteQueryClient(
            self._primary[0],
            self._primary[1],
            retries=self._reconnect_retries,
            backoff=self._backoff,
            seed=self._seed,
        )
        result = self._client.request("repl.subscribe", {"from": 0})
        if result.get("mode") != "snapshot":
            raise ReplicationError(
                f"expected a snapshot bootstrap, got {result.get('mode')!r}"
            )
        self._bootstrap(result["snapshot"])
        self._net = QueryNetServer(
            self._server, self._net_config, standby=True
        ).start(self._host, self._port)
        self._pump = threading.Thread(
            target=self._pump_loop, name="repro-standby", daemon=True
        )
        self._pump.start()
        return self

    def _bootstrap(self, snapshot: dict) -> None:
        """Rebuild the mirror server from one primary snapshot,
        persisted at once: a standby crash before the first periodic
        checkpoint must not lose the snapshot it was built from."""
        self._applied_seq = int(snapshot["seq"])
        self._server = DurableQueryServer.restore(
            snapshot,
            (),
            self._directory,
            observe=self._observe,
            sync=self._sync,
            checkpoint_interval=self._checkpoint_interval,
        )

    # -- the pump -----------------------------------------------------------
    def _pump_loop(self) -> None:
        client = self._client
        while not self._stop.is_set():
            try:
                client.wait_events(self._poll_interval)
                for frame in client.events_for(None):
                    self._handle_frame(frame)
                if not client.connected:
                    self._resume()
            except _ReplicaDropped:
                # The primary is alive — it evicted *us* (ack stall).
                # Re-attaching is safe; promotion would split-brain.
                try:
                    self._resume()
                except Exception:
                    self.detached = True
                    return
            except ReplicationError:
                # Resume needed a snapshot we cannot splice in: the
                # stream is unrecoverable but the primary may live.
                self.detached = True
                return
            except ProtocolError:
                # The link reconnected without replica status (e.g. an
                # ack raced a reconnect); re-attach.
                try:
                    self._resume()
                except Exception:
                    if not self._stop.is_set():
                        self._lose_primary()
                    return
            except (NetError, ConnectionError, OSError):
                if not self._stop.is_set():
                    self._lose_primary()
                return

    def _handle_frame(self, frame: dict) -> None:
        event = frame.get("event")
        if event == "repl.append":
            if self._apply_records(frame.get("records", ())):
                self._client.request("repl.ack", {"seq": self._applied_seq})
        elif event == "repl.dropped":
            raise _ReplicaDropped(str(frame.get("reason", "")))
        elif event == "goodbye":
            # Graceful primary drain: its sessions were closed and the
            # close records replicated before this frame, so the
            # mirror is final.  Treat as a (clean) primary loss.
            raise ConnectionResetError("primary drained")

    def _apply_records(self, records) -> bool:
        """Apply the primary records past the applied watermark, in
        order, advancing it one record at a time; returns whether it
        moved (a resume overlap re-sends records already applied)."""
        before = self._applied_seq
        for record in records:
            seq = int(record["seq"])
            if seq <= self._applied_seq:
                continue
            self._apply(record)
            self._applied_seq = seq
        return self._applied_seq > before

    def _apply(self, record: dict) -> None:
        """Apply one primary record on the pump thread, under the
        serving lock the standby's frontend dispatches under."""
        with self._server.db.lock:
            self._server.apply_record(record)

    def _resume(self) -> None:
        """Re-attach the replication link after a drop.

        ``request`` itself reconnects with backoff; on success we ask
        for the suffix past our applied watermark.  A primary that no
        longer retains it sends a fresh snapshot — but the mirror
        server already serves (possibly stale) state, so a full
        re-bootstrap would have to swap the serving stack; instead we
        apply nothing, count the resync, and promotion-by-loss
        semantics take over if this repeats.
        """
        result = self._client.request(
            "repl.subscribe", {"from": self._applied_seq}
        )
        if result.get("mode") == "records":
            self._apply_records(result.get("records", ()))
            self._client.request("repl.ack", {"seq": self._applied_seq})
        else:
            # Snapshot fallback: our suffix fell off retention.  The
            # snapshot covers everything we hold and more, but splicing
            # it under a live frontend is not supported — declare the
            # stream lost so the operator (or auto-promotion) decides.
            self.resync_count += 1
            raise ReplicationError(
                "replication resume window lost; standby requires a "
                "fresh bootstrap"
            )

    def cut_link(self) -> bool:
        """Chaos hook: sever the live replication link mid-stream.

        On TCP, frame loss *is* connection loss — so this models a
        dropped replication frame by shutting the socket down under
        the pump, which notices on its next read and resumes with
        ``from=<applied watermark>``.  Returns ``False`` when there is
        no live link to cut."""
        client = self._client
        if client is None:
            return False
        sock = client._sock
        if sock is None:
            return False
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            return False
        return True

    def _lose_primary(self) -> None:
        self.primary_lost = True
        if self._auto_promote and not self._stop.is_set():
            try:
                self.promote(_from_pump=True)
            except Exception:
                pass

    # -- failover -----------------------------------------------------------
    def promote(self, _from_pump: bool = False) -> QueryNetServer:
        """Flip the standby into a serving primary.

        Stops the replication pump, closes the link to the (dead)
        primary, and lifts the frontend's standby gate — replicated
        sessions and journaled idempotent replies become servable
        immediately.  Returns the (now primary) frontend.
        """
        if self._net is None:
            raise ReplicationError("standby is not started")
        self._stop.set()
        if (
            not _from_pump
            and self._pump is not None
            and self._pump.is_alive()
            and threading.current_thread() is not self._pump
        ):
            self._pump.join(timeout=10.0)
        if self._client is not None:
            self._client.close()
        if self._net.is_standby:
            self._net.promote()
        return self._net

    def close(self) -> None:
        """Stop replicating and shut the standby stack down cleanly
        (final checkpoint included).  Unpromoted, it closes no session:
        the mirror stays as the primary last left it.  Idempotent."""
        self._stop.set()
        if (
            self._pump is not None
            and threading.current_thread() is not self._pump
        ):
            self._pump.join(timeout=10.0)
        if self._client is not None:
            self._client.close()
        if self._net is not None:
            self._net.close()
        elif self._server is not None:
            self._server.shutdown()

    def kill(self) -> None:
        """Chaos kill: drop the link and abort the frontend with no
        drain and no final checkpoint."""
        self._stop.set()
        if self._client is not None:
            self._client.close()
        if self._net is not None:
            self._net.kill()

    def __enter__(self) -> "StandbyReplica":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

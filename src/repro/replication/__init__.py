"""Durable serving: server WAL, checkpoints, recovery, warm standbys.

The package is the Theorem 5 discipline applied to the *serving*
layer.  Where :mod:`repro.resilience` journals the database (one
update per line), :mod:`repro.replication` journals the whole
multi-tenant server — session lifecycle decisions included — and
snapshots its state, so a crashed server rebuilds from (checkpoint,
WAL tail) with replay cost proportional to the tail:

- :mod:`repro.replication.journal` — :class:`ServerWal`, the
  sequenced server journal + atomic snapshot checkpoints;
- :mod:`repro.replication.feed` — :class:`ReplicaFeed`, the primary's
  half of the replication link over that journal: the replica table,
  the ``repl.subscribe`` / ``repl.ack`` bodies, stream batching, the
  ack barrier and the retention floor (a transport such as
  :class:`~repro.net.QueryNetServer` only moves its frames);
- :mod:`repro.replication.durable` — :class:`DurableQueryServer`
  (a :class:`~repro.server.QueryServer` that journals itself) and
  :func:`recover_server` (crash recovery);
- :mod:`repro.replication.standby` — :class:`StandbyReplica`, a warm
  standby streaming the primary's journal over the wire, promotable
  on primary failure.
"""

from repro.replication.durable import DurableQueryServer, recover_server
from repro.replication.errors import (
    NotDurableError,
    PromotionError,
    ReplicationError,
)
from repro.replication.feed import ReplicaFeed
from repro.replication.journal import (
    SERVER_CHECKPOINT_FILENAME,
    SERVER_WAL_FILENAME,
    ServerWal,
    load_server_state,
)
from repro.replication.standby import StandbyReplica

__all__ = [
    "DurableQueryServer",
    "recover_server",
    "StandbyReplica",
    "ReplicaFeed",
    "ServerWal",
    "load_server_state",
    "SERVER_WAL_FILENAME",
    "SERVER_CHECKPOINT_FILENAME",
    "ReplicationError",
    "NotDurableError",
    "PromotionError",
]

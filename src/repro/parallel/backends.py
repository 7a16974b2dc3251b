"""The engine host, and the execution backends that run one per shard.

An *engine host* (:class:`ShardRuntime`) owns one database's sweep
state and is the one place a broken engine is healed: re-run Theorem 5
initialization from the database, remember where the new engine began,
and answer what precedes it as a past query (Theorem 4) at the end —
the database keeps every trajectory's history, so no engine's
timelines are ever needed back.  A
:class:`~repro.resilience.supervisor.SupervisedQuerySession` holds one
over the caller's MOD; a sharded evaluator holds one per shard,
through a backend, and drives it with a small op protocol:

``apply(updates)``
    One chronological sub-batch of this shard's updates.
``advance_to(t)`` / ``members_with_values(t)``
    Clock ticks and instant answers (members paired with their current
    g-distance values, the inputs to the ``O(k * shards)`` merge).
``finalize(end)``
    Finish the sweep and return the stitched snapshot answer (a dict
    of answers per ``k`` in multiknn mode).
``rebuild()``
    Theorem 5 re-initialization from the host's own database state.

Two backends implement the protocol:

- :class:`SequentialBackend` — the host itself, in-process;
  deterministic, zero serialization, the default.
- :class:`ProcessPoolBackend` — each shard is pinned to its own
  single-worker :class:`concurrent.futures.ProcessPoolExecutor`.  Only
  pickle-safe values cross the boundary: the shard database travels as
  its JSON dict form (:func:`repro.io.database_to_dict`), the query
  spec by pickle (so the g-distance must be picklable — every built-in
  g-distance is), and updates/answers as their plain dataclass/value
  forms.  Engines and treaps never cross process boundaries.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.api import _single_sweep, open_engine
from repro.core.spec import Answer, QuerySpec
from repro.geometry.intervals import Interval
from repro.io import database_from_dict, database_to_dict
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ObjectId, Update
from repro.parallel.merge import shard_candidates, stitch_answers

log = logging.getLogger(__name__)

__all__ = [
    "ProcessPoolBackend",
    "SequentialBackend",
    "ShardRuntime",
    "resolve_backend",
]


class ShardRuntime:
    """One database's engine and view, and the time they began.

    The host — not the engine — subscribes to the database, so an
    engine that throws on an update cannot stay wedged in the listener
    list.  With ``heal`` the failure is answered by :meth:`rebuild`;
    without, it propagates (the engine-facade contract an outer
    supervisor relies on).

    ``spec`` carries the sweep window; the engine is a
    :class:`~repro.sweep.live.LiveSweep` (one candidate engine per
    horizon; a re-plan and a heal are the same Theorem-5
    re-initialisation, but only a heal distrusts the old timeline), or
    with ``sharding`` (``shards=`` and friends) a sharded evaluator.
    ``healing`` is a context-manager factory entered around each
    rebuild — the owner's span and counters.
    """

    def __init__(
        self,
        db: MovingObjectDatabase,
        spec: QuerySpec,
        heal: bool = False,
        observe=None,
        curve_store=None,
        healing=nullcontext,
        **sharding,
    ) -> None:
        self._db = db
        self._spec = spec
        self._heal = heal
        self._healing = healing
        self._engine_options = dict(
            observe=observe, curve_store=curve_store, **sharding
        )
        self.failures = 0
        # Where the engine in force began: all a heal remembers.
        self._live_from = spec.lo
        self.engine, self.view = self._build(spec.lo)
        db.subscribe(self.on_update)

    def _build(self, start: float):
        return open_engine(
            self._db, self._spec.over(start, self._spec.hi), **self._engine_options
        )

    # -- inspection ---------------------------------------------------------
    @property
    def current_time(self) -> float:
        """The sweep's position."""
        return self.engine.current_time

    def operation_counts(self) -> Dict[str, int]:
        """The current engine's primitive-op breakdown."""
        return self.engine.operation_counts()

    # -- the op protocol ----------------------------------------------------
    def on_update(self, update: Update) -> None:
        """The guarding database listener."""
        try:
            self.engine.on_update(update)
        except Exception:
            if not self._heal:
                raise
            self.rebuild()

    def apply(self, updates: Sequence[Update]) -> int:
        """Apply one chronological sub-batch through the database.

        A healing host rebuilds on an engine failure and still applies
        the rest of the sub-batch — one poisoned update cannot wedge
        the shard or lose its neighbors.  Returns the number of healed
        failures.
        """
        before = self.failures
        for update in updates:
            self._db.apply(update)
        return self.failures - before

    def advance_to(self, t: float) -> None:
        """Advance the sweep (idempotent at the current time)."""
        if t > self.engine.current_time:
            self.engine.advance_to(t)

    def members_with_values(self, t: float) -> List[Tuple[ObjectId, float]]:
        """This shard's candidates for the instant merge at ``t``:
        current members paired with their g-distance values (a rank
        view's at its widest k; any smaller k's global answer selects
        from them — :func:`~repro.parallel.merge.shard_candidates`)."""
        self.advance_to(t)
        return shard_candidates(self._spec, self.engine, self.view, t)

    def finalize(self, end: float) -> Answer:
        """Finish the sweep at ``end`` and return the answer over the
        whole window.

        The engine in force answers ``[live_from, end]``.  After a
        rebuild, what precedes it is a past query over the database's
        recorded history (Theorem 4) — the same pruned one-shot sweep
        behind ``evaluate_*``, over the host's curve store."""
        self.advance_to(end)
        self.engine.finalize()
        pieces = []
        lo = self._spec.lo
        if self._live_from > lo:
            pieces.append(
                _single_sweep(
                    self._db,
                    self._spec,
                    Interval(lo, self._live_from),
                    self._engine_options["observe"],
                    self._engine_options["curve_store"],
                )
            )
        pieces.append(self._spec.answer(self.view))
        return stitch_answers(pieces, Interval(lo, end))

    def rebuild(self) -> None:
        """Replace a broken engine by Theorem 5 initialization at the
        database's ``tau`` (``O(n log n)`` at the host's size ``n``).

        Nothing is read back from the failed engine: it may have swept
        past ``tau`` without the update that broke it, and the database
        — which is authoritative — still holds everything before."""
        self.failures += 1
        now = self._db.last_update_time
        log.warning(
            "engine rebuilt at tau=%s over %d objects", now, self._db.object_count
        )
        with self._healing():
            abandon = getattr(self.engine, "shutdown", None)
            if abandon is not None:  # a sharded evaluator holds shard hosts
                abandon()
            self.engine, self.view = self._build(now)
        self._live_from = now

    def close(self) -> None:
        """Detach from the database."""
        self._db.unsubscribe(self.on_update)


class SequentialBackend:
    """Deterministic in-process execution (the default)."""

    name = "sequential"

    def spawn(
        self,
        shard_id: int,
        db: MovingObjectDatabase,
        spec: QuerySpec,
        heal: bool = False,
        observe=None,
        curve_store=None,
    ) -> ShardRuntime:
        """Host one shard in-process (``observe`` and ``curve_store``
        are threaded through to the shard engine; counters aggregate
        across shards, and a shared store lets a rebuilt shard re-hit
        every curve its objects already paid for)."""
        return ShardRuntime(
            db, spec, heal=heal, observe=observe, curve_store=curve_store
        )


# ---------------------------------------------------------------------------
# Process-pool backend
# ---------------------------------------------------------------------------
# Worker-global shard state: each shard is pinned to its own
# single-worker executor, so exactly one ShardRuntime lives per worker
# process and a module global is unambiguous.
_WORKER_RUNTIME: Optional[ShardRuntime] = None
# Worker-side telemetry bundle, built only when the parent ships a
# serialized TraceContext: (instrumentation, ring sink).  The registry
# and sink never cross the boundary live — _w_profile() exports them as
# plain dicts/lists for the parent to absorb.
_WORKER_OBS: Optional[tuple] = None


def _w_build(
    db_dict: dict, spec: QuerySpec, heal: bool, context: Optional[dict] = None
) -> bool:
    global _WORKER_RUNTIME, _WORKER_OBS
    db = database_from_dict(db_dict)
    observe = None
    if context is not None:
        from repro.obs.instrument import Instrumentation
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.profile import ContextTracer, TraceContext
        from repro.obs.tracing import RingBufferSink, Tracer

        ctx = TraceContext.from_dict(context)
        sink = RingBufferSink()
        observe = Instrumentation(
            metrics=MetricsRegistry(),
            tracer=ContextTracer(Tracer(sink), ctx),
            context=ctx,
        )
        _WORKER_OBS = (observe, sink)
    else:
        _WORKER_OBS = None
    _WORKER_RUNTIME = ShardRuntime(db, spec, heal=heal, observe=observe)
    return True


def _w_op(method: str, *args):
    """Run one op-protocol method on the worker's host."""
    return getattr(_WORKER_RUNTIME, method)(*args)


def _w_profile() -> Optional[dict]:
    """Export the worker's telemetry as plain values for absorption."""
    if _WORKER_OBS is None:
        return None
    observe, sink = _WORKER_OBS
    return {
        "metrics": observe.metrics.snapshot(),
        "records": sink.records,
    }


class ProcessShardHost:
    """A shard pinned to one single-worker process pool.

    Pinning gives the worker process exclusive, persistent shard state
    across batches — the property a shared pool cannot provide.  All
    arguments and results crossing the boundary are plain picklable
    values; the engine and its treap never leave the worker.
    """

    def __init__(
        self,
        shard_id: int,
        db: MovingObjectDatabase,
        spec: QuerySpec,
        heal: bool = False,
        context: Optional[dict] = None,
    ) -> None:
        self.shard_id = shard_id
        self._pool = ProcessPoolExecutor(max_workers=1)
        self._closed = False
        self._profiled = context is not None
        self._call(_w_build, database_to_dict(db), spec, heal, context)

    def _call(self, fn, *args):
        if self._closed:
            raise RuntimeError("shard host is closed")
        return self._pool.submit(fn, *args).result()

    def apply(self, updates: Sequence[Update]) -> int:
        return self._call(_w_op, "apply", list(updates))

    def advance_to(self, t: float) -> None:
        self._call(_w_op, "advance_to", t)

    def members_with_values(self, t: float) -> List[Tuple[ObjectId, float]]:
        return self._call(_w_op, "members_with_values", t)

    def finalize(self, end: float) -> Answer:
        return self._call(_w_op, "finalize", end)

    def rebuild(self) -> None:
        self._call(_w_op, "rebuild")

    def operation_counts(self) -> Dict[str, int]:
        return self._call(_w_op, "operation_counts")

    def profile_snapshot(self) -> Optional[dict]:
        """The worker's exported telemetry (metrics snapshot + trace
        records), or ``None`` when the shard is unprofiled."""
        if not self._profiled:
            return None
        return self._call(_w_profile)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._pool.shutdown()


class ProcessPoolBackend:
    """One pinned single-worker process per shard.

    A live registry cannot be shared across processes, so the parent's
    ``observe`` is not threaded through as an object.  What *does*
    cross is the query's serialized
    :class:`~repro.obs.profile.TraceContext` (when the bundle carries
    one): the worker builds its own registry + context tracer, stamps
    every worker-side span with the owning ``query_id``, and the
    evaluator re-absorbs the exported snapshot at finalize via
    :meth:`ProcessShardHost.profile_snapshot`.
    """

    name = "process"

    def spawn(
        self,
        shard_id: int,
        db: MovingObjectDatabase,
        spec: QuerySpec,
        heal: bool = False,
        observe=None,
        curve_store=None,
    ) -> ProcessShardHost:
        """Host one shard in a dedicated worker process.

        ``curve_store`` is accepted for protocol compatibility but not
        forwarded: in-process caches cannot span the process boundary,
        so each worker builds (and keeps) its own curves.
        """
        from repro.obs.instrument import as_instrumentation

        instr = as_instrumentation(observe)
        context = None
        if instr is not None and instr.context is not None:
            context = instr.context.to_dict()
        return ProcessShardHost(shard_id, db, spec, heal=heal, context=context)


def resolve_backend(backend):
    """Coerce a backend argument: a name or an object with ``spawn``."""
    if backend == "sequential" or backend is None:
        return SequentialBackend()
    if backend == "process":
        return ProcessPoolBackend()
    if hasattr(backend, "spawn"):
        return backend
    raise ValueError(
        f"unknown backend {backend!r}; expected 'sequential', 'process', "
        "or an object with a spawn() method"
    )

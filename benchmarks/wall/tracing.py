"""In-memory span tracing from outside the program.

The traced run wraps calls into each layer at runtime — nothing under
``src/`` is edited — and records one span per call: name, start, end,
the span that caused it, and the id of the generator operation it
belongs to.  A layer's *self time* is its spans' duration minus the
part their child spans cover.

The generator is one thread and every operation blocks until the
program is done with it, so causality across threads is simple: a span
that starts on another thread with nothing open there (the net loop,
the standby's pump) is caused by whatever the generator is blocked in.
The one exception is the replication ack barrier, a coroutine that
stays open across loop callbacks; while it waits it is the cause, so
the standby's work lands under it and its own self time is pure wait.

Install the wrappers *before* building the stack under test: bound
methods handed to ``db.subscribe`` keep whatever function the class
held when they were bound.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_NAME, _START, _END, _PARENT, _OP = range(5)

#: Wrapped calls: (module, owner class, attribute, span name).
#: The span name's first dotted component is the layer.  The five
#: ``QueryNetServer._*`` attributes are private glue, wrapped because
#: the public surface has no call at that boundary (thread hand-off,
#: request dispatch, push fan-out, journal streaming, ack barrier).
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.gdist.euclidean", "SquaredEuclideanDistance", "__call__", "gdist.curve"),
    ("repro.mod.database", "MovingObjectDatabase", "apply", "mod.apply"),
    ("repro.sweep.engine", "SweepEngine", "__init__", "sweep.engine.init"),
    ("repro.sweep.engine", "SweepEngine", "run_to_end", "sweep.engine.run_to_end"),
    ("repro.sweep.engine", "SweepEngine", "advance_to", "sweep.engine.advance_to"),
    ("repro.sweep.engine", "SweepEngine", "on_update", "sweep.engine.on_update"),
    ("repro.sweep.engine", "SweepEngine", "finalize", "sweep.engine.finalize"),
    ("repro.parallel.batching", "BatchedUpdateApplier", "submit", "parallel.applier.submit"),
    ("repro.parallel.batching", "BatchedUpdateApplier", "flush", "parallel.applier.flush"),
    ("repro.server.server", "QueryServer", "register_knn", "server.register"),
    ("repro.server.server", "QueryServer", "register_within", "server.register"),
    ("repro.server.server", "QueryServer", "register_multiknn", "server.register"),
    ("repro.server.group", "EngineGroup", "apply", "server.group.apply"),
    ("repro.server.group", "EngineGroup", "members", "server.group.members"),
    ("repro.server.group", "EngineGroup", "partial", "server.group.partial"),
    ("repro.server.session", "ServerSession", "members", "server.session.members"),
    ("repro.server.session", "ServerSession", "close", "server.session.close"),
    ("repro.net.client", "RemoteQueryClient", "request", "net.client.request"),
    ("repro.net.server", "QueryNetServer", "_ingest", "net.ingest"),
    ("repro.net.server", "QueryNetServer", "_push_answer_changes", "net.push"),
    ("repro.net.server", "QueryNetServer", "_dispatch", "net.dispatch"),
    ("repro.net.server", "QueryNetServer", "_flush_repl", "replication.stream"),
    ("repro.net.server", "QueryNetServer", "_repl_barrier", "replication.barrier"),
    ("repro.replication.journal", "ServerWal", "append", "replication.journal.append"),
    ("repro.replication.journal", "ServerWal", "write_snapshot", "replication.journal.snapshot"),
    ("repro.replication.durable", "DurableQueryServer", "snapshot_state", "replication.snapshot_state"),
    ("repro.replication.durable", "DurableQueryServer", "apply_record", "replication.apply_record"),
)

#: Module-level functions other modules bind with ``from x import f``:
#: every namespace holding the name gets the same wrapper.
SHARED_FUNCTIONS: Tuple[Tuple[str, Tuple[str, ...], str], ...] = (
    (
        "first_order_flip_after",
        ("repro.geometry.piecewise", "repro.sweep.engine"),
        "geometry.flip_test",
    ),
    (
        "encode_frame",
        ("repro.net.protocol", "repro.net.server", "repro.net.client"),
        "net.encode",
    ),
    (
        "decode_payload",
        ("repro.net.protocol", "repro.net.server", "repro.net.client"),
        "net.decode",
    ),
    ("members_to_wire", ("repro.net.protocol", "repro.net.server"), "net.encode"),
    ("answer_to_wire", ("repro.net.protocol", "repro.net.server"), "net.encode"),
    ("members_from_wire", ("repro.net.protocol", "repro.net.client"), "net.decode"),
    ("answer_from_wire", ("repro.net.protocol", "repro.net.client"), "net.decode"),
)

#: Layers a timed loop can spend time in.  ``cache``, ``resilience`` and
#: ``obs`` have probes but no spans: the gated runs are uncached, journal
#: through ``replication`` and run no EXPLAIN.  ``bench`` is the
#: generator's own code.
LAYERS = (
    "geometry",
    "gdist",
    "mod",
    "sweep",
    "parallel",
    "server",
    "net",
    "replication",
    "bench",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder plus the runtime patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._local = threading.local()
        self._generator = threading.get_ident()
        self._cause: Optional[list] = None
        self._next_op = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _begin(self, nid: int) -> list:
        stack = self._stack()
        on_generator = threading.get_ident() == self._generator
        parent = stack[-1] if stack else (None if on_generator else self._cause)
        if parent is not None:
            op = parent[_OP]
        elif on_generator:
            op = self._next_op
            self._next_op += 1
        else:
            op = -1
        rec = [nid, time.perf_counter(), 0.0, parent, op]
        self.spans.append(rec)
        stack.append(rec)
        if on_generator:
            self._cause = rec
        return rec

    def _end(self, rec: list) -> None:
        rec[_END] = time.perf_counter()
        # Spans nest per thread, the barrier coroutine included: every
        # sync span opened while it waits has closed before it resumes.
        self._stack().pop()
        if self._cause is rec:
            self._cause = rec[_PARENT]

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        begin, end = self._begin, self._end
        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                rec = begin(nid)
                self._cause = rec
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end(rec)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(rec)

        return traced

    # -- patching -----------------------------------------------------------
    def _patch(self, owner: object, attr: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            replacement: object = property(
                self._wrap(original.fget, name), original.fset, original.fdel
            )
        elif isinstance(original, staticmethod):
            replacement = staticmethod(self._wrap(original.__func__, name))
        else:
            replacement = self._wrap(original, name)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self, extra: Sequence[Tuple[object, str, str]] = ()) -> None:
        """Wrap every target.  ``extra`` adds ``(owner, attr, span name)``
        triples — the benchmark's own operation functions, which become
        the root spans."""
        for module_name, owner_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            self._patch(getattr(module, owner_name), attr, name)
        for attr, module_names, name in SHARED_FUNCTIONS:
            modules = [importlib.import_module(m) for m in module_names]
            wrapper = self._wrap(getattr(modules[0], attr), name)
            for module in modules:
                self._patches.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        for owner, attr, name in extra:
            self._patch(owner, attr, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------
    def summarize(self, start: float, end: float) -> dict:
        """Self time per span name and per layer for spans that began
        inside ``[start, end]`` (the timed phase)."""
        spans = [
            s for s in self.spans if start <= s[_START] <= end and s[_END] > 0.0
        ]
        covered: Dict[int, float] = {}
        for s in spans:
            parent = s[_PARENT]
            if parent is not None:
                covered[id(parent)] = covered.get(id(parent), 0.0) + (
                    s[_END] - s[_START]
                )
        by_name: Dict[str, dict] = {}
        for s in spans:
            duration = s[_END] - s[_START]
            self_time = max(0.0, duration - covered.get(id(s), 0.0))
            row = by_name.setdefault(
                self.names[s[_NAME]], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += self_time
        by_layer = {layer: 0.0 for layer in LAYERS}
        for name, row in by_name.items():
            by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + row["self_s"]
        return {"by_name": by_name, "by_layer": by_layer, "spans": len(spans)}

    def dump(self, path: str, start: float, extra: dict) -> None:
        """Write every span (times relative to ``start``) and ``extra``
        (the summaries) as one JSON document."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [
                s[_NAME],
                round(s[_START] - start, 7),
                round(s[_END] - start, 7),
                index.get(id(s[_PARENT]), -1) if s[_PARENT] is not None else -1,
                s[_OP],
            ]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent", "op"],
                    "names": self.names,
                    "spans": rows,
                    **extra,
                },
                handle,
            )

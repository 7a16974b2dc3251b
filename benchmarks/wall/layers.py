"""Per-layer probes: each layer timed from outside, around its public
calls, on inputs captured from the workload being run.

A probe gets the workload's MOD factory, its query specs and a prefix
of its update stream, and returns ``{metric: (value, unit)}``.  Probes
are small (a fraction of a second each) and run only in the traced
run, after the timed phases; their cost is not in any end-to-end
number.
"""

from __future__ import annotations

import os
from typing import Callable, List, Sequence

from repro import Interval, QueryCache, evaluate_knn, explain, serve, serve_tcp
from repro.geometry.piecewise import first_order_flip_after
from repro.net import RemoteQueryClient
from repro.net.protocol import (
    HEADER,
    answer_from_wire,
    answer_to_wire,
    decode_payload,
    encode_frame,
    members_from_wire,
    members_to_wire,
)
from repro.io import update_to_dict
from repro.parallel.batching import BatchedUpdateApplier
from repro.replication import DurableQueryServer, ServerWal
from repro.resilience.wal import WriteAheadLog
from repro.sweep.engine import SweepEngine
from repro.sweep.event_queue import IndexedEventQueue, IntersectionEvent, pair_key

from harness import Metrics, median, now, scratch_dir, time_calls
from reference import Mirror, Spec

#: Seconds each timed probe may spend (the smoke run passes less).
BUDGET = 0.15


def _applied(build_db: Callable[[], object], updates: Sequence[object]):
    db = build_db()
    for update in updates:
        db.apply(update)
    return db


def probe_kernel(build_db, spec: Spec, updates: Sequence[object], budget: float) -> Metrics:
    """geometry, gdist, mod, sweep.*, parallel — no server around them."""
    out: Metrics = {}
    gd = spec.gdistance()

    # mod: apply with no subscribers.
    db = build_db()
    samples = []
    for update in updates:
        start = now()
        db.apply(update)
        samples.append(now() - start)
    out["mod.apply_us"] = (median(samples) * 1e6, "us")
    tau = db.last_update_time

    # gdist: one curve per trajectory of the MOD as the stream left it.
    trajectories = [traj for _, traj in db]
    samples = time_calls([lambda t=t: gd(t) for t in trajectories], budget, 1)
    out["gdist.curve_us"] = (median(samples) * 1e6, "us")

    # geometry: the flip test on pairs that are neighbours in the
    # distance order at tau — the pairs a sweep would ask about.
    curves = sorted((gd(t) for t in trajectories), key=lambda f: f(tau))
    pairs = list(zip(curves, curves[1:]))
    samples = time_calls(
        [
            lambda f=f, g=g: first_order_flip_after(
                f, g, tau, assume_sign=-1, allow_immediate=True
            )
            for f, g in pairs
        ],
        budget,
        1,
    )
    out["geometry.flip_test_us"] = (median(samples) * 1e6, "us")

    # sweep.engine: Theorem-5 init at the workload's N, then the event
    # loop over a short window, then per-update maintenance.
    samples = time_calls(
        [lambda: SweepEngine(db, gd, Interval.at_least(tau))], budget, 2
    )
    out["sweep.engine.init_ms"] = (median(samples) * 1e3, "ms")
    engine = SweepEngine(db, gd, Interval(tau, tau + 1.0))
    start = now()
    engine.run_to_end()
    wall = now() - start
    events = engine.stats.intersections_processed
    out["sweep.engine.event_us"] = (wall / max(events, 1) * 1e6, "us")
    out["sweep.engine.events"] = (float(events), "count")

    db = build_db()
    engine = SweepEngine(db, gd, Interval.at_least(db.last_update_time))
    ops_before = engine.primitive_ops()
    samples = []
    for update in updates:
        db.apply(update)
        start = now()
        engine.on_update(update)
        engine.advance_to(update.time)
        samples.append(now() - start)
    out["sweep.engine.update_ms"] = (median(samples) * 1e3, "ms")
    out["sweep.engine.ops_per_update"] = (
        (engine.primitive_ops() - ops_before) / max(len(updates), 1),
        "count",
    )

    # sweep.object_list: rank, swap (and swap back), delete + insert,
    # on the order the engine just maintained.
    order = engine.order
    entries = order.entries()
    t = engine.current_time

    def order_ops(entry):
        order.rank(entry)
        nxt = entry.next
        if nxt is not None:
            order.swap_adjacent(entry, nxt)
            order.swap_adjacent(nxt, entry)
        order.delete(entry)
        order.insert(entry, t)

    samples = time_calls([lambda e=e: order_ops(e) for e in entries], budget, 1)
    ops_per_call = 5
    out["sweep.object_list.op_us"] = (median(samples) / ops_per_call * 1e6, "us")

    # sweep.event_queue: push / remove / pop at length N.
    n = max(len(entries), 2)
    queue = IndexedEventQueue()
    for i in range(n):
        queue.push(IntersectionEvent(float((i * 7919) % n), pair_key(i, i + 1)))
    fresh = iter(range(n, 10**9))

    def queue_ops():
        i = next(fresh)
        queue.push(IntersectionEvent(float((i * 7919) % n), pair_key(i, i + 1)))
        queue.remove(pair_key(i, i + 1))
        event = queue.pop()
        queue.push(event)

    samples = time_calls([queue_ops], budget, 100)
    out["sweep.event_queue.op_us"] = (median(samples) / 4 * 1e6, "us")

    # parallel: the applier's own cost — routing and batching over
    # sinks that do nothing.
    applier = BatchedUpdateApplier(lambda u: [0, 1], lambda key, batch: None)
    samples = time_calls([lambda u=u: applier.submit(u) for u in updates], budget, 1)
    out["parallel.applier.flush_us"] = (median(samples) * 1e6, "us")
    return out


def probe_cache_and_explain(
    build_db, spec: Spec, updates: Sequence[object], budget: float
) -> Metrics:
    """cache (diagnostic: the gated runs are uncached) and the EXPLAIN
    cross-check — stage wall times against wall measured out here."""
    out: Metrics = {}
    db = _applied(build_db, updates)
    tau = db.last_update_time
    window = Interval(tau, tau + 0.25)
    point = list(spec.point)
    cache = QueryCache()
    evaluate_knn(db, point, window, k=5, cache=cache)
    samples = time_calls(
        [lambda: evaluate_knn(db, point, window, k=5, cache=cache)], budget / 2, 3
    )
    out["cache.hit_ms"] = (median(samples) * 1e3, "ms")
    out["cache.hit_rate"] = (cache.hit_rate, "ratio")
    cache.unbind()
    start = now()
    report = explain(db, point, window, kind="knn", k=5)
    wall = now() - start
    staged = sum(stage["wall_seconds"] for stage in report.to_dict().get("stages", ()))
    out["obs.explain_coverage"] = (staged / wall if wall else 0.0, "ratio")
    return out


def probe_server(build_db, specs: Sequence[Spec], updates: Sequence[object]) -> Metrics:
    """server: the same sessions on an in-process QueryServer, no TCP."""
    horizon = (updates[-1].time if updates else 0.0) + 1.0
    mirror = Mirror(build_db, specs, updates, horizon)
    return {
        "server.update_ms": (mirror.update_ms, "ms"),
        "server.members_us": (mirror.members_us, "us"),
        "server.register_ms": (mirror.register_ms, "ms"),
        "server.groups": (float(mirror.groups), "count"),
        "server.ops_per_update": (mirror.ops_per_update, "count"),
    }


def probe_net(
    build_db, specs: Sequence[Spec], updates: Sequence[object], budget: float
) -> Metrics:
    """net: the same sessions behind serve_tcp, one subscribed client."""
    out: Metrics = {}
    db = build_db()
    net = serve_tcp(db)
    client = RemoteQueryClient(*net.address)
    try:
        sessions = [spec.open(client) for spec in specs]
        for session in sessions:
            session.subscribe()
        samples = time_calls([client.ping], budget, 20)
        out["net.rtt_ms"] = (median(samples) * 1e3, "ms")
        # The same sessions in process, fed the same updates turn and turn
        # about: the difference of each pair is what TCP ingestion adds,
        # and slow machine drift falls on both sides of it.
        twin = build_db()
        local = serve(twin)
        for spec in specs:
            spec.register(local)
        bytes_before = net.stats.bytes_out
        pushes_before = net.stats.pushes
        samples = []
        for update in updates:
            start = now()
            twin.apply(update)
            middle = now()
            db.apply(update)
            samples.append((now() - middle) - (middle - start))
        local.shutdown()
        client.ping()
        count = max(len(updates), 1)
        out["net.ingest_overhead_ms"] = (median(samples) * 1e3, "ms")
        out["net.bytes_out_per_update"] = (
            (net.stats.bytes_out - bytes_before) / count, "B",
        )
        out["net.pushes_per_update"] = ((net.stats.pushes - pushes_before) / count, "count")
        members = [session.members for session in sessions]
        horizon = db.last_update_time + 1.0
        samples, answers = [], []
        for session in sessions:
            start = now()
            answers.append(session.close(at=horizon))
            samples.append(now() - start)
        out["net.close_ms"] = (median(samples) * 1e3, "ms")
    finally:
        client.close()
        net.close()

    # The codec on the payloads this run produced: instant answers and
    # final snapshot answers, framed the way the server frames them.
    def encode_members(m):
        return encode_frame({"id": "x", "ok": True, "result": {"members": members_to_wire(m)}})

    def encode_answer(a):
        return encode_frame({"id": "x", "ok": True, "result": {"answer": answer_to_wire(a)}})

    samples = time_calls(
        [lambda m=m: encode_members(m) for m in members]
        + [lambda a=a: encode_answer(a) for a in answers],
        budget,
        3,
    )
    out["net.encode_us"] = (median(samples) * 1e6, "us")
    member_frames = [encode_members(m)[HEADER.size:] for m in members]
    answer_frames = [encode_answer(a)[HEADER.size:] for a in answers]
    samples = time_calls(
        [
            lambda b=b: members_from_wire(decode_payload(b)["result"]["members"])
            for b in member_frames
        ]
        + [
            lambda b=b: answer_from_wire(decode_payload(b)["result"]["answer"])
            for b in answer_frames
        ],
        budget,
        3,
    )
    out["net.decode_us"] = (median(samples) * 1e6, "us")
    return out


def probe_journal(
    build_db, specs: Sequence[Spec], updates: Sequence[object], budget: float
) -> Metrics:
    """replication.journal and the older resilience WAL it duplicates."""
    out: Metrics = {}
    records = [update_to_dict(update) for update in updates]
    with scratch_dir("journal-") as root:
        for policy in ("none", "flush", "fsync"):
            wal = ServerWal(os.path.join(root, policy), sync=policy)
            samples = time_calls(
                [lambda r=r: wal.append("update", update=r) for r in records], budget / 2, 1
            )
            wal.close()
            out[f"journal.append_us.{policy}"] = (median(samples) * 1e6, "us")
        old = WriteAheadLog(os.path.join(root, "resilience"), sync="fsync")
        samples = time_calls([lambda u=u: old.append(u) for u in updates], budget / 2, 1)
        old.close()
        out["resilience.wal.append_us"] = (median(samples) * 1e6, "us")

        directory = os.path.join(root, "durable")
        server = DurableQueryServer(
            build_db(), directory=directory, sync="fsync", checkpoint_interval=None
        )
        for spec in specs:
            spec.register(server)
        size_before = os.path.getsize(server.journal.wal_path)
        for update in updates:
            server.db.apply(update)
        size = os.path.getsize(server.journal.wal_path) - size_before
        out["journal.bytes_per_update"] = (size / max(len(updates), 1), "B")
        samples = time_calls([server.checkpoint], budget, 2)
        out["journal.snapshot_ms"] = (median(samples) * 1e3, "ms")
        server.shutdown()
        server.journal.close()
    return out


def probe_barrier(build_db, specs: Sequence[Spec], updates: Sequence[object]) -> float:
    """Update→visible p50 (ms) on the durable server *without* a
    standby — what ``repl.barrier_ms`` is measured against."""
    from repro.net import QueryNetServer

    with scratch_dir("barrier-") as root:
        db = build_db()
        server = DurableQueryServer(db, directory=root, sync="fsync")
        net = QueryNetServer(server).start(port=0)
        client = RemoteQueryClient(*net.address)
        try:
            for spec in specs:
                spec.open(client).subscribe()
            samples: List[float] = []
            for update in updates:
                start = now()
                db.apply(update)
                client.ping()
                samples.append(now() - start)
        finally:
            client.close()
            net.close()
            server.journal.close()
    return median(samples) * 1e3


def probe_all(
    build_db, specs: Sequence[Spec], updates: Sequence[object], budget: float = BUDGET
) -> Metrics:
    """Every workload-independent probe, on one workload's inputs;
    ``budget`` is the seconds each timed probe may spend."""
    out: Metrics = {}
    out.update(probe_kernel(build_db, specs[0], updates, budget))
    out.update(probe_cache_and_explain(build_db, specs[0], updates, budget))
    out.update(probe_server(build_db, specs, updates))
    out.update(probe_net(build_db, specs, updates, budget))
    out.update(probe_journal(build_db, specs, updates, budget))
    return out

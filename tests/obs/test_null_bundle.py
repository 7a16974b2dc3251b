"""Telemetry off is one null object; telemetry on did not move.

Off: every binder runs its one (real) arm against
:data:`NULL_INSTRUMENTATION`, whose registry hands out the shared no-op
singletons — the very objects the hot paths called when each binder
still carried a hand-written ``if observe is None`` arm — while the
public ``.observe`` stays ``None``.

On: one fixed scenario through every instrumented layer reproduces the
family names, kinds, label sets, help strings and series values
recorded in ``metrics_pin.json`` at the commit *before* the binders
were folded (wall-clock ``*_seconds`` series excluded).  Regenerate
with ``PYTHONPATH=src python tests/obs/test_null_bundle.py`` only for
an intentional metrics change.
"""

import json
import os
import sys

from repro.cache import QueryCache
from repro.core.api import evaluate_knn, evaluate_within
from repro.core.spec import QuerySpec
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.mod.database import MovingObjectDatabase
from repro.net.server import QueryNetServer
from repro.obs import (
    NULL_INSTRUMENTATION,
    NULL_REGISTRY,
    NULL_TRACER,
    Instrumentation,
    as_instrumentation,
)
from repro.obs.metrics import NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM
from repro.replication import DurableQueryServer, ServerWal
from repro.resilience.ingest import IngestPipeline
from repro.resilience.supervisor import SupervisedQuerySession
from repro.resilience.wal import WriteAheadLog, recover
from repro.server.server import QueryServer
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.sweep.live import LiveSweep
from repro.workloads.faults import FaultInjector
from repro.workloads.generator import random_linear_mod, recorded_future_workload

PIN = os.path.join(os.path.dirname(__file__), "metrics_pin.json")


# -- off ---------------------------------------------------------------------
class TestNullRegistry:
    def test_every_declaration_is_the_shared_singleton(self):
        assert NULL_REGISTRY.counter("a", "help") is NULL_COUNTER
        assert NULL_REGISTRY.counter("a", labels=("x",)) is NULL_COUNTER
        assert NULL_REGISTRY.gauge("b", labels=("x",)) is NULL_GAUGE
        assert NULL_REGISTRY.histogram("c", min_exp=0) is NULL_HISTOGRAM

    def test_a_null_family_is_its_own_child(self):
        assert NULL_COUNTER.labels(kind="swap") is NULL_COUNTER
        assert NULL_GAUGE.labels(op="x") is NULL_GAUGE
        assert NULL_HISTOGRAM.labels() is NULL_HISTOGRAM
        NULL_GAUGE.labels(op="x").set_function(lambda: 1 / 0)  # discarded
        assert NULL_GAUGE.value == 0.0

    def test_nothing_is_recorded(self):
        NULL_REGISTRY.counter("a").inc(5)
        NULL_REGISTRY.histogram("c").observe(1.0)
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.families() == []

    def test_the_null_bundle(self):
        assert NULL_INSTRUMENTATION.metrics is NULL_REGISTRY
        assert NULL_INSTRUMENTATION.tracer is NULL_TRACER
        assert NULL_INSTRUMENTATION.profile is None
        assert NULL_INSTRUMENTATION.context is None
        assert as_instrumentation(None) is None  # off is still None


class TestOffStateBindsTheSameSingletons:
    def test_sweep_engine_and_views(self):
        db = random_linear_mod(6, seed=1)
        engine = SweepEngine(
            db, SquaredEuclideanDistance([0.0, 0.0]), Interval(0.0, 5.0)
        )
        assert engine.observe is None
        assert engine._c_swap is NULL_COUNTER
        assert engine._c_ev_intersection is NULL_COUNTER
        assert engine._c_flips is NULL_COUNTER
        assert engine._h_update_ops is NULL_HISTOGRAM
        assert engine._tracer is NULL_TRACER
        assert engine._profile is None
        view = ContinuousKNN(engine, 2)
        assert view._c_enter is NULL_COUNTER and view._c_leave is NULL_COUNTER

    def test_live_host(self):
        gd = SquaredEuclideanDistance([0.0, 0.0])
        host = LiveSweep(random_linear_mod(6, seed=1), gd, Interval.at_least(0.0))
        host.attach(QuerySpec.knn(gd, 2))
        assert host.observe is None and host.engine.observe is None
        assert host._bar._c_replans["raise"] is NULL_COUNTER
        assert host._bar._c_update is NULL_COUNTER

    def test_every_other_binder(self, tmp_path):
        db = MovingObjectDatabase()
        assert db.observe is None and db._c_new is NULL_COUNTER
        wal = WriteAheadLog(str(tmp_path / "db"))
        assert wal.observe is None and wal._c_appends is NULL_COUNTER
        assert wal._h_append_seconds is NULL_HISTOGRAM
        pipeline = IngestPipeline(db, wal=wal)
        assert pipeline.observe is None
        assert pipeline._c_received is NULL_COUNTER
        assert pipeline._f_quarantined is NULL_COUNTER
        injector = FaultInjector(seed=1)
        assert injector.observe is None
        assert injector._f_injected is NULL_COUNTER
        journal = ServerWal(str(tmp_path / "srv"))
        assert journal._c_checkpoints is NULL_COUNTER
        assert journal._c_records("update") is NULL_COUNTER
        cache = QueryCache()
        assert cache.curves._c_hits is NULL_COUNTER
        assert cache.answers._c_misses is NULL_COUNTER
        server = QueryServer(random_linear_mod(3, seed=2))
        assert server.observe is None
        assert server._c_session("register") is NULL_COUNTER
        assert server._h_fanout is NULL_HISTOGRAM
        net = QueryNetServer(server)
        assert net._c_request("ping") is NULL_COUNTER
        server.shutdown()
        wal.close()
        journal.close()


# -- on ----------------------------------------------------------------------
def scenario(directory):
    """One deterministic pass through every instrumented layer."""
    obs = Instrumentation()
    origin = [0.0, 0.0]
    window = Interval(0.0, 20.0)
    # Batch evaluation over one recorded future: cold, then cached.
    source, _ = recorded_future_workload(12, 30, seed=5)
    cache = QueryCache(observe=obs)
    evaluate_knn(source, origin, window, k=2, observe=obs, cache=cache)
    evaluate_knn(source, origin, window, k=2, observe=obs, cache=cache)
    evaluate_within(source, origin, window, distance=15.0, observe=obs)
    # A dirty feed through ingest + WAL into a supervised session and a
    # durable server.
    feed_db, _ = recorded_future_workload(
        8, 25, seed=3, extent=30.0, speed=3.0
    )
    feed = list(feed_db.log.updates)
    db = MovingObjectDatabase(initial_time=0.0, observe=obs)
    wal = WriteAheadLog(os.path.join(directory, "db"), observe=obs, sync="none")
    pipeline = IngestPipeline(
        db, policy="repair", window=5.0, wal=wal, observe=obs,
        checkpoint_every=5,
    )
    for update in feed[:8]:
        pipeline.submit(update)
    supervised = SupervisedQuerySession.knn(db, origin, k=2, observe=obs)
    server = DurableQueryServer(
        db, directory=os.path.join(directory, "srv"), observe=obs
    )
    QueryNetServer(server)  # never started: binds the net_* families
    session = server.register_knn(origin, k=3)
    server.register_within([1.0, 1.0], 12.0)
    injector = FaultInjector(
        seed=9, duplicate_rate=0.2, corrupt_rate=0.1, observe=obs
    )
    dirty, _ = injector.perturb(feed[8:])
    for update in dirty:
        pipeline.submit(update)
    pipeline.flush()
    session.advance_to(db.last_update_time)
    server.checkpoint()
    supervised.close()
    server.shutdown()
    wal.close()
    recover(os.path.join(directory, "db"), observe=obs)
    return {
        "families": {
            family.name: [family.kind, list(family.label_names), family.help]
            for family in obs.metrics.families()
        },
        "series": {
            name: value
            for name, value in obs.metrics.snapshot().items()
            if "_seconds" not in name
        },
    }


def test_instrumented_scenario_matches_the_pin(tmp_path):
    with open(PIN, "r", encoding="utf-8") as handle:
        pin = json.load(handle)
    seen = scenario(str(tmp_path))
    assert seen["families"] == pin["families"]
    assert seen["series"] == pin["series"]
    # Every layer the issue names is in the pin.
    prefixes = {name.split("_")[0] for name in pin["families"]}
    assert prefixes >= {
        "wal", "repl", "sweep", "view", "server", "net", "cache",
        "ingest", "supervisor", "mod", "faults",
    }


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        json.dump(scenario(scratch), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")

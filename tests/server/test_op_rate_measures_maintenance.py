"""The op-rate controller measures maintenance, not set-up.

``server_update_primitive_ops`` and the shed decision divide the ops the
groups spent since the last flush by the updates that flush applied.
Two things are not maintenance and must not reach that quotient: the
first plan of a group an open creates (or the re-plan of a group a
wider tenant joins) and the churn of short-lived tenants, whose retire
used to throw the measurement window away.
"""

from repro.obs.instrument import Instrumentation
from repro.server import QueryServer, ServerConfig
from repro.workloads.generator import UpdateStream, random_linear_mod


def _stream(db):
    # serve_crossing's mix: chdir-heavy, a new / terminate each tenth.
    return UpdateStream(db, seed=7, mean_gap=0.05, weights=(0.1, 0.1, 0.8))


def _observed_sum(obs):
    return obs.snapshot().get("server_update_primitive_ops_sum", 0.0)


def _billed_to_next_update(server, obs, stream):
    """What the next update is billed, and what it cost."""
    ops, billed = server._total_ops(), _observed_sum(obs)
    stream.step()
    return _observed_sum(obs) - billed, server._total_ops() - ops


def test_an_open_is_not_billed_to_the_next_update():
    db = random_linear_mod(200, seed=1)
    obs = Instrumentation()
    server = QueryServer(db, observe=obs)
    server.register_knn([0.0, 0.0], k=3)
    stream = _stream(db)
    stream.run(300)
    before = server._total_ops()
    server.register_knn([13.0, 5.0], k=1)  # a new group: a full first plan
    assert server._total_ops() - before > 100
    billed, cost = _billed_to_next_update(server, obs, stream)
    assert billed == cost


def test_a_wider_tenant_is_not_billed_to_the_next_update():
    db = random_linear_mod(200, seed=1)
    obs = Instrumentation()
    server = QueryServer(db, observe=obs)
    narrow = server.register_knn([0.0, 0.0], k=1)
    stream = _stream(db)
    stream.run(300)
    before = server._total_ops()
    wide = server.register_knn([0.0, 0.0], k=8)  # the same group re-plans
    assert wide.group is narrow.group
    assert server._total_ops() - before > 0
    billed, cost = _billed_to_next_update(server, obs, stream)
    assert billed == cost


def _sheds(churn_every):
    db = random_linear_mod(200, seed=1)
    server = QueryServer(
        db, config=ServerConfig(op_rate_ceiling=0.5, op_rate_window=16)
    )
    for query in ([0.0, 0.0], [30.0, -20.0], [0.0, 0.0]):
        server.register_knn(query, k=3)
    stream = _stream(db)
    churn = None
    for i in range(120):
        stream.step()
        if churn_every and i % churn_every == 0:
            if churn is not None and churn.state == "active":
                churn.close()
            churn = server.register_knn([i - 50.0, 13.0], k=2)
    return server.stats.shed


def test_tenant_churn_does_not_switch_shedding_off():
    quiet = _sheds(churn_every=0)
    assert quiet > 0
    # A tenant at a fresh point opens and closes every 10 updates, more
    # often than the 16-update window fills.
    assert _sheds(churn_every=10) >= quiet

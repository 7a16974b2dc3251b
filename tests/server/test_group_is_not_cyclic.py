"""A closed session's engine group is freed by reference counting.

The server hands each group its heal rule as ``group.heal =
server._heal``, and the group passes itself in (``heal(group, exc)``).
A closure over the group, stored on that group, made every group a
reference cycle: once its last session closed it waited for the cyclic
collector, with its host and every curve it held.  With the collector
off and ``gc.DEBUG_SAVEALL`` on, whatever a cycle keeps alive lands in
``gc.garbage`` instead of being freed, so the test reads it there.
"""

import gc

import pytest

from repro.server import QueryServer
from repro.server.group import EngineGroup
from repro.workloads.generator import random_linear_mod


@pytest.fixture
def saveall():
    """The collector off, and what a collection finds kept, not freed."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("kind", ["within", "knn"])
def test_a_closed_sessions_group_is_not_in_a_cycle(saveall, kind):
    db = random_linear_mod(20, seed=1)
    server = QueryServer(db)
    if kind == "within":
        session = server.register_within([0.0, 0.0], 40.0)
    else:
        session = server.register_knn([0.0, 0.0], 2)
    assert server.group_count == 1
    session.close(at=db.last_update_time + 1.0)
    assert server.group_count == 0
    del session
    gc.collect()
    groups = [o for o in saveall if isinstance(o, EngineGroup)]
    assert groups == []

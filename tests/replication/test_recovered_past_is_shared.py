"""Recovered sessions share their past through the server's cache.

A restored session's unswept span ``[start, tau]`` is a one-shot past
query, read through the same cached body as ``evaluate_*``: with a
``QueryCache`` the first close of a fingerprint sweeps and deposits,
the second finds its span covered and sweeps nothing; without one the
path is the plain pruned sweep.  Either way the answers are byte-equal
to an uninterrupted ``serve()`` mirror's.
"""

import pytest

from repro.cache import QueryCache
from repro.replication import DurableQueryServer, recover_server

from tests._oracle import sweep_ops
from tests.replication.test_recover_at_clock import (
    CKPT1,
    CRASH1,
    LATE,
    _base,
    _dump,
    _mirror_run,
    _register,
    _stream,
)

SEED = 3


def _walk(stages):
    for stage in stages:
        yield stage
        yield from _walk(stage.get("children", []))


def _recovered(kind, updates, directory, cache):
    """Two sessions of one fingerprint (the second opens at LATE),
    a checkpoint, a tail, then a recovery from disk with ``cache``."""
    db = _base(SEED)
    server = DurableQueryServer(
        db,
        directory=directory,
        checkpoint_interval=None,
    )
    sids = [_register(server, kind).session_id]
    for i, update in enumerate(updates):
        if i == LATE:
            sids.append(_register(server, kind).session_id)
        db.apply(update)
        if i == CKPT1:
            server.checkpoint()
    server.journal.close()
    server = recover_server(
        directory,
        checkpoint_interval=None,
        checkpoint_on_recover=False,
        cache=cache,
    )
    return server, [server.session(sid) for sid in sids]


@pytest.mark.parametrize("kind", ["knn", "within", "multiknn"])
@pytest.mark.parametrize("cached", [False, True])
def test_second_close_of_a_fingerprint_reads_the_first_ones_past(
    tmp_path, kind, cached
):
    updates = _stream(SEED)[: CRASH1 + 1]
    mirror, live, _ = _mirror_run(SEED, kind, 1, updates)
    horizon = mirror.db.last_update_time + 1.0
    want = [_dump(s.close(at=horizon)) for s in live[:2]]
    mirror.shutdown()

    cache = QueryCache() if cached else None
    server, sessions = _recovered(kind, updates, str(tmp_path), cache)
    reports = []
    for session in sessions:
        assert session.unswept is not None
        reports.append(server.explain_close(session, at=horizon))
    server.journal.close()
    assert [_dump(r.answer) for r in reports] == want

    def past(report, name):
        return [
            s for s in _walk(report.to_dict()["stages"]) if s["name"] == name
        ]

    first, second = reports
    if not cached:
        assert not past(first, "cache.probe") and not past(second, "cache.probe")
        assert past(second, "prune")
        return
    assert past(first, "cache.probe")[0]["attrs"]["hit"] is False
    assert past(first, "prune")
    assert past(second, "cache.probe")[0]["attrs"]["hit"] is True
    assert not past(second, "prune") and sweep_ops(second) == 0

"""A supervised session deposits its final answer into ``cache=``, as
a plain session does — also one that healed on the way."""

from repro.cache import QueryCache
from repro.core.api import ContinuousQuerySession, evaluate_knn
from repro.core.spec import QuerySpec
from repro.geometry.intervals import Interval
from repro.io import answer_to_dict
from repro.resilience.supervisor import SupervisedQuerySession
from repro.workloads.generator import UpdateStream, random_linear_mod


def _stream(db):
    return UpdateStream(db, seed=8, mean_gap=1.0, extent=40.0, speed=5.0)


def test_plain_and_supervised_sessions_deposit_alike():
    for cls in (ContinuousQuerySession, SupervisedQuerySession):
        db = random_linear_mod(8, seed=7, extent=40.0, speed=5.0)
        cache = QueryCache()
        session = cls.knn(db, [0.0, 0.0], k=2, cache=cache)
        _stream(db).run(6)
        session.close(at=db.last_update_time + 1.0)
        assert cache.stats()["answer_entries"] == 1, cls.__name__


def test_a_healed_session_deposits_the_cold_answer():
    db = random_linear_mod(8, seed=7, extent=40.0, speed=5.0)
    cache = QueryCache()
    session = SupervisedQuerySession.knn(db, [0.0, 0.0], k=2, cache=cache)
    stream = _stream(db)
    stream.run(5)
    # A probe/update race: the next update lands behind the probe.
    session.advance_to(db.last_update_time + 50.0)
    stream.run(5)
    assert session.stats.rebuilds == 1
    end = db.last_update_time + 2.0
    answer = session.close(at=end)
    window = Interval(0.0, end)
    spec = QuerySpec.knn([0.0, 0.0], 2)
    cached = cache.lookup(spec.kind, spec.gdistance, window, **spec.params)
    cold = evaluate_knn(db, [0.0, 0.0], window, k=2)
    assert cache.stats()["answer_entries"] == 1
    assert answer_to_dict(cached) == answer_to_dict(cold)
    assert answer_to_dict(answer) == answer_to_dict(cold)

"""Differential fuzz of the range host against the full order and naive.

A within reading is served by :class:`~repro.sweep.within.RangeSweep`
on every path: a live session (one host), a supervised session (the
same host behind the engine pool), and the one-shot
``evaluate_within``.  Over
``random_linear_mod``, ``crossing_rich_mod`` and
``banded_mod(band_gap=1.0)`` (whose ``o30`` sits on radius 40, the
threshold) with a chdir-heavy update stream, every path must give

- the full order's members at every probe and its final answer **bit
  for bit** (a ``SweepEngine`` carrying the threshold's sentinel, read
  by ``ContinuousWithin``: the crossings are the same kernel calls on
  the same curves), and
- the naive baseline's members at every probe and its final answer
  within ``ANSWER_ATOL``.

No seed below meets an exact tie at the threshold, so nothing is
excepted from either comparison; the ties and where the naive baseline
or the full order's insertion-order tie-break decide differently are
``test_range_sweep.py``'s cases.
"""

import pytest

from repro.baselines.naive import naive_within_answer
from repro.core.api import ContinuousQuerySession, evaluate_within
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval
from repro.io import answer_to_dict
from repro.resilience.supervisor import SupervisedQuerySession
from repro.sweep.engine import SweepEngine
from repro.sweep.within import ContinuousWithin
from repro.workloads.generator import (
    UpdateStream,
    banded_mod,
    crossing_rich_mod,
    random_linear_mod,
)
from tests._oracle import ANSWER_ATOL, PROBE_FRACTION

ORIGIN = SquaredEuclideanDistance([0.0, 0.0])
GAP = 0.05
UPDATES = 60
SEEDS = range(1, 11)

FAMILIES = {
    "random": (lambda seed: random_linear_mod(60, seed=seed), 40.0),
    "crossing": (lambda seed: crossing_rich_mod(30, seed=seed), 30.0),
    "banded": (lambda seed: banded_mod(45, seed=seed, band_gap=1.0), 40.0),
}


def _full(db, window, threshold):
    engine = SweepEngine(db, ORIGIN, window, constants=[threshold])
    return engine, ContinuousWithin(engine, threshold)


def _memberships(answer):
    """Every membership interval's endpoints, as exact floats."""
    return answer_to_dict(answer)["memberships"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_live_and_one_shot_equal_the_full_order_and_naive(family, seed):
    build, radius = FAMILIES[family]
    threshold = radius * radius
    db = build(seed)
    start = db.last_update_time
    engine, view = _full(db, Interval.at_least(start), threshold)
    db.subscribe(engine.on_update)
    sessions = {
        "S=1": ContinuousQuerySession.within(db, ORIGIN, threshold),
        "pool": SupervisedQuerySession.within(db, ORIGIN, threshold),
    }
    stream = UpdateStream(
        db, seed=seed + 100, mean_gap=GAP, periodic=True, weights=(0.1, 0.1, 0.8)
    )
    for _ in range(UPDATES):
        stream.step()
        probe = db.last_update_time + PROBE_FRACTION * GAP
        engine.advance_to(probe)
        naive = naive_within_answer(db, ORIGIN, Interval(probe, probe), threshold)
        assert view.members == naive.at(probe)
        for label, session in sessions.items():
            assert session.advance_to(probe) == view.members, (label, probe)
    end = db.last_update_time + 1.0
    engine.advance_to(end)
    engine.finalize()
    window = Interval(start, end)
    naive = naive_within_answer(db, ORIGIN, window, threshold)
    assert view.answer().approx_equals(naive, atol=ANSWER_ATOL)
    live = _memberships(view.answer())
    for label, session in sessions.items():
        assert _memberships(session.close(at=end)) == live, label

    # The same window after the fact: the one-shot over the recorded MOD.
    past, past_view = _full(db, window, threshold)
    past.run_to_end()
    assert _memberships(past_view.answer()) == live
    got = evaluate_within(db, ORIGIN, window, threshold)
    assert answer_to_dict(got) == answer_to_dict(past_view.answer())

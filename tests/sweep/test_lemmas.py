"""Direct tests of the structural lemmas of Section 5.

- **Lemma 7**: right before two curves intersect, they are immediate
  neighbors in the precedence relation — verified by instrumenting
  every processed intersection event on random workloads.
- **Lemma 8**: the precedence relation determines the support (and the
  answer) — verified by evaluating a query at many instant pairs and
  checking that equal orders imply equal answers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.intervals import Interval
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.workloads.generator import random_linear_mod


def origin_distance():
    return SquaredEuclideanDistance([0.0, 0.0])


class _AdjacencyAuditor:
    """Listener verifying Lemma 7's adjacency property at every swap:
    just before the engine processes an intersection, the two curves
    must be immediate neighbors (the engine asserts this structurally;
    here we check it *numerically*, comparing values just before the
    event time)."""

    def __init__(self, engine):
        self._engine = engine
        self.checked = 0

    def on_swap(self, time, lower, upper):
        probe = time - 1e-7
        if not (lower.defined_at(probe) and upper.defined_at(probe)):
            return
        # Just before the crossing the now-lower curve was above:
        before_lower = lower.value(probe)
        before_upper = upper.value(probe)
        assert before_lower >= before_upper - 1e-6
        # And no third curve's value lies strictly between them.
        lo, hi = sorted((before_lower, before_upper))
        for entry in self._engine.order:
            if entry is lower or entry is upper:
                continue
            if not entry.defined_at(probe):
                continue
            value = entry.value(probe)
            assert not (lo + 1e-9 < value < hi - 1e-9), (
                f"{entry.label} at {value} between the crossing pair "
                f"({lo}, {hi}) just before t={time}"
            )
        self.checked += 1


class TestLemma7:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_crossing_pairs_are_neighbors(self, seed):
        db = random_linear_mod(12, seed=seed, extent=40.0, speed=7.0)
        engine = SweepEngine(db, origin_distance(), Interval(0.0, 25.0))
        auditor = _AdjacencyAuditor(engine)
        engine.add_listener(auditor)
        engine.run_to_end()
        assert auditor.checked > 0
        # The engine swallows listener exceptions mid-loop; a silent
        # AssertionError from the auditor would void this test.
        assert engine.stats.listener_errors == 0, engine.listener_errors


class TestLemma8:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20)
    def test_equal_orders_imply_equal_answers(self, seed):
        db = random_linear_mod(8, seed=seed, extent=30.0, speed=6.0)
        gd = origin_distance()
        interval = Interval(0.0, 20.0)
        engine = SweepEngine(db, gd, interval)
        view = ContinuousKNN(engine, 2)
        samples = []
        for t in interval.sample_points(41):
            engine.advance_to(t)
            samples.append(
                (tuple(engine.objects_in_order()), frozenset(view.members))
            )
        by_order = {}
        for order, answer in samples:
            if order in by_order:
                assert by_order[order] == answer, (
                    "same precedence relation, different answers"
                )
            else:
                by_order[order] = answer

    def test_order_change_required_for_answer_change(self):
        """Contrapositive on a concrete run: every answer change in the
        k-NN view coincides with a support change."""
        db = random_linear_mod(10, seed=5, extent=40.0, speed=7.0)
        engine = SweepEngine(db, origin_distance(), Interval(0.0, 20.0))
        view = ContinuousKNN(engine, 3)
        previous_answer = frozenset(view.members)
        previous_changes = engine.stats.support_changes
        for t in Interval(0.0, 20.0).sample_points(81):
            engine.advance_to(t)
            answer = frozenset(view.members)
            changes = engine.stats.support_changes
            if answer != previous_answer:
                assert changes > previous_changes
            previous_answer, previous_changes = answer, changes

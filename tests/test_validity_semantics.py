"""Property tests of Definition 4's validity semantics.

An answer object is *valid* iff it stays in the answer under **every**
finite update sequence.  The classifier under-approximates validity by
the committed part of the interval; these properties check the defining
clause directly: for random queries and random adversarial update
sequences, classified-valid objects never leave the accumulative
answer, while predicted-only objects can be made to leave.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_query_answer
from repro.constraints.classify import classify_interval_query
from repro.geometry.intervals import Interval
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.mod.database import MovingObjectDatabase
from repro.query.query import knn_query, within_query


def random_db(seed, objects=5, tau=10.0):
    rng = random.Random(seed)
    db = MovingObjectDatabase()
    for i in range(objects):
        db.create(
            f"o{i}",
            0.01 * (i + 1),
            position=[rng.uniform(-30, 30), rng.uniform(-30, 30)],
            velocity=[rng.uniform(-3, 3), rng.uniform(-3, 3)],
        )
    db.advance_clock(tau)
    return db, rng


def adversarial_updates(db, rng, count=6):
    """A random chronological update sequence after tau."""
    for _ in range(count):
        time = db.last_update_time + rng.uniform(0.1, 3.0)
        live = db.object_ids
        roll = rng.random()
        if roll < 0.3 or not live:
            db.create(
                f"adv{time:.4f}",
                time,
                position=[rng.uniform(-5, 5), rng.uniform(-5, 5)],
                velocity=[rng.uniform(-3, 3), rng.uniform(-3, 3)],
            )
        elif roll < 0.5 and len(live) > 1:
            db.terminate(rng.choice(live), time)
        else:
            db.change_direction(
                rng.choice(live),
                time,
                [rng.uniform(-3, 3), rng.uniform(-3, 3)],
            )


def gd():
    return SquaredEuclideanDistance([0.0, 0.0])


class TestValidAnswersAreImmutable:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20)
    def test_knn_valid_survives_any_updates(self, seed):
        db, rng = random_db(seed)
        query = knn_query(Interval(1.0, 30.0), 1)
        before = classify_interval_query(db, gd(), query)
        adversarial_updates(db, rng)
        after_answer = naive_query_answer(db, gd(), query).accumulative()
        assert before.valid <= after_answer, (
            f"valid answers {set(before.valid)} lost members after "
            f"updates: {after_answer}"
        )

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15)
    def test_within_valid_survives_any_updates(self, seed):
        db, rng = random_db(seed)
        query = within_query(Interval(1.0, 30.0), 400.0)
        before = classify_interval_query(db, gd(), query)
        adversarial_updates(db, rng)
        after_answer = naive_query_answer(db, gd(), query).accumulative()
        assert before.valid <= after_answer


class TestPredictionsAreRevocable:
    def test_predicted_only_1nn_can_be_dethroned(self):
        """A concrete witness of Definition 4's other direction: a
        predicted-only 1-NN member is removed by a suitable update."""
        db = MovingObjectDatabase()
        db.create("incumbent", 0.5, position=[5.0, 0.0], velocity=[0.0, 0.0])
        db.create("challenger", 1.0, position=[40.0, 0.0], velocity=[-2.0, 0.0])
        db.advance_clock(10.0)
        # Challenger predicted to become nearest around t=18.6.
        query = knn_query(Interval(12.0, 40.0), 1)
        before = classify_interval_query(db, gd(), query)
        assert "challenger" in before.predicted_only
        # Adversary: the challenger turns around before overtaking.
        db.change_direction("challenger", 11.0, [2.0, 0.0])
        after = naive_query_answer(db, gd(), query).accumulative()
        assert "challenger" not in after

    def test_new_object_can_dethrone_any_future_prediction(self):
        """For 1-NN, any purely-future membership is revocable: create a
        closer object."""
        db = MovingObjectDatabase()
        db.create("alone", 0.5, position=[5.0, 0.0], velocity=[0.0, 0.0])
        db.advance_clock(10.0)
        query = knn_query(Interval(20.0, 30.0), 1)
        before = classify_interval_query(db, gd(), query)
        assert before.predicted == frozenset({"alone"})
        assert before.valid == frozenset()
        db.create("usurper", 11.0, position=[0.1, 0.0], velocity=[0.0, 0.0])
        after = naive_query_answer(db, gd(), query).accumulative()
        assert "alone" not in after


class TestClassificationStability:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15)
    def test_past_queries_are_fixed_points(self, seed):
        """A query classified PAST keeps its exact answer under any
        update sequence (the definition of past: Q(D) = Q^v(D))."""
        db, rng = random_db(seed)
        query = knn_query(Interval(1.0, db.last_update_time), 1)
        before = classify_interval_query(db, gd(), query)
        assert before.query_class.value == "past"
        answer_before = naive_query_answer(db, gd(), query).accumulative()
        adversarial_updates(db, rng)
        answer_after = naive_query_answer(db, gd(), query).accumulative()
        assert answer_before == answer_after

"""Edge-case tests locking in sweep tie-breaking behavior.

Three families of adversarial timing, pinned against the single
engine and the naive baseline (and a live pool for the first):

- a ``chdir`` arriving at *exactly* an intersection-event time (the
  update and the order change share one timestamp);
- duplicate curves (exact, persistent ties in the precedence order);
- zero-length (point-interval) trajectory pieces.

The ``sharded`` cases split one evaluation across S engines — the
window cut into S time slices, each swept alone, the slice answers
stitched (:func:`tests._oracle.sliced_sweeps`) — and must reproduce
the single engine.
"""

import math

from repro.baselines.naive import naive_knn_answer
from repro.core.api import evaluate_knn
from repro.geometry.intervals import Interval
from repro.geometry.vectors import Vector
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New
from repro.resilience.supervisor import SupervisedQuerySession
from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.trajectory.linearpiece import LinearPiece
from repro.trajectory.trajectory import Trajectory

from tests._oracle import sliced_sweeps

ORIGIN = SquaredEuclideanDistance([0.0, 0.0])


def _single_knn(db, k, lo, hi):
    engine = SweepEngine(db, ORIGIN, Interval(lo, hi))
    view = ContinuousKNN(engine, k)
    db.subscribe(engine.on_update)
    return engine, view


class TestChdirAtIntersectionTime:
    """o1 moves as x = t and o2 as x = 10 - t: their squared distances
    t^2 and (10 - t)^2 intersect at exactly t = 5 — and a chdir lands
    on precisely that timestamp."""

    def _db(self):
        db = MovingObjectDatabase(initial_time=0.0)
        # x(t) = position + velocity * (t - creation_time)
        db.apply(
            New("o1", 0.4, velocity=Vector.of(1.0, 0.0), position=Vector.of(0.4, 0.0))
        )
        db.apply(
            New("o2", 0.5, velocity=Vector.of(-1.0, 0.0), position=Vector.of(9.5, 0.0))
        )
        db.apply(
            New("o3", 0.6, velocity=Vector.of(0.0, 0.0), position=Vector.of(30.0, 0.0))
        )
        return db

    def test_chdir_exactly_at_crossing(self):
        db = self._db()
        start = db.last_update_time
        engine, view = _single_knn(db, 1, start, 12.0)
        # The crossing |t| = |10 - t| happens at exactly t = 5.0; the
        # update carries the same timestamp.
        db.apply(ChangeDirection("o2", 5.0, Vector.of(2.0, 0.0)))
        engine.advance_to(12.0)
        engine.finalize()
        truth = naive_knn_answer(db, ORIGIN, Interval(start, 12.0), 1)
        assert view.answer().approx_equals(truth, atol=1e-6)

    def test_chdir_at_crossing_matches_the_pool(self):
        db = self._db()
        start = db.last_update_time
        single_db = self._db()
        engine, view = _single_knn(single_db, 1, start, 12.0)
        session = SupervisedQuerySession.knn(db, ORIGIN, k=1, until=12.0)
        update = ChangeDirection("o2", 5.0, Vector.of(2.0, 0.0))
        db.apply(update)
        single_db.apply(update)
        engine.advance_to(12.0)
        engine.finalize()
        assert session.close(at=12.0).approx_equals(view.answer(), atol=1e-6)

    def test_chdir_at_crossing_matches_sharded(self):
        single_db = self._db()
        start = single_db.last_update_time
        engine, view = _single_knn(single_db, 1, start, 12.0)
        update = ChangeDirection("o2", 5.0, Vector.of(2.0, 0.0))
        single_db.apply(update)
        engine.advance_to(12.0)
        engine.finalize()
        for shards in (1, 2, 7):
            db = self._db()
            db.apply(update)
            with sliced_sweeps(shards):
                got = evaluate_knn(db, ORIGIN, Interval(start, 12.0), k=1)
            assert got.approx_equals(view.answer(), atol=1e-6), f"shards={shards}"

    def test_chdir_at_crossing_then_more_events(self):
        """The post-update order must seed correct *new* intersection
        events: o2 reverses at the crossing and leaves again."""
        db = self._db()
        start = db.last_update_time
        engine, view = _single_knn(db, 2, start, 20.0)
        db.apply(ChangeDirection("o2", 5.0, Vector.of(3.0, 0.0)))
        db.apply(ChangeDirection("o1", 8.0, Vector.of(-1.0, 0.0)))
        engine.advance_to(20.0)
        engine.finalize()
        truth = naive_knn_answer(db, ORIGIN, Interval(start, 20.0), 2)
        assert view.answer().approx_equals(truth, atol=1e-5)


class TestDuplicateCurves:
    """Two identical trajectories: their g-distance curves are equal at
    every instant, a persistent precedence-order tie."""

    def _db(self):
        db = MovingObjectDatabase(initial_time=0.0)
        # twin-a and twin-b share position and velocity exactly: both
        # drift right from x=5.  The walker sweeps in from the left,
        # passes the origin at t ~ 10.3, and beats the twins while near
        # it.
        db.apply(
            New("twin-a", 0.1, velocity=Vector.of(0.5, 0.0), position=Vector.of(5.0, 0.0))
        )
        db.apply(
            New("twin-b", 0.2, velocity=Vector.of(0.5, 0.0), position=Vector.of(5.0, 0.0))
        )
        db.apply(
            New("walker", 0.3, velocity=Vector.of(2.0, 0.0), position=Vector.of(-20.0, 0.0))
        )
        return db

    def test_tied_answers_match_naive(self):
        """Current behavior, locked in: on exact persistent ties the
        engine and the naive baseline agree for k=1 and k=2."""
        db = self._db()
        for k in (1, 2):
            engine = SweepEngine(db, ORIGIN, Interval(0.3, 30.0))
            view = ContinuousKNN(engine, k)
            engine.run_to_end()
            truth = naive_knn_answer(db, ORIGIN, Interval(0.3, 30.0), k)
            assert view.answer().approx_equals(truth, atol=0.0), f"k={k}"

    def test_deterministic_across_runs(self):
        answers = []
        for _ in range(2):
            db = self._db()
            engine, view = _single_knn(db, 1, 0.3, 30.0)
            engine.advance_to(30.0)
            engine.finalize()
            answers.append(view.answer())
        assert answers[0].approx_equals(answers[1], atol=0.0)

    def test_exactly_one_twin_occupies_the_slot(self):
        """k=1 with tied twins: the answer is a singleton at every
        probed instant — ties never double-count."""
        db = self._db()
        engine, view = _single_knn(db, 1, 0.3, 30.0)
        engine.advance_to(30.0)
        engine.finalize()
        answer = view.answer()
        twins = {"twin-a", "twin-b"}
        for t in (1.37, 5.81, 20.3, 29.1):
            members = answer.at(t)
            assert len(members) == 1, f"k=1 answer not a singleton at {t}"
            assert members & twins, f"a twin should hold the slot at {t}"
        # Near the origin pass the walker wins outright.
        assert answer.at(10.31) == {"walker"}

    def test_k2_keeps_one_twin_through_walker_pass(self):
        """k=2: while the walker occupies a slot, exactly one twin
        stays; outside that window both twins are the answer."""
        db = self._db()
        engine, view = _single_knn(db, 2, 0.3, 30.0)
        engine.advance_to(30.0)
        engine.finalize()
        answer = view.answer()
        assert answer.at(1.0) == {"twin-a", "twin-b"}
        assert answer.at(29.0) == {"twin-a", "twin-b"}
        during = answer.at(10.31)
        assert "walker" in during and len(during) == 2
        assert len(during & {"twin-a", "twin-b"}) == 1

    def test_sharded_matches_single_on_tied_workload(self):
        """Sharded evaluation reproduces the single-engine answers on
        the tied workload for both k values."""
        db = self._db()
        for k in (1, 2):
            single = evaluate_knn(db, ORIGIN, Interval(0.3, 30.0), k=k)
            for shards in (2, 7):
                with sliced_sweeps(shards):
                    sharded = evaluate_knn(db, ORIGIN, Interval(0.3, 30.0), k=k)
                assert sharded.approx_equals(
                    single, atol=1e-6
                ), f"k={k} S={shards}"


class TestZeroLengthPieces:
    """Trajectories containing explicit point-interval pieces."""

    def _trajectory_with_point_piece(self):
        # Moves right on [0, 4], has a zero-length piece at t=4, then
        # continues with a different velocity on [4, 20].
        p1 = LinearPiece.anchored(
            Vector.of(1.0, 0.0), Vector.of(-6.0, 0.0), 0.0, Interval(0.0, 4.0)
        )
        point = LinearPiece.anchored(
            Vector.of(0.0, 0.0), Vector.of(-2.0, 0.0), 4.0, Interval(4.0, 4.0)
        )
        p2 = LinearPiece.anchored(
            Vector.of(-0.5, 0.0), Vector.of(-2.0, 0.0), 4.0, Interval(4.0, 20.0)
        )
        return Trajectory([p1, point, p2])

    def _cruiser(self):
        return Trajectory(
            [
                LinearPiece.anchored(
                    Vector.of(0.3, 0.0),
                    Vector.of(-9.0, 0.0),
                    0.0,
                    Interval(0.0, math.inf),
                )
            ]
        )

    def test_trajectory_accepts_point_piece(self):
        traj = self._trajectory_with_point_piece()
        assert traj.domain.approx_equals(Interval(0.0, 20.0))
        assert len(traj.pieces) == 3
        assert traj.pieces[1].interval.is_point

    def test_sweep_handles_point_piece(self):
        db = MovingObjectDatabase(initial_time=5.0)
        db.install("spiky", self._trajectory_with_point_piece())
        db.install("cruiser", self._cruiser())
        answer = evaluate_knn(db, ORIGIN, Interval(0.5, 18.0), k=1)
        truth = naive_knn_answer(db, ORIGIN, Interval(0.5, 18.0), 1)
        assert answer.approx_equals(truth, atol=1e-5)

    def test_sharded_handles_point_piece(self):
        db = MovingObjectDatabase(initial_time=5.0)
        db.install("spiky", self._trajectory_with_point_piece())
        db.install("cruiser", self._cruiser())
        single = evaluate_knn(db, ORIGIN, Interval(0.5, 18.0), k=1)
        for shards in (2, 7):
            with sliced_sweeps(shards):
                sharded = evaluate_knn(db, ORIGIN, Interval(0.5, 18.0), k=1)
            assert sharded.approx_equals(single, atol=1e-6), f"S={shards}"

"""Property-based tests for the analysis layer.

The closed-form analyses (closest approach, violation intervals) are
cross-checked against dense sampling on randomized trajectories.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.conflicts import closest_approach, separation_conflicts
from repro.analysis.regions import residence_set
from repro.constraints.regions import box
from repro.geometry.intervals import Interval
from repro.mod.database import MovingObjectDatabase
from repro.trajectory.builder import from_waypoints

WINDOW = Interval(0.0, 20.0)


def random_trajectory(rng, legs=3):
    waypoints = [(0.0, [rng.uniform(-30, 30), rng.uniform(-30, 30)])]
    t = 0.0
    for _ in range(legs):
        t += rng.uniform(3.0, 10.0)
        waypoints.append((t, [rng.uniform(-30, 30), rng.uniform(-30, 30)]))
    if t < WINDOW.hi:
        waypoints.append((WINDOW.hi + 1.0, [rng.uniform(-30, 30), rng.uniform(-30, 30)]))
    return from_waypoints(waypoints, extend=False)


class TestClosestApproachProperty:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_no_sample_beats_the_closed_form(self, seed):
        rng = random.Random(seed)
        a = random_trajectory(rng)
        b = random_trajectory(rng)
        result = closest_approach(a, b, WINDOW)
        assert WINDOW.contains(result.time, atol=1e-9)
        # Dense sampling never finds a smaller separation.
        for t in WINDOW.sample_points(301):
            sampled = a.position(t).distance_to(b.position(t))
            assert sampled >= result.distance - 1e-6

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20)
    def test_reported_minimum_is_attained(self, seed):
        rng = random.Random(seed)
        a = random_trajectory(rng)
        b = random_trajectory(rng)
        result = closest_approach(a, b, WINDOW)
        attained = a.position(result.time).distance_to(b.position(result.time))
        assert attained == pytest.approx(result.distance, abs=1e-9)


class TestViolationIntervalsProperty:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=2.0, max_value=25.0),
    )
    @settings(max_examples=25)
    def test_sampling_agrees_with_intervals(self, seed, separation):
        rng = random.Random(seed)
        # Histories are fully known: the clock sits past every turn.
        db = MovingObjectDatabase(initial_time=WINDOW.hi + 1.0)
        db.install("a", random_trajectory(rng))
        db.install("b", random_trajectory(rng))
        conflicts = separation_conflicts(db, separation, WINDOW)
        violations = conflicts[0].intervals if conflicts else None
        traj_a, traj_b = db.trajectory("a"), db.trajectory("b")
        for t in WINDOW.sample_points(201):
            inside = traj_a.position(t).distance_to(traj_b.position(t)) <= separation
            reported = violations.contains(t, atol=1e-7) if violations else False
            if inside:
                # Strictly-inside instants must be reported (boundary
                # instants may fall either way numerically).
                gap = separation - traj_a.position(t).distance_to(traj_b.position(t))
                if gap > 1e-6:
                    assert reported
            elif reported:
                # Reported instants must not be clearly outside.
                overshoot = (
                    traj_a.position(t).distance_to(traj_b.position(t)) - separation
                )
                assert overshoot <= 1e-6


class TestResidenceProperty:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25)
    def test_membership_matches_geometry(self, seed):
        rng = random.Random(seed)
        traj = random_trajectory(rng)
        region = box([-15.0, -15.0], [15.0, 15.0])
        residences = residence_set(traj, region, WINDOW)
        for t in WINDOW.sample_points(201):
            inside = region.contains(traj.position(t))
            reported = residences.contains(t, atol=1e-7)
            if inside and all(
                abs(c) < 15.0 - 1e-6 for c in traj.position(t)
            ):
                assert reported
            if not inside and not region.contains(traj.position(t), atol=1e-5):
                assert not reported or residences.contains(t, atol=1e-5)

"""The range host's tie rule and edges.

:class:`~repro.sweep.within.RangeSweep` keeps one record per curve and
no order.  Its tie rule: in-or-out at a birth, ``new``, jump or ``chdir``
is the order's own key (the forward Taylor expansion) compared with the
constant's, closed — the paper's ``<=`` — so an object parked exactly
at ``c`` is in; a crossing is the flip kernel against the constant
curve with the arguments the full order gives the pair.

Each case below drives the host, the full order (a ``SweepEngine``
carrying the threshold's sentinel, read by ``ContinuousWithin``) and
the naive baseline through the same MOD, updates and probes: the host
must equal the full order bit for bit and the naive baseline at every
probe and at the final answer within ``ANSWER_ATOL``.  Where the naive
baseline drops a membership (it probes segment interiors, so never
reports a zero-length one, and its sign test reads a dip of 1e-13 as a
tie) or where the full order's tie-break by insertion order decides
differently, the case says so and checks exactly that difference.

The last test pins a defect of the planner this host replaced: a
``terminate`` just past a live plan's window left the object a member.
"""

import pytest

from repro.baselines.naive import naive_within_answer
from repro.core.api import ContinuousQuerySession
from repro.gdist.base import CallableGDistance
from repro.gdist.derived import ApproachRate
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.geometry.intervals import Interval, IntervalSet
from repro.geometry.vectors import Vector
from repro.io import answer_to_dict
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New, Terminate
from repro.query.answers import SnapshotAnswer
from repro.sweep.engine import SweepEngine
from repro.sweep.within import ContinuousWithin, RangeSweep
from repro.trajectory.builder import from_waypoints, linear_from, stationary
from repro.workloads.generator import banded_mod, random_linear_mod
from tests._oracle import ANSWER_ATOL

ORIGIN = SquaredEuclideanDistance([0.0, 0.0])


def _crowd(db, count=6):
    """Slow objects far outside every threshold below."""
    for j in range(count):
        db.install(f"far{j}", linear_from(0.0, [300.0 + 10.0 * j, 5.0], [0.1, 0.0]))


def _drive(build, gd, c, window, steps):
    """Host, full order and naive through ``build()``'s MOD and
    ``steps`` (updates and probe instants, in time order): each as
    ``(final answer, [members at each probe])``."""

    def sweep(make_view):
        db = build()
        engine, view = make_view(db)
        db.subscribe(engine.on_update)
        probes = []
        for step in steps:
            if isinstance(step, float):
                engine.advance_to(step)
                probes.append(set(view.members))
            else:
                db.apply(step)
        engine.advance_to(window.hi)
        engine.finalize()
        return view.answer(), probes

    def host(db):
        host = RangeSweep(db, gd, window, c)
        return host, host

    def full(db):
        engine = SweepEngine(db, gd, window, constants=[c])
        return engine, ContinuousWithin(engine, c)

    db = build()
    naive_probes = []
    for step in steps:
        if isinstance(step, float):
            naive_probes.append(naive_within_answer(db, gd, Interval(step, step), c).at(step))
        else:
            db.apply(step)
    naive = (naive_within_answer(db, gd, window, c), naive_probes)
    return sweep(host), sweep(full), naive


def _without_instants(answer):
    """``answer`` less its zero-length memberships."""
    kept = {}
    for oid in answer.objects:
        spans = [iv for iv in answer.intervals_for(oid).intervals if iv.length > 0]
        if spans:
            kept[oid] = IntervalSet(spans)
    return SnapshotAnswer(kept, answer.interval)


def _dropping(oid):
    """``answer`` less ``oid``'s memberships."""
    return lambda answer: SnapshotAnswer(
        {o: answer.intervals_for(o) for o in answer.objects if o != oid},
        answer.interval,
    )


def _hold(build, gd, c, window, steps, naive_drops=None):
    """The host ≡ the full order bit for bit and ≡ naive within
    ``ANSWER_ATOL``; ``naive_drops`` edits the host's answer into what
    the naive baseline reports.  Returns the host's final answer."""
    (final, probes), (full, full_probes), (naive, naive_probes) = _drive(
        build, gd, c, window, steps
    )
    assert answer_to_dict(final) == answer_to_dict(full)
    assert probes == full_probes == naive_probes
    expected = final if naive_drops is None else naive_drops(final)
    assert expected.approx_equals(naive, atol=ANSWER_ATOL)
    return final


def _mod(*objects, tau=0.0):
    """A MOD of ``objects`` and the crowd, its clock at ``tau`` (past
    mode: every turn at or before it)."""

    def build():
        db = MovingObjectDatabase(initial_time=tau)
        for oid, trajectory in objects:
            db.install(oid, trajectory)
        _crowd(db)
        return db

    return build


# -- twins ---------------------------------------------------------------------
def test_a_twin_pair_crosses_together():
    twin = linear_from(0.0, [-8.0, 1.0], [2.0, 0.0])  # in on [4 -+ sqrt(15)/2]
    build = _mod(("t1", twin), ("t0", twin), ("near", stationary([1.0, 1.0])))
    final = _hold(build, ORIGIN, 16.0, Interval(0.0, 8.0), [1.0, 3.0, 5.5, 7.0])
    spans = final.intervals_for("t0").intervals
    assert spans == final.intervals_for("t1").intervals and len(spans) == 1
    assert spans[0].approx_equals(Interval(4.0 - 15**0.5 / 2, 4.0 + 15**0.5 / 2))


# -- an update exactly on a crossing ----------------------------------------------
def _entry_of(trajectory, c=16.0):
    """The float at which ``trajectory`` first enters ``<= c``."""
    db = MovingObjectDatabase(initial_time=0.0)
    db.install("a", trajectory)
    host = RangeSweep(db, ORIGIN, Interval(0.0, 20.0), c)
    host.advance_to(20.0)
    host.finalize()
    return host.answer().intervals_for("a").intervals[0].lo


DIVER = linear_from(0.0, [8.0, 0.0], [-1.0, 0.0])  # reaches radius 4 at 4


@pytest.mark.parametrize(
    "velocity, kept",
    [
        ((1.0, 0.0), False),  # straight back out: in for the instant only
        ((0.0, 1.0), False),  # tangent to the circle: out right after
        ((-0.5, 0.0), True),  # on inward, slower
    ],
)
def test_a_chdir_exactly_on_an_entry(velocity, kept):
    x = _entry_of(DIVER)
    build = _mod(("a", DIVER))
    steps = [2.0, ChangeDirection("a", x, Vector.of(*velocity)), x + 0.25, 9.0]
    final = _hold(
        build, ORIGIN, 16.0, Interval(0.0, 10.0), steps,
        naive_drops=None if kept else _without_instants,
    )
    spans = final.intervals_for("a").intervals
    # The crossing is taken before the update (Section 5's order), and
    # the update then decides by key at x: a zero-length [x, x] when the
    # new course leads out, which the naive baseline does not report.
    assert spans[0].lo == x
    assert spans[0].hi == (10.0 if kept else x)


def test_a_terminate_exactly_on_an_entry():
    x = _entry_of(DIVER)
    final = _hold(
        _mod(("a", DIVER)), ORIGIN, 16.0, Interval(0.0, 10.0),
        [2.0, Terminate("a", x), 9.0], naive_drops=_without_instants,
    )
    assert final.intervals_for("a").intervals == (Interval(x, x),)


def test_a_chdir_exactly_on_an_exit_back_inward():
    leaver = linear_from(0.0, [1.0, 0.0], [1.0, 0.0])  # leaves radius 4 at 3
    db = MovingObjectDatabase(initial_time=0.0)
    db.install("b", leaver)
    host = RangeSweep(db, ORIGIN, Interval(0.0, 10.0), 16.0)
    host.advance_to(10.0)
    host.finalize()
    y = host.answer().intervals_for("b").intervals[0].hi
    steps = [2.0, ChangeDirection("b", y, Vector.of(-1.0, 0.0)), 5.0]
    final = _hold(_mod(("b", leaver)), ORIGIN, 16.0, Interval(0.0, 10.0), steps)
    # Out at y by the crossing, in again at y by key: one membership.
    assert final.intervals_for("b").intervals == (Interval(0.0, 10.0),)


# -- tangent touches -------------------------------------------------------------
GRAZER = linear_from(0.0, [-8.0, 4.0], [2.0, 0.0])  # squared distance >= 16, = 16 at 4


def test_a_tangent_touch_from_above():
    final = _hold(
        _mod(("g", GRAZER)), ORIGIN, 16.0, Interval(0.0, 8.0), [1.0, 3.9, 4.1, 7.0]
    )
    # The curve has one sign on both sides of the touch, so the kernel
    # finds no flip: the touching instant is no membership here, in the
    # full order or in the naive baseline.
    assert "g" not in final.objects


def test_a_tangent_touch_from_below():
    # Minus the squared distance, read against -16: in while outside the
    # circle, so the grazer is in throughout and touches the bar at 4.
    closeness = CallableGDistance(lambda traj: -ORIGIN(traj), name="-d^2")
    final = _hold(
        _mod(("g", GRAZER)), closeness, -16.0, Interval(0.0, 8.0),
        [1.0, 3.9, 4.1, 7.0],
    )
    assert final.intervals_for("g").intervals == (Interval(0.0, 8.0),)


# -- parked at c ------------------------------------------------------------------
def test_parked_exactly_at_c_is_in():
    final = _hold(
        _mod(("rim", stationary([3.0, 4.0]))), ORIGIN, 25.0, Interval(0.0, 6.0),
        [1.0, 5.0],
    )
    assert final.intervals_for("rim").intervals == (Interval(0.0, 6.0),)


def test_born_exactly_at_c_is_in_where_the_full_order_says_out():
    """A ``new`` parked on the threshold: the closed comparison (and the
    naive baseline) say in; the full order says out, because it breaks
    the key tie by insertion order and its sentinel was inserted before
    the newcomer."""
    window = Interval(0.0, 6.0)
    steps = [1.0, New("late", 2.0, velocity=Vector.of(0.0, 0.0), position=Vector.of(3.0, 4.0)), 5.0]
    (final, probes), (full, full_probes), (naive, naive_probes) = _drive(
        _mod(), ORIGIN, 25.0, window, steps
    )
    assert final.intervals_for("late").intervals == (Interval(2.0, 6.0),)
    assert final.approx_equals(naive, atol=ANSWER_ATOL) and probes == naive_probes
    assert "late" not in full.objects and full_probes[1] == probes[1] - {"late"}


def test_drifting_tangentially_on_c():
    """``banded_mod(band_gap=1.0)`` parks ``o30`` on radius 40 drifting
    tangentially; at seed 13 it starts 2.3e-13 inside and the crossing
    out comes 1.08e-5 later, where the full order takes it too.  The
    naive baseline's sign test reads that dip as a tie and reports no
    membership at all."""
    window = Interval(0.0, 1.0)
    final = _hold(
        lambda: banded_mod(31, seed=13, band_gap=1.0), ORIGIN, 1600.0, window,
        [0.5],
        naive_drops=_dropping("o30"),
    )
    (span,) = final.intervals_for("o30").intervals
    assert span.lo == 0.0 and 1.0e-5 < span.hi < 1.1e-5


# -- c below every curve -----------------------------------------------------------
def test_c_below_every_curve():
    def build():
        return random_linear_mod(30, seed=4)

    final = _hold(build, ORIGIN, -1.0, Interval(0.0, 5.0), [1.0, 4.0])
    assert final.objects == set()
    # Over a bounded window every curve's bounds lie above c: no
    # crossing is computed at all.
    host = RangeSweep(build(), ORIGIN, Interval(0.0, 5.0), -1.0)
    assert host.stats.flip_computations == 0 and host.candidates == 0
    # Open-ended, each curve's closest approach lies above c: one bound
    # check each and no kernel call (each cost one that found nothing
    # before the closest-approach test).
    host = RangeSweep(build(), ORIGIN, Interval.at_least(0.0), -1.0)
    assert host.stats.flip_computations == 0 and host.candidates == 0
    assert host.bound_checks == 30


# -- past mode: births, deaths, value jumps ------------------------------------------
def _lifetimes():
    return [
        # Born at 2 next to the query, gone at 5.
        ("visitor", from_waypoints([(2.0, [1.0, 0.0]), (5.0, [2.0, 0.0])], extend=False)),
        # Approaches, turns at 4, recedes, ends at 9.
        (
            "turner",
            from_waypoints(
                [(0.0, [20.0, 0.0]), (4.0, [3.0, 0.0]), (9.0, [30.0, 0.0])],
                extend=False,
            ),
        ),
        ("steady", stationary([6.0, 0.0])),
        ("late", linear_from(3.0, [40.0, 1.0], [-8.0, 0.0])),
    ]


def test_past_births_deaths_and_jumps_of_a_discontinuous_gdistance():
    # Approach rates jump at every turn: the jumper's rate is +0.4 until
    # 5, -5 until 6, and it ends there.
    objects = _lifetimes() + [
        (
            "jumper",
            from_waypoints(
                [(0.0, [100.0, 0.0]), (5.0, [102.0, 0.0]), (6.0, [97.0, 0.0])],
                extend=False,
            ),
        ),
        ("slow", linear_from(0.0, [100.0, 0.0], [-0.005, 0.0])),
    ]
    final = _hold(
        _mod(*objects, tau=10.0), ApproachRate([0.0, 0.0]), -1.0, Interval(0.0, 10.0),
        [1.0, 3.3, 4.5, 5.5, 7.0, 9.5],
    )
    assert final.intervals_for("jumper").intervals == (Interval(5.0, 6.0),)


def test_past_births_deaths_of_a_degree_four_gdistance():
    quartic = CallableGDistance(lambda traj: ORIGIN(traj) * ORIGIN(traj), name="d^4")
    crowd = random_linear_mod(40, seed=2, extent=60.0).all_items()
    final = _hold(
        _mod(*_lifetimes(), *crowd, tau=10.0), quartic, 20.0**4, Interval(0.0, 10.0), [1.0, 3.3, 4.5, 5.5, 7.0, 9.5]
    )
    assert final.intervals_for("visitor").intervals[0].approx_equals(Interval(2.0, 5.0))


# -- the defect this host removes ------------------------------------------------------
#: ``(seed, oid, t)``: ``random_linear_mod(60, seed)``, within 40 of the
#: origin, terminate ``oid`` (a member at ``t``) at ``t``, which lies
#: 1e-3 past the first plan window of the candidate host that served
#: range readings before this one.  That host kept ``oid`` a member.
TERMINATED_PAST_THE_PLAN = [
    (1, "o1", 1.0479429509038736),
    (2, "o15", 3.6787428477448714),
    (3, "o20", 1.7968454257569137),
    (4, "o8", 2.087981058662258),
    (5, "o15", 2.0733021687921553),
]


@pytest.mark.parametrize("seed, oid, t", TERMINATED_PAST_THE_PLAN)
def test_a_terminate_just_past_the_first_plan_drops_the_member(seed, oid, t):
    db = random_linear_mod(60, seed=seed)
    session = ContinuousQuerySession.within(db, [0.0, 0.0], 40.0)
    full = SweepEngine(db, ORIGIN, Interval.at_least(db.last_update_time), constants=[1600.0])
    view = ContinuousWithin(full, 1600.0)
    db.subscribe(full.on_update)
    full.advance_to(t)
    assert oid in view.members
    db.terminate(oid, t)
    assert oid not in view.members
    assert session.members == view.members


def test_a_value_jump_landing_exactly_on_c():
    # Receding at 1 (approach rate 2 x . v > 0, out) until 5, parked at
    # (8, 0) from then on: the rate jumps to exactly 0 = c.  The kernel
    # sees no opposite sign after the jump (0 is a tie); the jump event
    # decides by key — a tie, so in — as the full order's re-insertion
    # does (the object's entry predates the sentinel).  The naive
    # baseline agrees at the probe after the jump, but its window answer
    # cuts segments at crossings, births and deaths only, never at a
    # jump, and probes [0, 10] once, before it: no membership at all.
    parker = from_waypoints([(0.0, [3.0, 0.0]), (5.0, [8.0, 0.0]), (6.0, [8.0, 0.0])])
    final = _hold(
        _mod(("p", parker), tau=10.0), ApproachRate([0.0, 0.0]), 0.0,
        Interval(0.0, 10.0), [2.0, 7.0], naive_drops=_dropping("p"),
    )
    assert final.intervals_for("p").intervals == (Interval(5.0, 10.0),)


# -- the closest approach over an open-ended window ----------------------------------
def _one_mover(position, velocity):
    def build():
        db = MovingObjectDatabase(initial_time=0.0)
        db.install("m", linear_from(0.0, position, velocity))
        return db

    return build


def test_a_receding_curve_takes_no_kernel_call():
    """Open-ended, a curve whose closest approach for the rest of its
    life lies above ``c`` is decided out by it: one bound check, no
    crossing computed, nothing queued — and still the full order's
    answer."""
    build = _one_mover([3.0, 4.0], [0.6, 0.8])  # squared distance 25 and rising
    host = RangeSweep(build(), ORIGIN, Interval.at_least(0.0), 20.0)
    assert host.stats.flip_computations == 0 and host.bound_checks == 1
    assert host.candidates == 0 and host.members == set()
    # ... and one that passes the query point first is no different once
    # its closest approach stays above c: (3, 5) heading (-1, 0) comes
    # no nearer than 25.
    host = RangeSweep(_one_mover([3.0, 5.0], [-1.0, 0.0])(), ORIGIN, Interval.at_least(0.0), 20.0)
    assert host.stats.flip_computations == 0 and host.candidates == 0
    window = Interval(0.0, 10.0)
    for gd_c, mover in ((20.0, build), (20.0, _one_mover([3.0, 5.0], [-1.0, 0.0]))):
        (got, _), (full, _), _ = _drive(mover, ORIGIN, gd_c, window, [])
        assert answer_to_dict(got) == answer_to_dict(full)


def test_a_closest_approach_inside_the_margin_takes_the_kernel():
    """A curve whose closest approach comes within the relative margin
    of ``c`` — here it touches ``c`` exactly — is not decided by its
    minimum: the kernel is asked, as before the closest-approach test."""
    build = _one_mover([-10.0, 5.0], [1.0, 0.0])  # closest at t = 10: 25
    host = RangeSweep(build(), ORIGIN, Interval.at_least(0.0), 25.0)
    assert host.stats.flip_computations == 1 and host.bound_checks == 1
    host = RangeSweep(build(), ORIGIN, Interval.at_least(0.0), 25.0 * (1.0 - 1e-12))
    assert host.stats.flip_computations == 1
    host = RangeSweep(build(), ORIGIN, Interval.at_least(0.0), 25.0 * (1.0 - 1e-6))
    assert host.stats.flip_computations == 0, "beyond the margin: decided"

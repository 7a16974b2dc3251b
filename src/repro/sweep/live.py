"""Live engines order only their candidates: Theorem-5 maintenance
under interval-bound pruning, one horizon at a time.

Theorem 5 prices a continuing query at ``O(m log N)`` per update with
``m`` the support changes *of the query* (Lemma 8: nothing else moves
the answer).  A live engine over every curve of the database pays for
every inversion of the full order instead.  :class:`LiveSweep` is the
one host every live construction site builds for a rank reading —
sessions, and every slot of the one engine pool — and it keeps a
:class:`~repro.sweep.engine.SweepEngine` over the *candidates of a
horizon* only, with the bounds, the margin and the candidate MOD of
:mod:`repro.sweep.prune`.

**Plan.**  At ``tau`` every curve is bounded over ``[tau, tau + H]`` as
it is known now.  Rank reading (``K`` = the widest k an attached view
family maintains): ``T`` is the ``(K + _SPARE_WITNESSES)``-th smallest
``max`` among the curves covering the whole horizon — the *witnesses*
are the curves at or below it — and the candidates are the curves with
``min <= T`` (plus the margin).  While ``K`` witnesses stand, a
non-candidate lies strictly above ``K`` curves at every instant, so the
top-K of the candidates is the top-K of the database.  "Every object
is a candidate" is a value of the plan — fewer covering curves than
witnesses wanted, no time scale yet — and is the one engine over
everything.  (A range reading has no plan: its host is
:class:`~repro.sweep.within.RangeSweep`, one record per curve.)

**Update at ``t`` inside the horizon.**  A candidate's update is the
engine's Theorem-5 step.  A non-candidate's ``new`` / ``chdir`` is one
curve build and one bound over ``[t, tau + H]``: it enters the engine
at ``t`` iff it now reaches ``T``.  An update that breaks ``T``'s
guarantee — a witness whose new ``max`` exceeds ``T``, or that
terminates, leaving fewer than ``K`` — and a tenant attaching with a
larger k are a **re-plan** at ``t``, decided *before* the engine sees
the update.

**Re-plan** = bound again, and — only if the candidate set changed —
close the engine in force into one answer piece per view family and
run Theorem-5 initialisation over the new survivors: the
re-initialisation a heal does, except that a re-plan trusts the old
timeline.  It also happens lazily when the clock must pass
``tau + H`` (an update or a bare tick): advance to ``tau + H``,
re-plan *there*, continue.  (A plan also ends, and its horizon is read
off the curves afresh, once births and promotions have doubled the
candidates it was priced for — which is how a host opened on a handful
of objects starts pruning when the population arrives.)  The database
already reflects the update
that caused the lapse, so an engine built on the way knows it; an
engine kept across the lapse gets it applied once, at the end.  The
engine's own interval is the rest of the window — the host, never the
engine, lapses — so an engine the next plan confirms just keeps
sweeping.

**``H``** is the planner's and never exposed.  Each horizon re-plan
tries twice the last ``H`` and halves it while that is cheaper *per
unit of time*: a plan is priced at its ``N`` bound checks plus
Theorem 4's bound for its slice (:attr:`~repro.sweep.prune.Slice.cost`,
PR 17's pricing), and half the horizon buys two of them.  Where
nothing prunes the halves never pay, ``H`` doubles, the engine is kept,
and a re-plan is ``N`` bound checks.  The first ``H`` is read off the
curves — value, rate and curvature at ``tau``, so scale-free in space
and time: the time by which twice the wanted witnesses could have
reached the bar.

**Tail curves.**  A live engine never looks behind its clock, so every
curve it or its planner builds is the trajectory's image from the
clock on (:meth:`~repro.cache.curve_store.CurveStore.tail`): an open
at a fresh query point costs the same on a MOD with twenty turns of
history per object as on one with none.
"""

from __future__ import annotations

import logging
import math
from typing import Dict, List, Optional, Set, Tuple

from repro.geometry.intervals import Interval
from repro.gdist.base import GDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import New, ObjectId, Terminate, Update
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation
from repro.query.answers import Answer, SnapshotAnswer
from repro.sweep.engine import SweepEngine, SweepStats
from repro.sweep.prune import Slice, _classify, _reaches, candidate_mod

__all__ = ["LiveSweep"]

log = logging.getLogger(__name__)

#: Witnesses kept beyond the ``K`` the guarantee needs.  Replaying
#: ``serve_crossing``'s stream (EXPERIMENTS.md E-T5), two spares take
#: witness re-plans from 4-9 to 0-1 per 1500 updates at every horizon
#: for about two more candidates.
_SPARE_WITNESSES = 2

REPLAN_REASONS = ("horizon", "witness", "tenant")


class _Family:
    """One view family of a host: its spec, when it attached, the view
    over the engine in force, and one answer per engine closed since."""

    __slots__ = ("spec", "since", "view", "pieces", "final")

    def __init__(self, spec, since: float) -> None:
        self.spec = spec
        self.since = since
        self.view = None
        self.pieces: List[Answer] = []
        self.final: Optional[Answer] = None


class LiveView:
    """A one-answer reading (knn) of a host, stable across its
    re-plans: what ``QuerySpec.members`` / ``answer`` / ``partial``
    read in place of an engine's own view."""

    def __init__(self, host: "LiveSweep", family: _Family) -> None:
        self._host = host
        self._family = family

    @property
    def members(self) -> Set[ObjectId]:
        """The current answer set."""
        return self._host._members(self._family)

    def answer(self) -> SnapshotAnswer:
        """The snapshot answer (after the host has been finalized)."""
        return self._host._final(self._family)

    def partial_answer(self, time: float) -> SnapshotAnswer:
        """The answer accumulated up to ``time``, without finalizing
        (the host must already have been advanced to ``time``)."""
        return self._host._window(self._family, time)


class LiveMultiView(LiveView):
    """The several-k reading (multiknn) of a host."""

    def members(self, k: int) -> Set[ObjectId]:  # type: ignore[override]
        """The current k-NN answer for one maintained k."""
        return self._host._members(self._family)[k]

    def answers(self) -> Dict[int, SnapshotAnswer]:
        """All maintained answers keyed by k (after finalize)."""
        return self._host._final(self._family)

    def answer(self, k: int) -> SnapshotAnswer:  # type: ignore[override]
        """The snapshot answer for one maintained k (after finalize)."""
        return self.answers()[k]

    def partial_answers(self, time: float) -> Dict[int, SnapshotAnswer]:
        """Per-k answers accumulated up to ``time``."""
        return self._host._window(self._family, time)


class LiveSweep:
    """A live sweep over ``db``: the engine facade (``on_update`` /
    ``advance_to`` / ``finalize`` / ``current_time`` / op counts) in
    front of one :class:`~repro.sweep.engine.SweepEngine` over the
    candidates of the plan in force.

    Takes what a ``SweepEngine`` takes.  Views do not attach to it the
    way they attach to an engine: :meth:`attach` a
    :class:`~repro.core.spec.QuerySpec` and read the
    :class:`LiveView` it returns — the host needs to know the widest k
    anyone reads to know what may be left out.
    """

    def __init__(
        self,
        db: MovingObjectDatabase,
        gdistance: GDistance,
        interval: Interval,
        observe=None,
        curve_store=None,
    ) -> None:
        if not gdistance.is_polynomial:
            raise TypeError(
                "the sweep engine requires a polynomial g-distance; wrap "
                "non-polynomial distances in PolynomialApproximation"
            )
        from repro.cache.curve_store import CurveStore  # imports repro.core

        self._db = db
        self._gdistance = gdistance
        self._interval = interval
        self._until = interval.hi
        self._store = curve_store if curve_store is not None else CurveStore()
        self.observe = as_instrumentation(observe)
        self.current_time = interval.lo
        self.bound_checks = 0
        self.replans = 0
        self._updates = 0
        self._families: Dict[Tuple, _Family] = {}
        self._finalized = False
        # The engine in force and what the engines before it cost.
        self._engine: Optional[SweepEngine] = None
        self._cands: Optional[MovingObjectDatabase] = None
        self._candidates: Set[ObjectId] = set()
        self._closed_counts: Dict[str, int] = {}
        self._closed_stats = SweepStats()
        # The plan in force: valid over [_start, _end].
        self._horizon: Optional[float] = None
        self._start = interval.lo
        self._end = interval.hi
        self._k = 0
        self._pruned = False
        self._planned = 0
        self._bar: Optional[Tuple[float, float]] = None
        self._witnesses: Set[ObjectId] = set()
        metrics = (self.observe or NULL_INSTRUMENTATION).metrics
        replans = metrics.counter(
            "sweep_replans_total",
            "Re-plans of live candidate hosts, by what forced them: the "
            "horizon's end, a witness lost, a tenant with a larger k.",
            labels=("reason",),
        )
        self._c_replans = {r: replans.labels(reason=r) for r in REPLAN_REASONS}
        self._c_updates = metrics.counter(
            "sweep_events_total",
            "Sweep-loop events processed, by kind.",
            labels=("kind",),
        ).labels(kind="update")
        metrics.gauge(
            "sweep_live_candidates",
            "Candidates of the live engine in force (of whichever host "
            "bound the gauge last).",
        ).set_function(lambda: len(self._candidates))

    # -- inspection ---------------------------------------------------------
    @property
    def interval(self) -> Interval:
        """The query interval ``I``."""
        return self._interval

    @property
    def gdistance(self) -> GDistance:
        """The g-distance in force."""
        return self._gdistance

    @property
    def engine(self) -> Optional[SweepEngine]:
        """The candidate engine in force (``None`` while nothing is
        attached); replaced by a re-plan that changes the candidates."""
        return self._engine

    @property
    def candidates(self) -> int:
        """How many objects the engine in force orders."""
        return len(self._candidates)

    @property
    def plan_window(self) -> Interval:
        """The stretch the plan in force is valid over."""
        return Interval(self._start, self._end)

    @property
    def stats(self) -> SweepStats:
        """Event counts summed over every engine this host has run;
        ``updates_applied`` counts the updates the *host* took, most of
        which no engine had to see."""
        total = SweepStats(**vars(self._closed_stats))
        if self._engine is not None:
            for name, value in vars(self._engine.stats).items():
                setattr(total, name, getattr(total, name) + value)
        total.updates_applied = self._updates
        return total

    def operation_counts(self) -> Dict[str, int]:
        """Primitive operation counters summed over every engine this
        host has run, plus ``bound_checks`` — every ``bounds`` call of
        a plan or of a non-candidate's update test."""
        counts = dict(self._closed_counts)
        if self._engine is not None:
            for op, n in self._engine.operation_counts().items():
                counts[op] = counts.get(op, 0) + n
        counts.pop("total", None)
        counts["bound_checks"] = self.bound_checks
        counts["total"] = sum(counts.values())
        return counts

    def primitive_ops(self) -> int:
        """Total primitive operations so far (see :meth:`operation_counts`)."""
        ops = self._closed_counts.get("total", 0) + self.bound_checks
        if self._engine is not None:
            ops += self._engine.primitive_ops()
        return ops

    def value(self, oid: ObjectId, t: float) -> float:
        """``oid``'s g-distance at ``t`` (at or after the clock)."""
        return self.curve(self._gdistance, oid, self._db.trajectory(oid))(t)

    def curve(self, gdistance: GDistance, oid: ObjectId, trajectory):
        """The curve-store face the host's engines build through: the
        image of ``trajectory`` from the clock on."""
        return self._store.tail(gdistance, oid, trajectory, self.current_time)

    # -- view families ------------------------------------------------------
    def attach(self, spec) -> LiveView:
        """Start maintaining ``spec``'s reading from the current clock
        on and return its view (the one already attached, if any)."""
        key = spec.view_key
        family = self._families.get(key)
        if family is None:
            family = self._families[key] = _Family(spec, self.current_time)
            try:
                if not self._serves(spec.maintained_k):
                    self._plan(self.current_time, "tenant")
                else:
                    self._sync()
                    family.view = spec.view(self._engine)
            except Exception:
                del self._families[key]
                raise
        return (LiveMultiView if spec.multi else LiveView)(self, family)

    def detach(self, spec) -> None:
        """Stop maintaining ``spec``'s reading (unknown specs are a
        no-op).  The plan keeps its width until the next re-plan."""
        family = self._families.pop(spec.view_key, None)
        if family is None or self._engine is None:
            return
        self._engine.remove_listener(family.view)
        if not self._families:
            self._close_engine(self.current_time)

    def _members(self, family: _Family):
        self._sync()
        return family.spec.members(family.view)

    def _window(self, family: _Family, time: float) -> Answer:
        """``family``'s answer over ``[since, time]``: one piece per
        engine closed since it attached and the engine in force's."""
        from repro.parallel.merge import stitch_answers  # imports repro.core

        parts = list(family.pieces)
        if family.view is not None:
            self._sync()
            parts.append(family.spec.partial(family.view, time))
        return stitch_answers(parts, Interval(family.since, time))

    def _final(self, family: _Family) -> Answer:
        if family.final is None:
            raise RuntimeError(
                "the sweep has not been finalized; call finalize() first"
            )
        return family.final

    # -- the clock ------------------------------------------------------------
    def _sync(self) -> None:
        """Bring the engine in force up to the host's clock (it lags
        while only non-candidates update)."""
        if self._engine.current_time < self.current_time:
            self._engine.advance_to(self.current_time)

    def _roll(self, t: float) -> bool:
        """Re-plan at every horizon end before ``t``; whether an engine
        was built on the way (it then knows the database as of now)."""
        built = False
        while t > self._end:
            built |= self._plan(self._end, "horizon")
        return built

    def advance_to(self, t: float) -> None:
        """Process all events with time ``<= t`` and move the clock to
        ``t`` (clamped to the interval's end)."""
        if t < self.current_time:
            raise ValueError(
                f"cannot sweep backwards: {t} < {self.current_time}"
            )
        t = min(t, self._until)
        if self._engine is not None:
            self._roll(t)
            self._engine.advance_to(t)
        self.current_time = t

    def finalize(self) -> None:
        """Close every attached reading at the clock (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        if self._engine is not None:
            self._sync()
        for family in self._families.values():
            family.final = self._window(family, self.current_time)

    # -- updates ----------------------------------------------------------------
    def on_update(self, update: Update) -> None:
        """Apply a database update at its timestamp; the database must
        already reflect it (subscribe the host to the database, or
        apply updates to the database first)."""
        t = update.time
        if t < self.current_time:
            raise ValueError(
                f"update at {t} is in the sweep's past "
                f"(current time {self.current_time})"
            )
        if t > self._until:
            # Beyond the query interval: it cannot affect the answer.
            self.advance_to(self._until)
            return
        self._updates += 1
        if self._engine is None:
            self.current_time = t
            return
        engine = self._engine
        heard = engine.stats.updates_applied
        if self._horizon is None and self._moves(update):
            # No time scale yet (nothing moved at the last plan), and
            # this curve brings one.
            built = self._plan(t, "horizon")
        else:
            built = self._roll(t)
            self.current_time = t
        if not built:
            self._apply(update)
        if len(self._candidates) >= 2 * max(self._planned, 1):
            # Priced for half this many curves (or with too few to draw
            # a bar at all): the plan and its horizon end here.
            self._horizon = None
            self._plan(t, "horizon")
        if self._engine is not engine or engine.stats.updates_applied == heard:
            self._c_updates.inc()  # no engine had to hear of it

    def _moves(self, update: Update) -> bool:
        if isinstance(update, Terminate):
            return False
        curve = self._store.tail(
            self._gdistance, update.oid, self._db.trajectory(update.oid), update.time
        )
        return curve.forward_taylor(update.time, 2)[1] != 0.0

    def _apply(self, update: Update) -> None:
        """One update inside the plan's stretch, not yet known to the
        engine in force."""
        oid, t = update.oid, update.time
        candidate = oid in self._candidates
        if not self._pruned or (candidate and oid not in self._witnesses):
            self._forward(update)
            return
        if isinstance(update, Terminate):
            bound = None
            if not candidate:
                return
        else:
            trajectory = self._db.trajectory(oid)
            curve = self.curve(self._gdistance, oid, trajectory)
            bound = curve.bounds(t, self._end)
            self.bound_checks += 1
        if candidate:  # a witness
            # An engine the re-plan kept still has to hear of it.
            if self._keeps_bar(oid, bound) or not self._plan(t, "witness"):
                self._forward(update)
        elif _reaches(bound, *self._bar):
            self._promote(oid, trajectory, t)

    def _keeps_bar(self, oid: ObjectId, bound) -> bool:
        """Whether ``T`` still has its ``K`` witnesses once witness
        ``oid``'s curve is bounded by ``bound`` from now on (``None``:
        it ends)."""
        if bound is not None and bound[1] <= self._bar[0]:
            return True
        self._witnesses.discard(oid)
        return len(self._witnesses) >= self._k

    def _forward(self, update: Update) -> None:
        self._cands.apply(update)
        if isinstance(update, New):
            self._candidates.add(update.oid)
        self._engine.on_update(update)

    def _promote(self, oid: ObjectId, trajectory, t: float) -> None:
        """A non-candidate reaches the reading: to the engine it is an
        object born at ``t``."""
        self._cands.advance_clock(t)
        self._cands.install(oid, trajectory)
        self._candidates.add(oid)
        piece = trajectory.pieces[-1]
        self._engine.on_update(
            New(oid, t, piece.velocity, piece.position_unchecked(t))
        )

    # -- planning -----------------------------------------------------------------
    def _items(self, tau: float):
        """Every curve that meets ``[tau, until]``, from ``tau`` on."""
        tail, gdistance, until = self._store.tail, self._gdistance, self._until
        items = []
        for oid, trajectory in self._db.all_items():
            domain = trajectory.domain
            if domain.hi < tau or domain.lo > until:
                continue
            items.append((oid, tail(gdistance, oid, trajectory, tau)))
        return items

    def _seed_horizon(self, items, tau: float, k: int) -> Optional[float]:
        """The first horizon, read off the curves: the second-order time
        (value, rate and curvature at ``tau``) each curve needs to close
        its gap to the bar, and of those the one by which twice the
        wanted witnesses could have reached it — ``None`` while nothing
        moves or no curve lies above the bar (then every moving update
        asks again)."""
        rows = []
        for _, curve in items:
            domain = curve.domain
            if domain.lo <= tau < domain.hi:
                rows.append(curve.forward_taylor(tau, 3))
        if not rows:
            return None
        values = sorted([row[0] for row in rows])
        level = values[min(k, len(values)) - 1]
        gaps = [max(row[0] - level, 0.0) for row in rows]
        times = []
        for gap, (_, rate, curvature) in zip(gaps, rows):
            # The least s with |rate| s + |curvature| s^2 / 2 = gap.
            b, a = abs(rate), abs(curvature) / 2.0
            if a:
                times.append((math.sqrt(b * b + 4.0 * a * gap) - b) / (2.0 * a))
            elif b:
                times.append(gap / b)
        times.sort()
        reached = [time for time in times[: 2 * k] if time > 0.0]
        return reached[-1] if reached else None

    def _plan(self, tau: float, reason: str) -> bool:
        """Sweep the engine in force (if any) to ``tau`` and plan from
        there on; whether a new engine was built."""
        if self._engine is not None:
            self._engine.advance_to(tau)
        self.current_time = tau
        widest = max(
            (f.spec.maintained_k for f in self._families.values()), default=0
        )
        k = widest + _SPARE_WITNESSES
        items = self._items(tau)
        horizon = self._horizon
        if horizon is None:
            horizon = self._seed_horizon(items, tau, k)
        elif reason == "horizon":
            horizon *= 2.0
        bar = None
        end = self._until if horizon is None else min(tau + horizon, self._until)
        everything = Slice(tau, end, items, 0)
        if not tau < end < math.inf:
            piece = everything
        else:
            piece, bar = _classify(k, items, tau, end)
            self.bound_checks += len(items)
            while piece.overlap_pairs:
                mid = piece.lo + (piece.hi - piece.lo) / 2.0
                if not piece.lo < mid < piece.hi:
                    break
                half, half_bar = _classify(k, piece.items, piece.lo, mid)
                self.bound_checks += len(piece.items)
                # Per unit of time: half the horizon is two plans (one
                # more pass over every curve) where this one is one.
                if 2.0 * half.cost + len(items) >= piece.cost:
                    break
                piece, bar = half, half_bar
            horizon = piece.hi - piece.lo
            if bar is None:  # too few covering curves to rule any out
                piece = everything._replace(hi=piece.hi)
        if self._engine is not None:
            self.replans += 1
            self._c_replans[reason].inc()
        self._horizon = horizon
        self._start, self._end = tau, piece.hi
        self._k = widest
        self._pruned = bar is not None
        self._bar = bar
        self._witnesses = set()
        if bar is not None:
            for oid, curve in piece.items:
                if curve.domain.lo <= tau and curve.domain.hi >= piece.hi:
                    if curve.bounds(tau, piece.hi)[1] <= bar[0]:
                        self._witnesses.add(oid)
            self.bound_checks += len(piece.items)
        candidates = set(piece.candidates)
        self._planned = len(candidates)
        built = not self._serves(widest) or candidates != {
            oid
            for oid in self._candidates
            if self._db.trajectory(oid).domain.hi >= tau
        }
        if built:
            self._close_engine(tau)
            self._cands = candidate_mod(self._db, candidates)
            self._candidates = candidates
            self._engine = SweepEngine(
                self._cands,
                self._gdistance,
                Interval(tau, self._until),
                observe=self.observe,
                curve_store=self,
            )
        for family in self._families.values():
            if family.view is None:
                family.view = family.spec.view(self._engine)
        log.debug(
            "plan (%s) at tau=%s H=%s: %d candidates of %d objects, engine %s",
            reason,
            tau,
            horizon,
            len(candidates),
            len(items),
            "built" if built else "kept",
        )
        return built

    def _serves(self, k: int) -> bool:
        """Whether the engine in force can hold a reading of ranks
        ``< k``: a kept engine that capped its order at a narrower
        plan's ``K`` cannot (``SweepEngine.add_listener``)."""
        engine = self._engine
        if engine is None or k > self._k:
            return False
        return engine.rank_cap is None or k <= engine.rank_cap

    def _close_engine(self, tau: float) -> None:
        """Retire the engine in force at ``tau``: one answer piece per
        view family, its counts onto the host's."""
        engine = self._engine
        if engine is None:
            return
        for family in self._families.values():
            if family.view is not None:
                family.pieces.append(family.spec.partial(family.view, tau))
                family.view = None
        for op, n in engine.operation_counts().items():
            self._closed_counts[op] = self._closed_counts.get(op, 0) + n
        for name, value in vars(engine.stats).items():
            setattr(
                self._closed_stats, name, getattr(self._closed_stats, name) + value
            )
        self._engine = None
        self._candidates = set()

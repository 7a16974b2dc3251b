"""The plane-sweep evaluation engine (Section 5).

The engine sweeps a time line across the g-distance curves of all
database objects (plus constant sentinels), maintaining

- the **object list** ``L`` — the precedence relation
  :class:`~repro.sweep.object_list.SweepOrder`, and
- the **event queue** ``E`` — one pending intersection event per
  currently-adjacent curve pair
  (:class:`~repro.sweep.event_queue.IndexedEventQueue`).

Intersection events perform adjacent transpositions; external updates
(``new``/``terminate``/``chdir``) are applied at their timestamps after
all earlier intersection events have been processed — exactly the
two-step procedure of Section 5.  Views (k-NN, within-range, the
generic FO(f) evaluator) subscribe as listeners and translate order
changes into answer changes.

A rank reading reads ranks ``< K`` and nothing else, so an engine whose
every listener is a rank view orders only its ``K`` lowest curves (it
is *capped* before an event, once more than two curves lie beyond
``K``; see :meth:`SweepEngine.add_listener`) and keeps every other
curve in a
:class:`~repro.sweep.tournament.KineticTournament`.  Its events are then
of three kinds, each a swap of the full order: adjacent entries of the
order, the *boundary* (rank ``K - 1`` and the tournament's champion),
and a tournament certificate.  Every reading that needs all ranks
(sentinels, the generic evaluator, a support tracker, no listener at
all) keeps the full order.

Complexity accounting (for the Theorem 4/5 benchmarks) is collected in
:class:`SweepStats`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry.intervals import Interval
from repro.geometry.piecewise import PiecewiseFunction, first_order_flip_after
from repro.geometry.poly import Polynomial
from repro.gdist.base import GDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import ChangeDirection, New, ObjectId, Terminate, Update
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation
from repro.sweep.curves import IDENTITY_TIME_TERM, CurveEntry
from repro.sweep.event_queue import IndexedEventQueue, IntersectionEvent, pair_key
from repro.sweep.object_list import SweepOrder, order_key
from repro.sweep.tournament import KineticTournament


@dataclass
class SweepStats:
    """Operation counts for the complexity benchmarks."""

    intersections_processed: int = 0
    swaps: int = 0
    insertions: int = 0
    removals: int = 0
    updates_applied: int = 0
    flip_computations: int = 0
    curve_replacements: int = 0
    reinsertions: int = 0
    listener_errors: int = 0

    @property
    def support_changes(self) -> int:
        """The paper's ``m``: total order changes processed."""
        return self.swaps + self.insertions + self.removals + self.reinsertions


@dataclass(frozen=True)
class ListenerError:
    """One swallowed listener exception (see :meth:`SweepEngine._emit`)."""

    time: float
    method: str
    listener: str  # type name of the failing listener
    error: str  # repr of the exception


#: Cap on retained :class:`ListenerError` records per engine; the
#: ``listener_errors`` stat keeps the true total.
MAX_LISTENER_ERRORS = 64


def next_flip(
    below: PiecewiseFunction,
    above: PiecewiseFunction,
    t: float,
    horizon: float,
    allow_immediate: bool = True,
) -> Optional[float]:
    """When ``below`` first rises above ``above`` after ``t`` (up to
    ``horizon``; at ``t`` itself only with ``allow_immediate``), or
    ``None``.

    The one call of the flip kernel in the sweep: every certificate an
    engine schedules and every crossing a range host
    (:class:`~repro.sweep.within.RangeSweep`) computes goes through
    here, so the two meet the same floats and a tracer wrapping the
    kernel's name in this module sees every flip test."""
    return first_order_flip_after(
        below,
        above,
        t,
        horizon=horizon,
        assume_sign=-1,
        allow_immediate=allow_immediate,
    )


_MEMBERSHIP_PRIORITY = {"birth": 0, "reinsert": 1, "death": 2}


@dataclass(frozen=True)
class _MembershipEvent:
    """A birth, curve-discontinuity re-insertion, or death.

    Births and deaths come from object lifetimes known in advance
    (past-query mode); re-insertions realize the paper's relaxed
    g-distance class (finitely many continuous pieces): at a value
    jump the curve may leap over non-neighbors, so it is removed and
    re-inserted at its right-limit value.
    """

    time: float
    kind: str  # 'birth' | 'reinsert' | 'death'
    entry: CurveEntry

    @property
    def sort_key(self) -> Tuple[float, int, int]:
        # Births first, then re-insertions, then deaths at equal times.
        return (self.time, _MEMBERSHIP_PRIORITY[self.kind], self.entry.seq)

    def __lt__(self, other: "_MembershipEvent") -> bool:
        return self.sort_key < other.sort_key


class SweepEngine:
    """Plane-sweep maintenance of the precedence relation over a MOD.

    Parameters
    ----------
    db:
        The moving object database.  For *past* queries the database
        already contains the full history (all turns and terminations);
        for *future* queries it holds the state as of the query start
        and updates stream in through :meth:`on_update` (or by
        subscribing the engine to the database).
    gdistance:
        A polynomial g-distance.
    interval:
        The query interval ``I``.  The sweep starts at ``I.lo``;
        ``I.hi`` is the event horizon (may be ``+inf`` for open-ended
        continuous queries).
    constants:
        Real constants appearing in the query formula; each becomes an
        immortal sentinel curve so that all support changes are adjacent
        transpositions in one total order.
    time_terms:
        Polynomial time terms used by the query.  Defaults to the plain
        variable ``t``.  Each object contributes one curve per time
        term (the paper's "factor of k").  Non-identity time terms
        require a bounded interval.
    observe:
        Optional :class:`~repro.obs.instrument.Instrumentation` (or a
        bare registry/tracer).  When given, the engine exports event
        counters (``sweep_events_total{kind=...}``), order-change
        counters, collection-time gauges (queue depth, high-water mark,
        order size), a per-update operation-count histogram (the
        Corollary 6 quantity), and an init span.  ``None`` binds no-op
        instruments.
    curve_store:
        Optional :class:`~repro.cache.CurveStore` memoizing per-object
        g-distance curve construction across engines.  Hits are keyed
        by trajectory identity, so a ``chdir``/``terminate`` (which
        replaces the trajectory value) naturally misses and refreshes
        only the touched object's curve.
    """

    def __init__(
        self,
        db: MovingObjectDatabase,
        gdistance: GDistance,
        interval: Interval,
        constants: Sequence[float] = (),
        time_terms: Optional[Sequence[Polynomial]] = None,
        observe=None,
        curve_store=None,
    ) -> None:
        if not gdistance.is_polynomial:
            raise TypeError(
                "the sweep engine requires a polynomial g-distance; wrap "
                "non-polynomial distances in PolynomialApproximation"
            )
        self._db = db
        self._gdistance = gdistance
        self._curve_store = curve_store
        self._interval = interval
        self._until = interval.hi
        self._time_terms: List[Polynomial] = (
            list(time_terms) if time_terms is not None else [Polynomial.identity()]
        )
        if not self._time_terms:
            raise ValueError("need at least one time term")
        non_identity = any(
            tt != Polynomial.identity() for tt in self._time_terms
        )
        if non_identity and not interval.is_bounded:
            raise ValueError(
                "non-identity time terms require a bounded query interval"
            )
        self.current_time = interval.lo
        self.stats = SweepStats()
        self._order = SweepOrder()
        self._queue = IndexedEventQueue()
        self._entries_by_seq: Dict[int, CurveEntry] = {}
        self._object_entries: Dict[ObjectId, List[CurveEntry]] = {}
        self._constant_entries: List[CurveEntry] = []
        self._membership: List[_MembershipEvent] = []
        self._listeners: List[object] = []
        # The rank cap, decided before an event (``_settle_cap``).
        self._cap: Optional[int] = None
        self._cap_settled = False
        self._tour: Optional[KineticTournament] = None
        self._finalized = False
        self.listener_errors: List[ListenerError] = []
        self.observe = as_instrumentation(observe)
        self._bind_instruments()
        with self._tracer.span(
            "sweep.init",
            objects=db.object_count,
            constants=len(constants),
            time_terms=len(self._time_terms),
        ) as span:
            self._initialize(constants)
            span.set_attribute("entries", len(self._entries_by_seq))
            span.set_attribute("queued_events", len(self._queue))

    def _bind_instruments(self) -> None:
        """Resolve metric children once so hot paths pay one bound call.

        With ``observe=None`` the null bundle binds every instrument to
        a shared no-op singleton.  Counters are registered idempotently,
        so engines sharing a registry aggregate into the same series;
        the collection-time gauges describe whichever engine bound them
        last.
        """
        obs = self.observe or NULL_INSTRUMENTATION
        self._profile = obs.profile
        self._tracer = obs.tracer
        m = obs.metrics
        events = m.counter(
            "sweep_events_total",
            "Sweep-loop events processed, by kind.",
            labels=("kind",),
        )
        self._c_ev_intersection = events.labels(kind="intersection")
        self._c_ev_membership = events.labels(kind="membership")
        self._c_ev_update = events.labels(kind="update")
        changes = m.counter(
            "sweep_order_changes_total",
            "Structural order changes, by kind.  A reinsertion counts "
            "under insert, remove, AND reinsert; the paper's m is "
            "swap + insert + remove - reinsert.",
            labels=("kind",),
        )
        self._c_swap = changes.labels(kind="swap")
        self._c_insert = changes.labels(kind="insert")
        self._c_remove = changes.labels(kind="remove")
        self._c_reinsert = changes.labels(kind="reinsert")
        self._c_flips = m.counter(
            "sweep_flip_computations_total",
            "Neighbor-pair first-flip computations (event scheduling).",
        )
        self._c_listener_errors = m.counter(
            "sweep_listener_errors_total",
            "Listener exceptions caught mid-event-loop (see "
            "SweepEngine.listener_errors).",
        )
        self._h_update_ops = m.histogram(
            "sweep_update_primitive_ops",
            "Primitive operations (heap sifts, treap steps, flips) per "
            "applied update — the Corollary 6 quantity.",
        )
        m.gauge(
            "sweep_queue_depth", "Current event-queue length (Lemma 9)."
        ).set_function(lambda: len(self._queue))
        m.gauge(
            "sweep_queue_max_depth",
            "True event-queue high-water mark (tracked inside push).",
        ).set_function(lambda: self._queue.max_length)
        m.gauge(
            "sweep_order_size", "Entries currently in the precedence order."
        ).set_function(self._live_entries)
        m.gauge(
            "sweep_current_time", "Position of the sweep line."
        ).set_function(lambda: self.current_time)
        ops = m.gauge(
            "sweep_primitive_ops",
            "Cumulative primitive operations, by component counter.",
            labels=("op",),
        )
        for op in (
            "queue_pushes",
            "queue_pops",
            "queue_removes",
            "queue_sift_steps",
            "order_descend_steps",
            "order_rotations",
            "order_rank_steps",
            "flip_computations",
        ):
            ops.labels(op=op).set_function(
                lambda op=op: self.operation_counts()[op]
            )

    # -- initialization (Theorem 5 part 1: O(N log N)) ----------------------
    def _initialize(self, constants: Sequence[float]) -> None:
        t0 = self.current_time
        births: List[_MembershipEvent] = []
        for oid in self._all_oids():
            traj = self._db.trajectory(oid)
            if traj.domain.hi < t0 or traj.domain.lo > self._until:
                continue
            entries = self._build_entries(oid)
            self._object_entries[oid] = entries
            for entry in entries:
                self._entries_by_seq[entry.seq] = entry
                dom = entry.curve.domain
                if dom.lo <= t0:
                    self._order.insert(entry, t0)
                else:
                    births.append(_MembershipEvent(dom.lo, "birth", entry))
                if math.isfinite(dom.hi) and dom.hi <= self._until:
                    births.append(_MembershipEvent(dom.hi, "death", entry))
                for jump in entry.curve.discontinuities():
                    if t0 < jump <= self._until:
                        births.append(_MembershipEvent(jump, "reinsert", entry))
        for value in constants:
            entry = CurveEntry.for_constant(float(value))
            self._constant_entries.append(entry)
            self._entries_by_seq[entry.seq] = entry
            self._order.insert(entry, t0)
        self._membership = births
        heapq.heapify(self._membership)
        for below, above in self._adjacent_pairs():
            self._schedule_pair(below, above)

    def _all_oids(self) -> List[ObjectId]:
        # Database insertion order, not set order: hash-randomized
        # iteration would make init op counts vary across processes,
        # which the perf gate's deterministic baselines cannot absorb.
        oids = list(self._db.object_ids)
        live = set(oids)
        # Terminated objects may still intersect the query interval.
        for oid, _ in self._db.all_items():
            if oid not in live:
                oids.append(oid)
        return oids

    def _curve_base(self, oid: ObjectId) -> PiecewiseFunction:
        """The g-distance image of one object, via the store if present."""
        trajectory = self._db.trajectory(oid)
        if self._profile is None:
            if self._curve_store is None:
                return self._gdistance(trajectory)
            return self._curve_store.curve(self._gdistance, oid, trajectory)
        # Profiled path: attribute curve materialization to its own
        # stage (N calls merge into one aggregated node).
        with self._profile.stage("curves") as st:
            st.annotate(curves=1)
            if self._curve_store is None:
                return self._gdistance(trajectory)
            return self._curve_store.curve(self._gdistance, oid, trajectory)

    def _build_entries(self, oid: ObjectId) -> List[CurveEntry]:
        base = self._curve_base(oid)
        return [
            CurveEntry.for_object(oid, self._curve_for_term(base, j), j)
            for j in range(len(self._time_terms))
        ]

    def _curve_for_term(self, base: PiecewiseFunction, index: int) -> PiecewiseFunction:
        term = self._time_terms[index]
        if term == Polynomial.identity():
            return base
        return base.compose_polynomial(term, self._interval)

    # -- public inspection ----------------------------------------------------
    @property
    def interval(self) -> Interval:
        """The query interval ``I``."""
        return self._interval

    @property
    def gdistance(self) -> GDistance:
        """The g-distance currently in force."""
        return self._gdistance

    @property
    def order(self) -> SweepOrder:
        """The live precedence relation (the object list ``L``): ranks
        ``< K`` only, once the engine is capped."""
        return self._order

    @property
    def queue_length(self) -> int:
        """Current event-queue length (bounded by Lemma 9)."""
        return len(self._queue)

    @property
    def max_queue_length(self) -> int:
        """True high-water mark of the event queue (tracked inside
        every ``push``, not sampled at event boundaries)."""
        return self._queue.max_length

    def operation_counts(self) -> Dict[str, int]:
        """Primitive operation counters across the engine's structures.

        Heap sift steps, treap descend/rotation/rank steps, and flip
        computations — each an O(1) step, so their sum is the quantity
        Theorems 4/5 and Corollary 6 bound.  Always available (the
        counters are plain ints); the ``observe=`` hook additionally
        exports them as ``sweep_primitive_ops{op=...}`` gauges.
        """
        counts: Dict[str, int] = {}
        counts.update(self._queue.operation_counts())
        counts.update(self._order.operation_counts())
        if self._tour is not None:
            # A capped order's tournament hops node to node like the
            # treap's rank walk, and is counted with it.
            counts["order_rank_steps"] += self._tour.steps
        counts["flip_computations"] = self.stats.flip_computations
        counts["total"] = sum(counts.values())
        return counts

    def primitive_ops(self) -> int:
        """Total primitive operations so far (see :meth:`operation_counts`)."""
        return (
            self._queue.pushes
            + self._queue.pops
            + self._queue.removes
            + self._queue.sift_steps
            + self._order.descend_steps
            + self._order.rotations
            + self._order.rank_steps
            + (self._tour.steps if self._tour is not None else 0)
            + self.stats.flip_computations
        )

    @property
    def object_count(self) -> int:
        """Number of object entries currently in the order."""
        return len(self._order) - len(
            [e for e in self._constant_entries if e.node is not None]
        )

    def all_entries(self) -> List[CurveEntry]:
        """Every entry registered (including departed ones; an object
        that came back keeps only its latest).

        The generic evaluator replays answer segments after the sweep;
        it needs the curves of objects that were removed mid-interval.
        """
        return list(self._entries_by_seq.values())

    def entries_for(self, oid: ObjectId) -> List[CurveEntry]:
        """All curve entries of one object (one per time term)."""
        return list(self._object_entries.get(oid, []))

    def entry_for(self, oid: ObjectId, time_term_index: int = IDENTITY_TIME_TERM) -> CurveEntry:
        """The curve entry of one object for one time term."""
        for entry in self._object_entries.get(oid, []):
            if entry.time_term_index == time_term_index:
                return entry
        raise KeyError(f"no entry for {oid!r} / time term {time_term_index}")

    def sentinel_for(self, value: float) -> CurveEntry:
        """The sentinel entry for a query constant."""
        for entry in self._constant_entries:
            if entry.constant == value:
                return entry
        raise KeyError(f"no sentinel for constant {value}")

    def order_labels(self) -> List[str]:
        """Current precedence order as labels (tests and traces)."""
        return [e.label for e in self._order]

    def objects_in_order(self) -> List[ObjectId]:
        """OIDs of object entries in precedence order."""
        return [e.oid for e in self._order if e.is_object]

    def rank_of(self, entry: CurveEntry) -> int:
        """Rank of an entry of the order (a capped engine's ranks
        ``< K``)."""
        return self._order.rank(entry)

    @property
    def rank_cap(self) -> Optional[int]:
        """``K`` when the engine orders only its ``K`` lowest curves
        (see :meth:`add_listener`); ``None`` while it orders them all."""
        return self._cap

    def _live_entries(self) -> int:
        """Entries of the whole precedence relation: a capped engine's
        ranks ``< K`` plus its tournament (the ``sweep_order_size``
        gauge, which means the same on a capped engine and a full one)."""
        tour = self._tour
        return len(self._order) + (len(tour) if tour is not None else 0)

    # -- listeners ------------------------------------------------------------
    def add_listener(self, listener: object) -> None:
        """Register a view; optional methods ``on_swap``, ``on_insert``,
        ``on_remove``, ``on_curve_replaced``, ``on_finalize`` are called
        as the sweep progresses.

        A listener with a ``ranks_read`` attribute reads only that many
        of the lowest ranks (a rank view).  Right before an event (an
        intersection, birth, death or jump, or an update) an engine
        whose every listener is one, and that holds more than ``K + 2``
        curves, is *capped* at ``K`` = the largest ``ranks_read``
        (:meth:`_settle_cap`; an engine that met its first event with
        another listener, or none, never is): the ``K`` lowest curves stay in
        :attr:`order`, every other curve moves to a
        :class:`~repro.sweep.tournament.KineticTournament`, and the
        listeners hear of ranks ``< K`` only.  A listener that needs
        more than a capped engine orders is refused.
        """
        if self._cap is not None:
            reach = getattr(listener, "ranks_read", None)
            if reach is None or reach > self._cap:
                raise ValueError(
                    f"this engine orders only its {self._cap} lowest curves; "
                    f"{type(listener).__name__} reads "
                    f"{'every rank' if reach is None else f'{reach} ranks'}"
                )
        self._listeners.append(listener)

    def remove_listener(self, listener: object) -> None:
        """Detach a view; unknown listeners are a no-op (mirrors the
        database's ``unsubscribe`` contract, so teardown paths need not
        track whether registration ever happened)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _emit(self, method: str, *args) -> None:
        """Notify listeners mid-sweep, never letting one abort the loop.

        A failing observer must not wedge the event loop half-way
        through an adjacency repair: the exception is recorded (in
        ``stats.listener_errors``, the bounded ``listener_errors`` list,
        and the ``sweep_listener_errors_total`` counter) and swallowed.
        Finalization uses :meth:`_emit_strict` instead — after the sweep
        there is no loop to protect, and view errors must surface.
        """
        for listener in self._listeners:
            handler = getattr(listener, method, None)
            if handler is None:
                continue
            try:
                handler(*args)
            except Exception as exc:
                self.stats.listener_errors += 1
                self._c_listener_errors.inc()
                if len(self.listener_errors) < MAX_LISTENER_ERRORS:
                    self.listener_errors.append(
                        ListenerError(
                            self.current_time,
                            method,
                            type(listener).__name__,
                            repr(exc),
                        )
                    )

    def _emit_strict(self, method: str, *args) -> None:
        """Notify listeners outside the event loop; exceptions propagate."""
        for listener in self._listeners:
            handler = getattr(listener, method, None)
            if handler is not None:
                handler(*args)

    # -- the sweep --------------------------------------------------------------
    def advance_to(self, t: float) -> None:
        """Process all events with time ``<= t`` in chronological order
        and move the sweep line to ``t``."""
        if t < self.current_time:
            raise ValueError(
                f"cannot sweep backwards: {t} < {self.current_time}"
            )
        t = min(t, self._until)
        while True:
            queue_time = self._queue.peek_time()
            membership = self._membership[0] if self._membership else None
            has_intersection = queue_time is not None and queue_time <= t
            has_membership = membership is not None and membership.time <= t
            if not has_intersection and not has_membership:
                break
            if not self._cap_settled:
                first = min(
                    queue_time if has_intersection else math.inf,
                    membership.time if has_membership else math.inf,
                )
                # Only between instants: every event at or before the
                # sweep line is processed, so the order is consistent.
                if first > self.current_time and self._settle_cap():
                    continue  # capped: the queue changed, read it again
            if has_intersection and (
                not has_membership or queue_time <= membership.time
            ):
                self._process_intersection(self._queue.pop())
            else:
                heapq.heappop(self._membership)
                self._process_membership(membership)
        self.current_time = t

    def run_to_end(self) -> None:
        """Sweep to the end of the query interval and finalize views."""
        if not math.isfinite(self._until):
            raise ValueError("cannot run an unbounded interval to its end")
        self.advance_to(self._until)
        self.finalize()

    def finalize(self) -> None:
        """Notify views that the sweep is complete.

        Finalization errors propagate (unlike mid-loop listener errors):
        a view that cannot produce its answer must say so to its caller.
        """
        if not self._finalized:
            self._finalized = True
            self._emit_strict("on_finalize", self.current_time)

    # -- the rank cap -------------------------------------------------------------
    def _settle_cap(self) -> bool:
        """Right before an event, between instants: decide the cap; True
        iff the order was capped here.

        An engine with no listener, or with one that reads every rank,
        keeps its full order for good.  One whose every listener reads
        ranks ``< K`` only (see :meth:`add_listener`) is capped at ``K``
        once more than two curves lie at rank ``K`` or above; until then
        it looks again before each later instant.  One or two outsiders
        would be certified exactly as the full order pairs them (the
        boundary and their own pair), so capping them would save no
        event and pay a split.

        Between instants the order is consistent and every adjacent pair
        holds its pending event: ranks ``>= K`` leave the order for the
        tournament, whose leaf pairs were adjacent in it and keep their
        events as certificates."""
        reach = [getattr(view, "ranks_read", None) for view in self._listeners]
        if not reach or None in reach:
            self._cap_settled = True
            return False
        cap = max(reach)
        if len(self._order) <= cap + 2:
            return False
        self._cap_settled = True
        self._cap = cap
        outsiders = self._order.truncate(cap)
        for below, above in zip(outsiders[1::2], outsiders[2::2]):
            self._drop_pair(below, above)
        self._tour = KineticTournament(
            outsiders, self._schedule_pair, self._drop_pair
        )
        return True

    def widen_cap(self, cap: int) -> None:
        """Order the ``cap`` lowest curves from now on, between instants
        (a capped engine a wider reading is about to attach to; an
        uncapped one orders them all already): the tournament's
        champions join the order at its end, each keeping the
        certificate it held with rank ``K - 1`` as its pair in the
        order."""
        if self._cap is None or cap <= self._cap:
            return
        tour = self._tour
        while len(self._order) < cap and tour.champion is not None:
            promoted = tour.champion
            tour.remove(promoted, self.current_time)
            self._order.append(promoted)
            if tour.champion is not None:
                self._schedule_pair(promoted, tour.champion)
        self._cap = cap

    def _above(self, entry: CurveEntry) -> Optional[CurveEntry]:
        """The curve right above an entry of the order: its successor,
        or the champion above a capped order's last entry."""
        if entry.next is None and self._tour is not None:
            return self._tour.champion
        return entry.next

    def _rechampion(self, champion: Optional[CurveEntry]) -> None:
        """The tournament's champion was ``champion`` and may have
        changed: move the boundary pair (rank ``K - 1``, rank ``K``)."""
        new = self._tour.champion
        if new is not champion:
            last = self._order.last
            if champion is not None:
                self._drop_pair(last, champion)
            if new is not None:
                self._schedule_pair(last, new)

    def _process_outside(self, time: float, a: CurveEntry, b: CurveEntry) -> None:
        """A capped order's swap at or above rank ``K``: a tournament
        certificate (both outsiders) or the boundary (rank ``K - 1``
        and the champion).  Either is a swap of the full order."""
        self.current_time = time
        self.stats.intersections_processed += 1
        self._c_ev_intersection.inc()
        self.stats.swaps += 1
        self._c_swap.inc()
        tour = self._tour
        if a.leaf is not None and b.leaf is not None:
            champion = tour.champion
            tour.fire(a, b)
            self._rechampion(champion)
            return
        member, champion = self._order.last, tour.champion
        p = member.prev
        if p is not None:
            self._drop_pair(p, member)
        self._order.replace(member, champion)
        if p is not None:
            self._schedule_pair(p, champion)
        self._schedule_pair(champion, member, just_swapped=True)
        tour.replace_champion(member)
        self._emit("on_swap", time, champion, member)

    # -- event processing ---------------------------------------------------------
    def _process_intersection(self, event: IntersectionEvent) -> None:
        seq_a, seq_b = event.key
        a = self._entries_by_seq[seq_a]
        b = self._entries_by_seq[seq_b]
        if a.leaf is not None or b.leaf is not None:
            self._process_outside(event.time, a, b)
            return
        if a.next is b:
            below, above = a, b
        elif b.next is a:
            below, above = b, a
        else:  # pragma: no cover - guarded by queue discipline
            raise AssertionError(
                f"stale intersection event for non-adjacent pair "
                f"({a.label}, {b.label})"
            )
        self.current_time = event.time
        self.stats.intersections_processed += 1
        self._c_ev_intersection.inc()
        p = below.prev
        s = self._above(above)
        if p is not None:
            self._queue.remove(pair_key(p.seq, below.seq))
        if s is not None:
            self._queue.remove(pair_key(above.seq, s.seq))
        self._order.swap_adjacent(below, above)
        self.stats.swaps += 1
        self._c_swap.inc()
        # New adjacencies: p, above, below, s.  The pair just swapped is
        # rescheduled with the anti-refire guard; fresh adjacencies may
        # fire immediately (inherited tie-stretch inversions).
        if p is not None:
            self._schedule_pair(p, above)
        self._schedule_pair(above, below, just_swapped=True)
        if s is not None:
            self._schedule_pair(below, s)
        self._emit("on_swap", event.time, above, below)

    def _process_membership(self, event: _MembershipEvent) -> None:
        self.current_time = max(self.current_time, event.time)
        self._c_ev_membership.inc()
        entry = event.entry
        if event.kind == "birth":
            self._insert_entry(entry, event.time)
        elif entry.node is None and entry.leaf is None:
            return  # already departed: it left before its death or jump
        elif event.kind == "death":
            self._remove_entry(entry, event.time)
        else:
            self._reinsert_entry(entry, event.time)

    def _reinsert_entry(self, entry: CurveEntry, t: float) -> None:
        """Handle a curve value jump: the entry may leap over
        non-neighbors, so remove it and re-insert at its right-limit
        value (the paper's 'propagate changes to the support' for the
        relaxed g-distance class)."""
        if abs(entry.curve.value_after(t) - entry.curve(t)) <= 1e-12:
            # Stale event: a chdir replaced the curve and it no longer
            # jumps here.  Nothing to propagate.
            return
        self._remove_entry(entry, t)
        # Re-insertion keys on the forward Taylor expansion, which uses
        # the post-jump piece automatically.
        self._insert_entry(entry, t)
        self.stats.reinsertions += 1
        self._c_reinsert.inc()
        # The remove/insert pair already adjusted stats; rebalance so a
        # reinsertion counts once overall.  (The monotone registry
        # counters keep the raw insert/remove halves; consumers derive
        # m as swap + insert + remove - reinsert.)
        self.stats.insertions -= 1
        self.stats.removals -= 1

    def _insert_entry(self, entry: CurveEntry, t: float) -> None:
        self.stats.insertions += 1
        self._c_insert.inc()
        tour = self._tour
        if tour is not None and len(self._order) >= self._cap:
            tour.steps += 1  # one comparison with rank K - 1
            if not order_key(entry, t) < order_key(self._order.last, t):
                # At or above rank K: no listener can see it arrive.
                champion = tour.champion
                tour.insert(entry, t)
                self._rechampion(champion)
                return
        self._order.insert(entry, t)
        p, s = entry.prev, self._above(entry)
        if p is not None and s is not None:
            self._queue.remove(pair_key(p.seq, s.seq))
        if p is not None:
            self._schedule_pair(p, entry)
        if s is not None:
            self._schedule_pair(entry, s)
        self._emit("on_insert", t, entry)
        if tour is not None and len(self._order) > self._cap:
            # Rank K leaves the order; it lies below every outsider.
            demoted = self._order.last
            if tour.champion is not None:
                self._drop_pair(demoted, tour.champion)
            self._order.delete(demoted)
            tour.push_min(demoted)

    def _remove_entry(self, entry: CurveEntry, t: float) -> None:
        self.stats.removals += 1
        self._c_remove.inc()
        tour = self._tour
        if entry.leaf is not None:
            champion = tour.champion
            tour.remove(entry, t)
            self._rechampion(champion)
            return
        p, s = entry.prev, self._above(entry)
        if p is not None:
            self._queue.remove(pair_key(p.seq, entry.seq))
        if s is not None:
            self._queue.remove(pair_key(entry.seq, s.seq))
        self._order.delete(entry)
        if tour is not None and tour.champion is not None:
            # Rank K moves up into the order, the runner-up becomes the
            # champion; a pending (last, champion) pair stays pending.
            promoted = tour.champion
            tour.remove(promoted, t)
            self._order.append(promoted)
            if tour.champion is not None:
                self._schedule_pair(promoted, tour.champion)
        if p is not None and s is not None:
            self._schedule_pair(p, s)
        self._emit("on_remove", t, entry)

    def _drop_pair(self, a: CurveEntry, b: CurveEntry) -> None:
        self._queue.remove(pair_key(a.seq, b.seq))

    def _schedule_pair(
        self, below: CurveEntry, above: CurveEntry, just_swapped: bool = False
    ) -> None:
        self.stats.flip_computations += 1
        self._c_flips.inc()
        flip = next_flip(
            below.curve, above.curve, self.current_time, self._until, not just_swapped
        )
        if flip is not None:
            self._queue.push(
                IntersectionEvent(flip, pair_key(below.seq, above.seq))
            )

    def _adjacent_pairs(self):
        """Every ``(below, above)`` pair the queue certifies: adjacent
        entries of the order, then (capped) the boundary and the
        tournament's certificates."""
        entry = self._order.first
        while entry is not None and entry.next is not None:
            yield entry, entry.next
            entry = entry.next
        if self._tour is not None and self._tour.champion is not None:
            yield self._order.last, self._tour.champion
            yield from self._tour.pairs()

    # -- external updates (future-query mode) -----------------------------------------
    def on_update(self, update: Update) -> None:
        """Apply a database update at its timestamp.

        Per Section 5, all intersection events earlier than the update
        are processed first; then the update's structural change is
        applied and neighbor events are recomputed.  The database must
        already reflect the update (subscribe the engine to the
        database, or apply updates to the database first).
        """
        if update.time < self.current_time:
            raise ValueError(
                f"update at {update.time} is in the sweep's past "
                f"(current time {self.current_time})"
            )
        if update.time > self._until:
            # The update lies beyond the query interval: it cannot affect
            # the answer.  Drain remaining in-interval events and stop.
            self.advance_to(self._until)
            return
        self.advance_to(update.time)
        if not self._cap_settled:
            self._settle_cap()
        self.stats.updates_applied += 1
        self._c_ev_update.inc()
        observed = self.observe is not None
        ops_before = self.primitive_ops() if observed else 0
        self._apply(update)
        if observed:
            self._h_update_ops.observe(self.primitive_ops() - ops_before)

    def apply(self, update: Update) -> None:
        """:meth:`on_update`'s structural change — the events before it
        first — without its accounting: what a host that books its own
        updates hands its engine (a live rank host's curves entering and
        leaving its bar, as a ``new`` and a ``terminate``, and its
        members' ``chdir``)."""
        self.advance_to(update.time)
        if not self._cap_settled:
            self._settle_cap()
        self._apply(update)

    def _apply(self, update: Update) -> None:
        if isinstance(update, New):
            self._apply_new(update)
        elif isinstance(update, Terminate):
            self._apply_terminate(update)
        elif isinstance(update, ChangeDirection):
            self._apply_chdir(update)
        else:  # pragma: no cover - exhaustive over the Update union
            raise TypeError(f"unknown update: {update!r}")

    def _apply_new(self, update: New) -> None:
        # An object that left the order may come back (a live rank
        # host's member engine: a curve re-entering the bar); one still
        # in it may not.
        departed = self._object_entries.get(update.oid, ())
        if any(e.node is not None or e.leaf is not None for e in departed):
            raise ValueError(f"object {update.oid!r} already swept")
        # The new entries replace the departed ones (whose pairs left
        # the queue with them), so an engine holds one set per object
        # however often its objects come back.
        for entry in departed:
            del self._entries_by_seq[entry.seq]
        entries = self._build_entries(update.oid)
        self._object_entries[update.oid] = entries
        for entry in entries:
            self._entries_by_seq[entry.seq] = entry
            self._insert_entry(entry, update.time)

    def _apply_terminate(self, update: Terminate) -> None:
        entries = self._object_entries.get(update.oid)
        if not entries:
            raise KeyError(f"unknown object {update.oid!r}")
        for entry in entries:
            if entry.node is not None or entry.leaf is not None:
                self._remove_entry(entry, update.time)

    def _apply_chdir(self, update: ChangeDirection) -> None:
        entries = self._object_entries.get(update.oid)
        if not entries:
            raise KeyError(f"unknown object {update.oid!r}")
        base = self._curve_base(update.oid)
        for entry in entries:
            alive = entry.node is not None or entry.leaf is not None
            old_value = entry.curve(update.time) if alive else None
            entry.curve = self._curve_for_term(base, entry.time_term_index)
            if not alive:
                continue
            new_value = entry.curve.value_after(update.time)
            if old_value is not None and abs(new_value - old_value) > 1e-7:
                # Discontinuous g-distance: the value jumps at the
                # update, so the entry may leap over non-neighbors —
                # propagate the change to the support by re-inserting
                # (the paper's relaxed-continuity remark).
                self._reinsert_entry(entry, update.time)
            elif entry.leaf is not None:
                # An outsider: its certificates, and the boundary if it
                # is the champion.
                self._tour.recertify(entry)
                if entry is self._tour.champion:
                    self._drop_pair(self._order.last, entry)
                    self._schedule_pair(self._order.last, entry)
            else:
                # Continuous case: the precedence relation is unchanged
                # at the update time; only the pending intersections
                # with the neighbors must be redone.
                p, s = entry.prev, self._above(entry)
                if p is not None:
                    self._queue.remove(pair_key(p.seq, entry.seq))
                    self._schedule_pair(p, entry)
                if s is not None:
                    self._queue.remove(pair_key(entry.seq, s.seq))
                    self._schedule_pair(entry, s)
            # Future discontinuities of the new curve need their own
            # re-insertion events.
            for jump in entry.curve.discontinuities():
                if update.time < jump <= self._until:
                    heapq.heappush(
                        self._membership,
                        _MembershipEvent(jump, "reinsert", entry),
                    )
            self.stats.curve_replacements += 1
            self._emit("on_curve_replaced", update.time, entry)

    # -- Theorem 10: chdir on the query trajectory --------------------------------------
    def replace_gdistance(self, gdistance: GDistance) -> None:
        """Swap in a new g-distance for *every* object at the current
        time, without re-sorting.

        This implements Theorem 10: when the query trajectory itself
        performs a ``chdir``, all g-distances change, but the current
        precedence relation remains correct (positions — hence current
        distances — are continuous through the change).  The order is
        kept as-is; every curve is recomputed and all neighbor-pair
        events are rebuilt with one O(N) heapify.
        """
        if not gdistance.is_polynomial:
            raise TypeError("replacement g-distance must be polynomial")
        with self._tracer.span(
            "sweep.replace_gdistance",
            time=self.current_time,
            objects=len(self._object_entries),
        ):
            self._gdistance = gdistance
            for oid, entries in self._object_entries.items():
                base = self._curve_base(oid)
                for entry in entries:
                    entry.curve = self._curve_for_term(
                        base, entry.time_term_index
                    )
                    self.stats.curve_replacements += 1
            events: List[IntersectionEvent] = []
            for below, above in self._adjacent_pairs():
                self.stats.flip_computations += 1
                self._c_flips.inc()
                flip = next_flip(
                    below.curve,
                    above.curve,
                    self.current_time,
                    self._until,
                    allow_immediate=False,
                )
                if flip is not None:
                    events.append(
                        IntersectionEvent(flip, pair_key(below.seq, above.seq))
                    )
            self._queue.heapify(events)
            self._emit("on_gdistance_replaced", self.current_time)

    # -- convenience -------------------------------------------------------------
    def subscribe_to(self, db: MovingObjectDatabase) -> None:
        """Wire the engine to receive the database's future updates."""
        if db is not self._db:
            raise ValueError("engine can only subscribe to its own database")
        db.subscribe(self.on_update)

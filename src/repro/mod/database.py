"""The moving object database (Definition 2).

:class:`MovingObjectDatabase` holds the triple ``(O, T, tau)`` and
enforces the paper's invariants:

- updates are applied chronologically (``tau`` strictly increases),
- every turn of every trajectory is at or before ``tau`` (the future of
  each object, as currently known, is a single straight motion),
- ``new`` requires a fresh OID, ``terminate``/``chdir`` an existing one,
  and ``chdir`` requires the trajectory to be defined at the update
  time.

Listeners (the sweep engine) can subscribe to updates so future-query
maintenance happens eagerly (Section 5's "external events").  One
re-entrant :attr:`MovingObjectDatabase.lock` is held across each
update's mutation *and* its listeners: a reader that takes it (a
serving loop, say) never sees a half-applied update, and every
listener sees the updates in the order they were applied.
"""

from __future__ import annotations

import math
import threading
from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.geometry.tolerance import DEFAULT_ATOL
from repro.geometry.vectors import Vector
from repro.mod.updates import ChangeDirection, New, ObjectId, Terminate, Update
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation
from repro.trajectory.builder import linear_from
from repro.trajectory.trajectory import Trajectory

UpdateListener = Callable[[Update], None]


class MovingObjectDatabase:
    """An in-memory MOD ``(O, T, tau)`` with chronological updates.

    ``observe`` optionally wires telemetry (see
    :func:`repro.obs.as_instrumentation`): applied updates count into
    ``mod_updates_total{kind=new|terminate|chdir}`` and gauges track
    the live object count and ``tau``.

    ``lock`` is held by :meth:`apply` from validation through the last
    listener, and by every other mutator; a thread that must see the
    MOD and its listeners' state between updates takes it too.
    """

    def __init__(self, initial_time: float = 0.0, observe=None) -> None:
        self.lock = threading.RLock()
        self._trajectories: Dict[ObjectId, Trajectory] = {}
        self._terminated: Dict[ObjectId, Trajectory] = {}
        self._last_update_time = initial_time
        self._listeners: List[UpdateListener] = []
        self._dimension: Optional[int] = None
        self.observe = as_instrumentation(observe)
        metrics = (self.observe or NULL_INSTRUMENTATION).metrics
        family = metrics.counter(
            "mod_updates_total",
            "Updates applied to the moving object database, by kind.",
            labels=("kind",),
        )
        self._c_new = family.labels(kind="new")
        self._c_terminate = family.labels(kind="terminate")
        self._c_chdir = family.labels(kind="chdir")
        metrics.gauge(
            "mod_live_objects",
            "Live (non-terminated) objects in the MOD — |O|.",
        ).set_function(lambda: len(self._trajectories))
        metrics.gauge(
            "mod_tau",
            "The MOD's tau: the time of the last applied update.",
        ).set_function(lambda: self._last_update_time)

    # -- the (O, T, tau) triple ---------------------------------------------
    @property
    def last_update_time(self) -> float:
        """The paper's ``tau`` — the time of the last applied update."""
        return self._last_update_time

    @property
    def object_ids(self) -> List[ObjectId]:
        """The live object set ``O`` (terminated objects excluded)."""
        return list(self._trajectories)

    @property
    def object_count(self) -> int:
        """``|O|`` over live objects."""
        return len(self._trajectories)

    @property
    def dimension(self) -> Optional[int]:
        """Spatial dimension, or None while the MOD is empty."""
        return self._dimension

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._trajectories

    def __iter__(self) -> Iterator[Tuple[ObjectId, Trajectory]]:
        return iter(self._trajectories.items())

    def __len__(self) -> int:
        return len(self._trajectories)

    def trajectory(self, oid: ObjectId) -> Trajectory:
        """The mapping ``T(o)`` for a live or terminated object."""
        if oid in self._trajectories:
            return self._trajectories[oid]
        if oid in self._terminated:
            return self._terminated[oid]
        raise KeyError(f"unknown object: {oid!r}")

    def is_terminated(self, oid: ObjectId) -> bool:
        """True when ``oid`` existed and has been terminated."""
        return oid in self._terminated

    def position(self, oid: ObjectId, t: float) -> Vector:
        """Position of ``oid`` at time ``t``."""
        return self.trajectory(oid).position(t)

    def snapshot(self, t: float) -> Dict[ObjectId, Vector]:
        """Positions of every object whose trajectory is defined at ``t``."""
        out: Dict[ObjectId, Vector] = {}
        for oid, traj in self.all_items():
            if traj.defined_at(t):
                out[oid] = traj.position(t)
        return out

    def all_items(self) -> Iterator[Tuple[ObjectId, Trajectory]]:
        """All objects — live and terminated — with their trajectories.

        Past queries must see terminated objects whose lifetimes
        intersect the query interval; plain iteration yields only the
        live set ``O``.  (A ``chain`` of the two views, not a
        generator: a plan walks every object, and a generator costs one
        frame resumption per object.)
        """
        return chain(self._trajectories.items(), self._terminated.items())


    # -- invariant checks ----------------------------------------------------
    def check_invariants(self) -> None:
        """Assert Definition 2's invariant: all turns are ``<= tau``."""
        for oid, traj in self.all_items():
            last = traj.last_turn
            if last is not None and last > self._last_update_time + DEFAULT_ATOL:
                raise AssertionError(
                    f"object {oid!r} has a turn at {last} after tau="
                    f"{self._last_update_time}"
                )

    # -- update application -----------------------------------------------------
    def subscribe(self, listener: UpdateListener) -> None:
        """Register a callback invoked after each applied update."""
        with self.lock:
            self._listeners.append(listener)

    def unsubscribe(self, listener: UpdateListener) -> None:
        """Remove a previously registered callback.

        Detaching a listener that is not subscribed is a no-op, so
        teardown paths (session close, supervisor rebuilds) can always
        unsubscribe defensively.
        """
        with self.lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def apply(self, update: Update) -> None:
        """Apply one update, enforcing chronological order and validity,
        then hand it to every listener — all under :attr:`lock`."""
        with self.lock:
            self._apply(update)

    def _apply(self, update: Update) -> None:
        if update.time <= self._last_update_time:
            raise ValueError(
                f"updates must be chronological: {update.time} <= "
                f"tau={self._last_update_time}"
            )
        if isinstance(update, New):
            self._apply_new(update)
            self._c_new.inc()
        elif isinstance(update, Terminate):
            self._apply_terminate(update)
            self._c_terminate.inc()
        elif isinstance(update, ChangeDirection):
            self._apply_chdir(update)
            self._c_chdir.inc()
        else:  # pragma: no cover - exhaustive over the Update union
            raise TypeError(f"unknown update type: {update!r}")
        self._last_update_time = update.time
        for listener in self._listeners:
            listener(update)

    def _apply_new(self, update: New) -> None:
        if update.oid in self._trajectories or update.oid in self._terminated:
            raise ValueError(f"object {update.oid!r} already exists")
        if self._dimension is None:
            self._dimension = update.position.dimension
        elif update.position.dimension != self._dimension:
            raise ValueError(
                f"dimension mismatch: MOD is {self._dimension}-dimensional"
            )
        self._trajectories[update.oid] = linear_from(
            update.time, update.position, update.velocity
        )

    def _apply_terminate(self, update: Terminate) -> None:
        if update.oid not in self._trajectories:
            raise ValueError(f"cannot terminate unknown object {update.oid!r}")
        traj = self._trajectories.pop(update.oid)
        self._terminated[update.oid] = traj.truncated_at(update.time)

    def _apply_chdir(self, update: ChangeDirection) -> None:
        if update.oid not in self._trajectories:
            raise ValueError(f"cannot redirect unknown object {update.oid!r}")
        traj = self._trajectories[update.oid]
        if not traj.defined_at(update.time):
            raise ValueError(
                f"trajectory of {update.oid!r} undefined at {update.time}"
            )
        self._trajectories[update.oid] = traj.with_direction_change(
            update.time, update.velocity
        )

    # -- convenience update constructors -------------------------------------------
    def create(self, oid: ObjectId, time: float, position, velocity) -> New:
        """Apply and return a ``new`` update from raw coordinates."""
        from repro.geometry.vectors import as_vector

        update = New(oid, time, as_vector(velocity), as_vector(position))
        self.apply(update)
        return update

    def terminate(self, oid: ObjectId, time: float) -> Terminate:
        """Apply and return a ``terminate`` update."""
        update = Terminate(oid, time)
        self.apply(update)
        return update

    def change_direction(self, oid: ObjectId, time: float, velocity) -> ChangeDirection:
        """Apply and return a ``chdir`` update from raw coordinates."""
        from repro.geometry.vectors import as_vector

        update = ChangeDirection(oid, time, as_vector(velocity))
        self.apply(update)
        return update

    # -- bulk loading ---------------------------------------------------------
    def install(self, oid: ObjectId, trajectory: Trajectory) -> None:
        """Install a pre-built trajectory without an update event.

        Used to load historical data (all of whose turns must already be
        at or before ``tau``) before a query interval starts; the sweep
        treats pre-existing turns as past updates (Section 5: "for past
        queries, a turn in the MOD is treated as an update operation").
        """
        with self.lock:
            self._install(oid, trajectory)

    def _install(self, oid: ObjectId, trajectory: Trajectory) -> None:
        if oid in self._trajectories or oid in self._terminated:
            raise ValueError(f"object {oid!r} already exists")
        if self._dimension is None:
            self._dimension = trajectory.dimension
        elif trajectory.dimension != self._dimension:
            raise ValueError("dimension mismatch")
        last = trajectory.last_turn
        if last is not None and last > self._last_update_time + DEFAULT_ATOL:
            raise ValueError(
                f"cannot install {oid!r}: turn at {last} is after "
                f"tau={self._last_update_time} (Definition 2 requires all "
                f"turns at or before tau)"
            )
        if math.isfinite(trajectory.domain.hi):
            self._terminated[oid] = trajectory
        else:
            self._trajectories[oid] = trajectory

    def clone(self) -> "MovingObjectDatabase":
        """An independent copy of the MOD (trajectories are immutable
        values, so sharing them is safe).

        The primary use is *hypothetical* evaluation — Example 11's "if
        Flight 744 changes its motion to x = A't + B', which is the
        nearest flight at some future time tau?": clone, apply the
        hypothetical update to the clone, query the clone; the real
        database is untouched.
        """
        with self.lock:  # one consistent state, never half an update
            copy = MovingObjectDatabase(initial_time=self._last_update_time)
            copy._trajectories = dict(self._trajectories)
            copy._terminated = dict(self._terminated)
            copy._dimension = self._dimension
        return copy

    def advance_clock(self, time: float) -> None:
        """Move ``tau`` forward without an update (a MOD clock tick).

        Section 5 notes a MOD may "keep a clock" to spread maintenance
        cost across ticks; the sweep engine uses this entry point.
        """
        with self.lock:
            if time < self._last_update_time:
                raise ValueError("the clock cannot move backwards")
            self._last_update_time = time

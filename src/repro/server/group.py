"""The one engine pool: every live sweep a session or a server hosts.

A pool sweeps its *source* MOD directly — the MOD the caller applies
updates to, never a copy — with one live host (``core.api._live_host``
picks it: for a rank reading a :class:`~repro.sweep.live.LiveSweep`,
one engine over the curves under a bar drawn for the widest k any
attached reading needs, or for a range reading a
:class:`~repro.sweep.within.RangeSweep`, one record per curve), and
hosts any number of view families on it.  The owner hands it each
update once, after the source applied it and under the source's lock
(:meth:`EngineGroup.apply`), so the host reads the source exactly as
the update left it.  A server group is the many-tenant case: sessions
grouped by (g-distance fingerprint, range threshold) share *everything*
below the answer-view layer, and sessions with identical
``(kind, params)`` share the views and answer timelines themselves, so
each update is swept **once per group**, not once per session.  A
one-tenant pool (``spec=``) is what every
:class:`~repro.core.api.ContinuousQuerySession` holds — with no heal,
or with a rebuild for a
:class:`~repro.resilience.supervisor.SupervisedQuerySession`: the same
host with the spec attached from birth.  Every pool has one birth, at
the source ``tau`` (:meth:`EngineGroup._birth`, DESIGN decision 31): a
spec's window only bounds the answer.

Per-session answers fall out by clipping: a session that joined at
``t0`` owns the shared timeline restricted to ``[t0, close]``, which
equals a fresh engine started at ``t0`` because snapshot memberships
open before ``t0`` clip to exactly the span a ``t0`` bootstrap would
have opened.

**A heal is Theorem-5 initialisation run again** (DESIGN decision 16):
:meth:`EngineGroup.rebuild` is that birth run again and keeps nothing
of the failed engine.  What precedes a birth is answered in one place,
:meth:`EngineGroup.partial`, as one Theorem-4 past query over the
source; the host answers the rest.  Which faults heal is one rule
(:func:`is_engine_fault`); what a heal does — a rebuild, or nothing but
a quarantine — is the owner's, set as :attr:`EngineGroup.heal`.

A range host reads one threshold, so the threshold (``constants``) is
part of a server's group key: all rank queries (knn + multiknn, any k)
co-tenant one pool, and within queries group per threshold.  Curves are
shared across groups by the server's one curve store, not by a host.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.api import _evaluate, _live_host
from repro.core.spec import QuerySpec
from repro.geometry.intervals import Interval
from repro.gdist.base import GDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.updates import Update
from repro.parallel.merge import clip_answer, stitch_answers
from repro.server.errors import ServerError

__all__ = ["ENGINE_FAULTS", "EngineGroup", "is_engine_fault"]

log = logging.getLogger(__name__)

# Exception types a failing sweep engine legitimately surfaces — only
# these engage an owner's heal.  Anything else (e.g. a ``TypeError``
# raised by a user-supplied g-distance callable, or a caller's bad
# argument) is a caller bug, not an engine fault, and propagates
# unchanged; the typed ``ServerError`` family is excluded explicitly
# because it subclasses ``RuntimeError``.
ENGINE_FAULTS = (
    ArithmeticError,
    AssertionError,
    LookupError,
    RuntimeError,
    ValueError,
)


def is_engine_fault(exc: BaseException) -> bool:
    """Whether ``exc`` is one a heal answers (the one fault rule)."""
    return isinstance(exc, ENGINE_FAULTS) and not isinstance(exc, ServerError)


class EngineGroup:
    """Shared sweep state for all sessions of one (gdistance, constants)
    equivalence class — or for one spec (``spec=``).

    ``heal`` is the owner's rule for an engine fault (see
    :func:`is_engine_fault`): ``heal(group, exc)`` rebuilds or retires the
    pool as the owner decides, and the failed step runs once more on
    what the heal left — unless the heal retired the pool, when the
    fault propagates.  ``None`` (the default) lets every fault
    propagate.
    """

    def __init__(
        self,
        gid: int,
        source: MovingObjectDatabase,
        gdistance: GDistance,
        constants: Sequence[float] = (),
        observe=None,
        curve_store=None,
        spec: Optional[QuerySpec] = None,
    ) -> None:
        self.gid = gid
        self.key = None  # set by the owning server (its group-map key)
        self.gdistance = gdistance
        # Called with the group: a closure over it here would be a cycle.
        self.heal: Optional[Callable[["EngineGroup", BaseException], None]] = None
        self._source = source
        self._constants = tuple(float(c) for c in constants)
        self._observe = observe
        self._curve_store = curve_store
        # Per view family (``QuerySpec.view_key``): its view on the
        # host, the attached-session count, and the spec that rebuilds
        # it.
        self._views: Dict[Tuple, object] = {}
        self._refs: Dict[Tuple, int] = {}
        self._specs: Dict[Tuple, QuerySpec] = {}
        if spec is None:
            # A server group sweeps on for as long as it has tenants.
            self._window = Interval.at_least(source.last_update_time)
        else:
            self._window = Interval(spec.lo, spec.hi)
            self._specs[spec.view_key] = spec
            self._refs[spec.view_key] = 1
        self.clock = self._window.lo
        self.failures = 0
        self.rebuilds = 0
        self._birth()

    # -- construction -----------------------------------------------------
    def _birth(self) -> None:
        """The one birth of every pool, at open and at each rebuild: the
        host opens at the source ``tau`` (all turns are at or before it,
        so Theorem 5 initialization applies verbatim; never past the
        window's end) and the clock rises to it.  :meth:`partial` answers
        a window opening before it; a clock ahead of it catches the host
        up on the next read, so an update in between is in its future."""
        born = min(self._source.last_update_time, self._window.hi)
        self._open(born)
        self.clock = max(self.clock, born)

    def _open(self, start: float) -> None:
        """A live host over the source from ``start`` to the window's
        end, with every view family attached; ``start`` is its birth."""
        self.engine = _live_host(
            self._source,
            self.gdistance,
            Interval(start, self._window.hi),
            self._constants,
            self._observe,
            self._curve_store,
        )
        self.epoch_start = start
        self._views = {
            key: self.engine.attach(spec) for key, spec in self._specs.items()
        }

    # -- shared-view refcounting ------------------------------------------
    def acquire(self, spec: QuerySpec) -> None:
        """Attach one more session to ``spec``'s view family, building
        its view (bootstrapped mid-sweep; a wider k than the host's bar
        re-bars it) on first use."""
        key = spec.view_key
        if key not in self._views:
            self._views[key] = self.engine.attach(spec)
            self._refs[key] = 0
            self._specs[key] = spec
        self._refs[key] += 1

    def release(self, spec: QuerySpec) -> None:
        """Detach one session; the last detach unhooks the view from the
        host so it stops paying per-event bookkeeping."""
        key = spec.view_key
        self._refs[key] -= 1
        if self._refs[key] <= 0:
            self.engine.detach(spec)
            del self._views[key]
            del self._refs[key]
            del self._specs[key]

    @property
    def tenant_count(self) -> int:
        """Total sessions currently attached across view families."""
        return sum(self._refs.values())

    @property
    def current_time(self) -> float:
        return self.clock

    # -- the heal rule ----------------------------------------------------
    def _heals(self, exc: BaseException) -> bool:
        """Hand ``exc`` to the owner's heal; whether it took it."""
        if self.heal is None or not is_engine_fault(exc):
            return False
        self.heal(self, exc)
        return True

    def _at_clock(self, read=None, *args):
        """Bring the host up to the clock, then ``read(*args)``.  A
        rebuilt host starts behind the clock and catches up here, on the
        next step that needs it, so an update between its birth and the
        clock is still in its future."""
        for retry in (False, True):
            try:
                engine = self.engine
                if self.clock > engine.current_time:
                    engine.advance_to(self.clock)
                return None if read is None else read(*args)
            except ENGINE_FAULTS as exc:
                if retry or not self._heals(exc) or self.engine is None:
                    raise

    # -- update and clock path --------------------------------------------
    def apply(self, update: Update) -> None:
        """Sweep one update the source has just applied.  A healed
        update is not retried: the rebuilt host was born from the
        source, which already holds it."""
        try:
            self.engine.on_update(update)
            if update.time > self.clock:
                self.clock = min(update.time, self._window.hi)
        except ENGINE_FAULTS as exc:
            if not self._heals(exc):
                raise

    def advance_to(self, t: float) -> None:
        """Move the group clock (monotone, never past the window) and
        bring the host up to it."""
        if t > self.clock:
            self.clock = min(t, self._window.hi)
        self._at_clock()

    # -- answers -----------------------------------------------------------
    def members(self, spec: QuerySpec):
        """The current answer of one view family at the group clock."""
        return self._at_clock(self._view_members, spec)

    def _view_members(self, spec: QuerySpec):
        return spec.members(self._views[spec.view_key])

    def partial(
        self, spec: QuerySpec, t0: float, end: float, cache=None, observe=None
    ):
        """The exact answer of one view family over ``[t0, end]`` (``end``
        never past the window), read non-destructively whatever was
        rebuilt.

        The host is read at the clock — a timeline read before it could
        keep a membership open past it — from its birth on.  What
        precedes that birth (a session older than its engine: opened
        with a ``start`` before ``tau``, or a restore or a heal came
        between) is one past query over the source,
        Theorem 4's, through ``cache`` and under ``observe`` (default:
        the pool's) — never a piece of a failed engine, and shared by
        every session of one fingerprint through the cache.
        """
        end = min(end, self._window.hi)
        self.clock = max(self.clock, end)
        read = self.clock
        live = self._at_clock(self._read, spec, read)
        # Read the birth after the host: a heal while reading moves it.
        born = max(t0, self.epoch_start)
        segments = [clip_answer(live, born, read)]
        if born > t0:
            past = Interval(t0, min(born, end))
            observe = self._observe if observe is None else observe
            segments.insert(
                0, _evaluate(self._source, spec, past, observe, cache=cache)
            )
        return clip_answer(stitch_answers(segments, Interval(t0, end)), t0, end)

    def _read(self, spec: QuerySpec, time: float):
        return spec.partial(self._views[spec.view_key], time)

    def finalize(self) -> None:
        """Finish the host's sweep at the clock — the end of a
        one-tenant pool.  The catch-up heals like any step; a failing
        ``finalize`` itself is reported, not healed: it is the pool's
        last step."""
        self._at_clock()
        self.engine.finalize()

    # -- heal (Theorem 5 re-initialization) --------------------------------
    def rebuild(self) -> None:
        """Rebuild the host and its views from the source MOD's current
        state: a heal step, and the pool's birth (:meth:`_birth`) run
        again (``O(N log N)``).

        The fresh host catches up with the group clock on the next step
        that reads it, so tenants keep their monotone view of time.
        Nothing is read back from a failed engine: it may have swept
        past ``tau`` without the update that broke it, and the source —
        which is authoritative — still holds everything before."""
        self._birth()
        log.warning(
            "engine rebuilt at tau=%s over %d objects",
            self.epoch_start,
            self._source.object_count,
        )
        self.rebuilds += 1

    def primitive_ops(self) -> int:
        """Primitive operations — engine steps and the bar's record
        work — of the host (resets on rebuild; consumers must clamp
        deltas)."""
        return self.engine.primitive_ops()

    @property
    def replans(self) -> int:
        """Re-bars the host has made since it was built."""
        return self.engine.replans

    @property
    def candidates(self) -> int:
        """Objects the host's engine orders."""
        return self.engine.candidates

    def shutdown(self) -> None:
        """Drop the host and every view (close / quarantine / retire
        path).  Nothing subscribed it to the source, so nothing else
        holds it."""
        self.engine = None
        self._views = {}
        self._refs = {}
        self._specs = {}

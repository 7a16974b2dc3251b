"""Deterministic fault injection for update streams.

Real update feeds are dirty: messages are dropped, retransmitted,
delivered out of order, timestamped by skewed clocks, or corrupted in
flight.  :class:`FaultInjector` perturbs a clean chronological update
stream with exactly those fault classes, seeded so every perturbation
is reproducible — the harness behind the resilience tests and
benchmarks (see :mod:`repro.resilience`).

Fault classes:

- **drops** — an update never arrives;
- **duplicates** — an exact copy is re-delivered a few positions later
  (at-least-once transport);
- **bounded reordering** — an update is delayed past up to
  ``reorder_depth`` successors (bounded out-of-orderness, the regime a
  watermarked reorder buffer can repair);
- **timestamp jitter** — the recorded time wobbles by up to
  ``jitter`` (skewed producer clocks);
- **field corruption** — the update references a nonexistent object,
  re-creates an existing one, or carries a non-finite timestamp
  (payload corruption that validation must catch);
- **spurious updates** — an invalid record is *inserted* next to a
  clean one (phantom messages from a confused producer), leaving the
  clean content intact.

Duplicates and bounded reordering are *repairable*: a correct ingest
layer recovers the exact clean stream.  Jitter and corruption are
*lossy*: they change or invalidate content and can only be quarantined.
:class:`FaultReport` says exactly what was injected so tests can assert
counters against it.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.geometry.vectors import Vector
from repro.mod.updates import ChangeDirection, New, Terminate, Update
from repro.obs.instrument import NULL_INSTRUMENTATION, as_instrumentation


@dataclass
class FaultReport:
    """What a :class:`FaultInjector` run actually injected."""

    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    jittered: int = 0
    corrupted: int = 0
    spurious: int = 0
    #: Largest time displacement caused by reordering: the maximum, over
    #: displaced updates, of (latest earlier-delivered timestamp minus
    #: the update's own timestamp).  A repair window at least this wide
    #: re-sequences every reordered update.
    max_time_displacement: float = 0.0

    @property
    def total(self) -> int:
        """Total number of injected faults."""
        return (
            self.dropped
            + self.duplicated
            + self.reordered
            + self.jittered
            + self.corrupted
            + self.spurious
        )


class FaultInjector:
    """Seeded, configurable perturbation of an update stream.

    All rates are per-update probabilities in ``[0, 1]``; a rate of zero
    disables that fault class entirely, so e.g.
    ``FaultInjector(seed, duplicate_rate=0.1, reorder_rate=0.2)``
    produces a semantically repairable stream while
    ``corrupt_rate > 0`` adds updates that can only be quarantined.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        reorder_depth: int = 3,
        jitter: float = 0.0,
        jitter_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        spurious_rate: float = 0.0,
        observe=None,
    ) -> None:
        for name, rate in (
            ("drop_rate", drop_rate),
            ("duplicate_rate", duplicate_rate),
            ("reorder_rate", reorder_rate),
            ("jitter_rate", jitter_rate),
            ("corrupt_rate", corrupt_rate),
            ("spurious_rate", spurious_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if reorder_depth < 1:
            raise ValueError("reorder_depth must be positive")
        if jitter < 0.0:
            raise ValueError("jitter must be non-negative")
        self._seed = seed
        self._drop_rate = drop_rate
        self._duplicate_rate = duplicate_rate
        self._reorder_rate = reorder_rate
        self._reorder_depth = reorder_depth
        self._jitter = jitter
        self._jitter_rate = jitter_rate
        self._corrupt_rate = corrupt_rate
        self._spurious_rate = spurious_rate
        self.observe = as_instrumentation(observe)
        metrics = (self.observe or NULL_INSTRUMENTATION).metrics
        self._f_injected = metrics.counter(
            "faults_injected_total",
            "Faults injected into perturbed streams, by kind.",
            labels=("kind",),
        )

    # -- corruption variants ------------------------------------------------
    def _corrupt(
        self, rng: random.Random, update: Update, seen_new_oids: Sequence
    ) -> Update:
        """A structurally well-formed but semantically invalid update."""
        choice = rng.randrange(3)
        dim = 2
        if isinstance(update, New):
            dim = update.position.dimension
        elif isinstance(update, ChangeDirection):
            dim = update.velocity.dimension
        if choice == 0:
            # Reference an object that never existed.
            return ChangeDirection(
                f"ghost-{rng.randrange(10**6)}",
                update.time,
                Vector([1.0] * dim),
            )
        if choice == 1 and seen_new_oids:
            # Re-create an object that already exists.
            return New(
                rng.choice(list(seen_new_oids)),
                update.time,
                Vector([0.0] * dim),
                Vector([0.0] * dim),
            )
        # Non-finite timestamp.
        return Terminate(f"ghost-{rng.randrange(10**6)}", math.nan)

    # -- the perturbation ---------------------------------------------------
    def perturb(
        self, updates: Sequence[Update]
    ) -> Tuple[List[Update], FaultReport]:
        """Return the perturbed stream and a report of injected faults.

        The input must be chronological; the output is the *arrival*
        order, which may not be.
        """
        rng = random.Random(self._seed)
        report = FaultReport()
        # Oids whose New has already been staged: corruption only
        # re-creates objects the stream has actually introduced, so a
        # corrupt re-New is always invalid at its timestamp (never a
        # premature creation of a later object).
        seen_new_oids: List = []

        staged: List[Update] = []
        for update in updates:
            if self._drop_rate and rng.random() < self._drop_rate:
                report.dropped += 1
                continue
            if self._corrupt_rate and rng.random() < self._corrupt_rate:
                staged.append(self._corrupt(rng, update, seen_new_oids))
                report.corrupted += 1
                continue
            if self._jitter_rate and rng.random() < self._jitter_rate:
                update = dataclasses.replace(
                    update,
                    time=update.time + rng.uniform(-self._jitter, self._jitter),
                )
                report.jittered += 1
            staged.append(update)
            if self._duplicate_rate and rng.random() < self._duplicate_rate:
                staged.append(update)
                report.duplicated += 1
            if self._spurious_rate and rng.random() < self._spurious_rate:
                staged.append(self._corrupt(rng, update, seen_new_oids))
                report.spurious += 1
            if isinstance(update, New):
                seen_new_oids.append(update.oid)

        # Bounded reordering: selected updates are delayed past up to
        # ``reorder_depth`` already-staged successors.
        arrival: List[Update] = []
        pending: List[Tuple[int, Update]] = []  # (release index, update)
        for i, update in enumerate(staged):
            released = [u for due, u in pending if due <= i]
            pending = [(due, u) for due, u in pending if due > i]
            arrival.extend(released)
            if (
                self._reorder_rate
                and i + 1 < len(staged)
                and rng.random() < self._reorder_rate
            ):
                delay = rng.randint(1, self._reorder_depth)
                pending.append((i + 1 + delay, update))
                report.reordered += 1
            else:
                arrival.append(update)
        arrival.extend(u for _, u in sorted(pending, key=lambda p: p[0]))

        # Measure worst-case out-of-orderness of the arrival order.
        high = -math.inf
        worst = 0.0
        for update in arrival:
            t = update.time
            if not math.isfinite(t):
                continue
            if t < high:
                worst = max(worst, high - t)
            else:
                high = t
        report.max_time_displacement = worst
        for kind, count in (
            ("drop", report.dropped),
            ("duplicate", report.duplicated),
            ("reorder", report.reordered),
            ("jitter", report.jittered),
            ("corrupt", report.corrupted),
            ("spurious", report.spurious),
        ):
            if count:
                self._f_injected.labels(kind=kind).inc(count)
        return arrival, report


def inject_faults(
    updates: Sequence[Update],
    seed: int = 0,
    **rates,
) -> Tuple[List[Update], FaultReport]:
    """One-shot convenience wrapper around :class:`FaultInjector`."""
    return FaultInjector(seed=seed, **rates).perturb(updates)

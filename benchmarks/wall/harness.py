"""Small measuring helpers shared by the workloads and layer probes."""

from __future__ import annotations

import os
import resource
import shutil
import signal
import statistics
import tempfile
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(HERE, "results")

now = time.perf_counter


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the contract's
    steadiness measure."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------
# On the shared two-core boxes this runs on, a neighbour slows the core
# by 1.3-1.7x for seconds to minutes at a time: the same 12-second
# CPU-bound loop reads 13% apart (inter-quartile) from one window to the
# next, more than a 10% regression bound.  So every timed loop
# interleaves a fixed pure-Python spin with its operations (between short
# ones, on a timer inside long ones), and times are reported *at
# reference speed*: the CPU seconds of an operation are
# rescaled by reference spin / observed spin, its waiting (sleep, fsync,
# socket) is left as measured.  The same measurement read 5% apart after
# the correction.  Raw wall times are printed beside the corrected ones.

SPIN_ITERATIONS = 5_000
#: Timer period of the spins inside a long operation (a 0.26 ms spin
#: every 10 ms: 3% of its wall, and subtracted from it).
SPIN_PERIOD_S = 0.010
MIN_SPINS = 20
#: The spin on an undisturbed core of the box the bounds were set on.
REFERENCE_SPIN_S = 260e-6

cpu = time.process_time


def spin() -> float:
    """Time one fixed pure-Python loop (about a quarter millisecond)."""
    start = now()
    acc = 0
    for i in range(SPIN_ITERATIONS):
        acc += i * i
    return now() - start


def speed_factor(spins: Sequence[float]) -> float:
    """Reference speed over observed speed: below 1 on a slowed core."""
    return REFERENCE_SPIN_S / median(spins) if spins else 1.0


class Pace:
    """Spins interleaved with a timed loop's operations.  ``total`` is
    the time they took, which the loop's wall and CPU time exclude.

    A loop of short operations calls :meth:`tick` between them.  An
    operation that runs for a second cannot be sampled from outside, so
    :meth:`every` spins on a wall-clock timer *inside* whatever the main
    thread is running (a Python signal handler runs between two
    bytecodes of the main thread); the caller subtracts the growth of
    ``total`` from what it timed."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.total = 0.0

    def tick(self, count: int = 1) -> None:
        for _ in range(count):
            took = spin()
            self.samples.append(took)
            self.total += took

    @contextmanager
    def every(self, period_s: float) -> Iterator[None]:
        """Tick every ``period_s`` seconds of wall time until the block
        exits.  Main thread only."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn: Callable, *args) -> Tuple[object, "Timing"]:
        """Run one long operation with spins on a timer inside it;
        returns its result and its :class:`Timing`, the spins taken out
        and its own speed factor attached.  An operation too short to
        catch ``MIN_SPINS`` gets the rest right after it."""
        first, spun = len(self.samples), self.total
        with self.every(SPIN_PERIOD_S):
            w0, c0 = now(), cpu()
            result = fn(*args)
            wall, cpu_s = now() - w0, cpu() - c0
        spun = self.total - spun
        self.tick(max(0, MIN_SPINS - (len(self.samples) - first)))
        factor = speed_factor(self.samples[first:])
        return result, Timing(wall - spun, cpu_s - spun, factor)


class Timing(NamedTuple):
    """One timed operation: wall and process CPU seconds, and the speed
    factor to correct it with when it was not timed inside a paced loop
    (``None``: use the loop's)."""

    wall: float
    cpu: float
    factor: Optional[float] = None

    def at_reference(self, loop_factor: float) -> float:
        factor = loop_factor if self.factor is None else self.factor
        return self.wall + self.cpu * (factor - 1.0)


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_calls(
    calls: Sequence[Callable[[], object]], budget_s: float, min_rounds: int = 3
) -> List[float]:
    """Run ``calls`` round-robin until ``budget_s`` is spent (at least
    ``min_rounds`` full rounds); returns every per-call duration."""
    samples: List[float] = []
    deadline = now() + budget_s
    rounds = 0
    while rounds < min_rounds or now() < deadline:
        for call in calls:
            start = now()
            call()
            samples.append(now() - start)
        rounds += 1
    return samples


def new_scratch(prefix: str) -> str:
    """A fresh directory inside the checkout (the benchmark may not
    write outside it); the caller removes it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=RESULTS_DIR)


@contextmanager
def scratch_dir(prefix: str) -> Iterator[str]:
    """:func:`new_scratch` as a context manager, removed on exit."""
    path = new_scratch(prefix)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Tally:
    """Operations attempted and failed; a failed operation carries its
    reason so the command can say what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition


Metrics = Dict[str, tuple]  # name -> (value, unit)

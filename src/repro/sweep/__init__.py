"""The plane-sweep query evaluation engine (Section 5).

The engine maintains, along a sweeping time line, the total order
(*precedence relation*, Definition 7) of the g-distance curves of all
objects plus any constant sentinel curves.  Order changes are exactly
the adjacent transpositions detected as neighbor-pair intersection
events (Lemma 7); external updates are interleaved with intersection
events as the paper prescribes.

Modules:

- :mod:`repro.sweep.curves` — curve entries (object curves, constant
  sentinels, multiple time terms);
- :mod:`repro.sweep.object_list` — the balanced-BST object list ``L``
  (a treap with order statistics and neighbor links);
- :mod:`repro.sweep.event_queue` — the event queue ``E`` holding only
  the earliest future intersection of each *current* neighbor pair,
  with O(log n) deletion (Lemma 9's optimization);
- :mod:`repro.sweep.engine` — the sweep itself;
- :mod:`repro.sweep.support` — precedence-relation snapshots and
  support-change accounting;
- :mod:`repro.sweep.knn` — the continuous k-NN view (Example 6);
- :mod:`repro.sweep.within` — the continuous range ("within distance")
  view;
- :mod:`repro.sweep.evaluator` — the exact generic FO(f) evaluator
  driven by support changes (Lemma 8);
- :mod:`repro.sweep.prune` — which curves a sweep has to order at
  all: per-slice candidates from interval bounds;
- :mod:`repro.sweep.live` — the live rank host: a range reading at a
  bar kept above ``K`` curves and one engine over the curves under it
  (what every rank session and engine pool builds).
"""

from repro.sweep.engine import SweepEngine
from repro.sweep.knn import ContinuousKNN
from repro.sweep.live import LiveSweep
from repro.sweep.multiknn import MultiKNN
from repro.sweep.support import SupportTracker
from repro.sweep.within import ContinuousWithin

__all__ = [
    "ContinuousKNN",
    "ContinuousWithin",
    "LiveSweep",
    "MultiKNN",
    "SupportTracker",
    "SweepEngine",
]

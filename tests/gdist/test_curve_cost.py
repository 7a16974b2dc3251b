"""A deterministic cost gate on curve construction.

Writing down ``f(T(o))`` for squared distance is three dot products per
linear cell; what made it expensive was the object pipeline around them
(``Vector`` arithmetic, ``Interval`` and ``Polynomial`` re-validation, a
probe and a piece lookup per cell, a fingerprint rebuilt per lookup).
Wall time cannot gate that on a shared machine, Python-level function
calls can: ``sys.setprofile`` counts one ``call`` event per Python
function, generator or (before 3.12) comprehension frame entered, the
same number on every run.

Counts at the parent of the scalar kernel (commit 78c3088, CPython
3.11), measured exactly as below:

=============================================  ======  ======  ======
what                                           parent  kernel  budget
=============================================  ======  ======  ======
one-cell ``gd(trajectory)``                        83      13      20
three-cell ``gd(trajectory)``                     253      27      40
``CurveStore.tail`` miss (slices two pieces)      265      33      45
``CurveStore.tail`` hit                             9       4       4
=============================================  ======  ======  ======

Each build budget is under a quarter of the parent's count — room for
a helper, not for the pipeline — and the hit is four calls by
construction (``tail``, the two fingerprint accessors, the counter).
3.12 inlines comprehensions, so it only ever counts fewer.
"""

import sys

from repro.cache import CurveStore
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.trajectory.builder import from_waypoints, linear_from


def python_calls(fn, *args):
    """Python-level ``call`` events while ``fn(*args)`` runs, ``fn``'s
    own frame included."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


def make():
    gd = SquaredEuclideanDistance([0.5, -0.25])
    one = linear_from(0.0, [1.0, 2.0], [0.5, -1.0])
    three = from_waypoints(
        [
            (0.0, [0.0, 0.0]),
            (1.0, [1.0, 0.0]),
            (2.0, [1.0, 1.0]),
            (3.0, [0.0, 1.0]),
        ]
    )
    assert (len(one.pieces), len(three.pieces)) == (1, 3)
    gd.cache_fingerprint()  # built on first use, kept (its own test below)
    return gd, one, three


def test_the_counter_counts():
    def leaf():
        return [x for x in (1, 2)]

    def two():
        leaf()
        len(())  # a C call: not counted

    comprehension_frames = 0 if sys.version_info >= (3, 12) else 1
    assert python_calls(leaf) == 1 + comprehension_frames
    assert python_calls(two) == 2 + comprehension_frames


def test_one_cell_curve_budget():
    gd, one, _ = make()
    assert gd(one).piece_count == 1
    assert python_calls(gd, one) <= 20


def test_three_cell_curve_budget():
    gd, _, three = make()
    assert gd(three).piece_count == 3
    assert python_calls(gd, three) <= 40


def test_tail_miss_and_hit_budgets():
    gd, _, three = make()
    store = CurveStore()
    assert python_calls(store.tail, gd, "o", three, 1.5) <= 45
    assert (store.hits, store.misses) == (0, 1)
    assert python_calls(store.tail, gd, "o", three, 1.5) <= 4
    assert (store.hits, store.misses) == (1, 1)
    assert store.tail(gd, "o", three, 1.5).piece_count == 2


def test_the_fingerprint_is_built_once():
    gd = SquaredEuclideanDistance([7.0, 7.0])
    first = python_calls(gd.cache_fingerprint)
    assert python_calls(gd.cache_fingerprint) == 1 < first
    assert gd.cache_fingerprint() is gd.cache_fingerprint()
    assert gd.cache_fingerprint() == SquaredEuclideanDistance([7.0, 7.0]).cache_fingerprint()

"""One answer algebra: restriction, the per-k mapper, the JSON shape.

``SnapshotAnswer.restrict`` is the one membership clip; the four
callers that used to carry their own loop keep their names, tolerances
and — pinned here, not unified — their *different* degenerate-window
rules: ``clip_answer(a, lo, hi < lo)`` collapses to ``[hi, hi]``,
``clip_payload`` to ``[lo, lo]``.  The references are the bodies of
the commit before the fold, kept verbatim in ``tests/_oracle.py``.
"""

import json
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache.answer_cache import (
    _payload_nbytes,
    clip_payload,
    restrict_payload,
)
from repro.geometry.intervals import Interval, IntervalSet
from repro.geometry.tolerance import DEFAULT_ATOL
from repro.io import answer_from_dict, answer_to_dict
from repro.net.protocol import answer_from_wire, answer_to_wire, encode_frame
from repro.parallel.merge import clip_answer, stitch_answers, union_answers
from repro.query.answers import SnapshotAnswer, per_k

from tests._oracle import reference_clip_answer, reference_restrict_payload

INF = math.inf
# A coarse grid makes touching and coinciding endpoints common.
bounds = st.one_of(
    st.sampled_from([-INF, INF]),
    st.integers(-8, 8).map(lambda n: n / 2),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@st.composite
def intervals(draw):
    lo, hi = sorted((draw(bounds), draw(bounds)))
    assume(lo != INF and hi != -INF)
    return Interval(lo, hi)


@st.composite
def snapshot_answers(draw):
    oids = draw(st.lists(st.sampled_from(["a", "b", 3, ("t", 1)]), unique=True))
    return SnapshotAnswer(
        {
            oid: IntervalSet(draw(st.lists(intervals(), max_size=4)))
            for oid in oids
        },
        Interval(-INF, INF),
    )


answers = st.one_of(
    snapshot_answers(),
    st.dictionaries(st.integers(1, 4), snapshot_answers(), min_size=1, max_size=3),
)


@settings(max_examples=300)
@given(snapshot_answers(), intervals(), st.sampled_from([0.0, DEFAULT_ATOL, 0.25]))
def test_restrict_is_both_former_clips(answer, window, atol):
    assert answer.restrict(window, atol) == reference_restrict_payload(
        answer, window, atol
    )
    assert answer.restrict(window) == reference_clip_answer(
        answer, window.lo, window.hi
    )


@settings(max_examples=300)
@given(answers, bounds, bounds)
def test_clip_answer_keeps_its_rule(answer, lo, hi):
    # Windows arrive in either order: hi < lo collapses to [hi, hi].
    assume(hi != -INF and min(lo, hi) != INF)  # no such Interval
    clipped = clip_answer(answer, lo, hi)
    assert clipped == reference_clip_answer(answer, lo, hi)
    window = per_k(lambda a: a.interval, clipped)
    expected = Interval(min(lo, hi), hi)
    assert window == per_k(lambda a: expected, answer)


@settings(max_examples=300)
@given(answers, intervals())
def test_restrict_payload_keeps_its_tolerance(payload, window):
    assert restrict_payload(payload, window) == reference_restrict_payload(
        payload, window
    )
    assert restrict_payload(payload, window, 0.0) == reference_restrict_payload(
        payload, window, 0.0
    )


def test_degenerate_windows_collapse_differently():
    answer = SnapshotAnswer(
        {"a": IntervalSet([Interval(0.0, 10.0)])}, Interval(0.0, 10.0)
    )
    assert clip_answer(answer, 6.0, 2.0).interval == Interval(2.0, 2.0)
    assert clip_answer(answer, 6.0, 2.0).intervals_for("a") == IntervalSet(
        [Interval(2.0, 2.0)]
    )
    assert clip_payload(answer, 6.0, 2.0).interval == Interval(6.0, 6.0)
    assert clip_payload(answer, 6.0, 2.0).intervals_for("a") == IntervalSet(
        [Interval(6.0, 6.0)]
    )
    # Empty and point windows.
    assert answer.restrict(Interval(11.0, 12.0)).objects == set()
    assert answer.restrict(Interval(10.0, 10.0)).at(10.0) == {"a"}
    assert answer.restrict(Interval(-INF, INF)) == SnapshotAnswer(
        {"a": IntervalSet([Interval(0.0, 10.0)])}, Interval(-INF, INF)
    )


@given(st.lists(snapshot_answers(), min_size=1, max_size=3))
def test_stitch_is_the_per_k_union(pieces):
    window = Interval(-INF, INF)
    assert stitch_answers(pieces, window) == union_answers(pieces, window)
    per_k_pieces = [{1: piece, 2: pieces[0]} for piece in pieces]
    assert stitch_answers(per_k_pieces, window) == {
        1: union_answers(pieces, window),
        2: union_answers([pieces[0]] * len(pieces), window),
    }


def test_payload_nbytes_counts_every_k():
    one = SnapshotAnswer(
        {
            "a": IntervalSet([Interval(0.0, 1.0), Interval(2.0, 3.0)]),
            "b": IntervalSet([Interval(0.0, 1.0)]),
        },
        Interval(0.0, 3.0),
    )
    assert one.segment_count() == 3
    assert _payload_nbytes(one) == 128 + 2 * 72 + 3 * 48
    assert _payload_nbytes({1: one, 2: one}) == 128 + 2 * (2 * 72 + 3 * 48)


# -- the membership-JSON shape, written once ---------------------------------
def _ivs(*pairs):
    return IntervalSet(Interval(lo, hi) for lo, hi in pairs)


GOLDEN_KNN = SnapshotAnswer(
    {
        "b": _ivs((0.5, 1.25), (3.0, 4.0)),
        7: _ivs((1.25, 3.0)),
        ("fleet", 2): _ivs((4.0, 4.0)),
    },
    Interval(0.5, 4.0),
)
GOLDEN_WITHIN = SnapshotAnswer({"o1": _ivs((2.0, INF))}, Interval(2.0, INF))
GOLDEN_MULTIKNN = {
    1: SnapshotAnswer({"a": _ivs((0.0, 2.0))}, Interval(0.0, 2.0)),
    3: SnapshotAnswer(
        {"a": _ivs((0.0, 2.0)), 10: _ivs((0.0, 0.5), (1.5, 2.0))},
        Interval(0.0, 2.0),
    ),
}
# Frames as the commit before the fold wrote them.
GOLDEN_FRAMES = [
    (
        GOLDEN_KNN,
        b'\x00\x00\x00\x88{"answer":{"interval":[0.5,4.0],"memberships":'
        b'{"i:7":[[1.25,3.0]],"s:b":[[0.5,1.25],[3.0,4.0]],'
        b'"t:[\\"s:fleet\\", \\"i:2\\"]":[[4.0,4.0]]}}}',
    ),
    (
        GOLDEN_WITHIN,
        b'\x00\x00\x00H{"answer":{"interval":[2.0,"inf"],"memberships":'
        b'{"s:o1":[[2.0,"inf"]]}}}',
    ),
    (
        GOLDEN_MULTIKNN,
        b'\x00\x00\x00\xaa{"answer":{"ks":{"1":{"interval":[0.0,2.0],'
        b'"memberships":{"s:a":[[0.0,2.0]]}},"3":{"interval":[0.0,2.0],'
        b'"memberships":{"i:10":[[0.0,0.5],[1.5,2.0]],"s:a":[[0.0,2.0]]}}}}}',
    ),
]


def test_wire_bytes_are_the_parents():
    for answer, frame in GOLDEN_FRAMES:
        assert encode_frame({"answer": answer_to_wire(answer)}) == frame
        body = json.loads(frame[4:])
        assert answer_from_wire(body["answer"]) == answer


def test_file_form_keeps_str_keys():
    assert json.dumps(answer_to_dict(GOLDEN_KNN)) == (
        '{"interval": [0.5, 4.0], "memberships": {"(\'fleet\', 2)": '
        '[[4.0, 4.0]], "7": [[1.25, 3.0]], "b": [[0.5, 1.25], [3.0, 4.0]]}}'
    )
    again = answer_from_dict(answer_to_dict(GOLDEN_WITHIN))
    assert again == GOLDEN_WITHIN

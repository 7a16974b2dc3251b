"""``Vector.__init__`` converts in one pass and keeps both checks."""

import math

import pytest

from repro.geometry.vectors import Vector


def test_the_empty_message_is_kept():
    with pytest.raises(ValueError, match="^vectors must have at least one component$"):
        Vector([])


@pytest.mark.parametrize("bad", [[math.nan], [1.0, float("nan")], [0, "nan"]])
def test_the_nan_message_is_kept(bad):
    with pytest.raises(ValueError, match="^vector components must not be NaN$"):
        Vector(bad)


def test_a_generator_is_read_once():
    v = Vector(c * 0.5 for c in range(1, 4))
    assert v.components == (0.5, 1.0, 1.5)


def test_ints_become_floats():
    v = Vector([1, -2])
    assert v.components == (1.0, -2.0)
    assert all(type(c) is float for c in v.components)


def test_negative_zero_is_kept():
    v = Vector([-0.0, 0.0])
    assert math.copysign(1.0, v[0]) == -1.0
    assert math.copysign(1.0, v[1]) == 1.0


def test_infinities_are_allowed():
    assert Vector([math.inf, -math.inf]).components == (math.inf, -math.inf)

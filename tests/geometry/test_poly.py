"""Tests for the polynomial type."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.poly import Polynomial, as_polynomial

finite_coeff = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
small_poly = st.lists(finite_coeff, min_size=1, max_size=5).map(Polynomial)
probe_times = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestConstruction:
    def test_trim_trailing_zeros(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1.0, 2.0)

    def test_empty_becomes_zero(self):
        assert Polynomial([]).is_zero

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([float("inf")])

    def test_constant(self):
        p = Polynomial.constant(3.5)
        assert p.is_constant and p(100.0) == 3.5

    def test_identity(self):
        p = Polynomial.identity()
        assert p(7.0) == 7.0

    def test_linear(self):
        p = Polynomial.linear(2.0, 1.0)
        assert p(3.0) == 7.0

    def test_monomial(self):
        assert Polynomial.monomial(3, 2.0)(2.0) == 16.0

    def test_monomial_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.monomial(-1)

    def test_from_roots(self):
        p = Polynomial.from_roots([1.0, 2.0])
        assert p(1.0) == pytest.approx(0.0)
        assert p(2.0) == pytest.approx(0.0)
        assert p.leading_coefficient == pytest.approx(1.0)


class TestInspection:
    def test_degree(self):
        assert Polynomial([1, 2, 3]).degree == 2
        assert Polynomial([5]).degree == 0

    def test_is_zero(self):
        assert Polynomial.zero().is_zero
        assert not Polynomial([0, 1]).is_zero

    def test_repr_of_zero(self):
        assert repr(Polynomial.zero()) == "0"

    def test_repr_terms(self):
        assert "t^2" in repr(Polynomial([0, 0, 1]))


class TestArithmetic:
    def test_add(self):
        assert Polynomial([1, 1]) + Polynomial([2, 0, 3]) == Polynomial([3, 1, 3])

    def test_add_scalar(self):
        assert Polynomial([1, 1]) + 2 == Polynomial([3, 1])
        assert 2 + Polynomial([1, 1]) == Polynomial([3, 1])

    def test_sub_cancels_to_zero(self):
        p = Polynomial([1, 2, 3])
        assert (p - p).is_zero

    def test_rsub(self):
        assert (1 - Polynomial([0, 1]))(0.25) == 0.75

    def test_mul(self):
        # (t+1)(t-1) = t^2 - 1
        assert Polynomial([1, 1]) * Polynomial([-1, 1]) == Polynomial([-1, 0, 1])

    def test_scaled(self):
        assert Polynomial([1, 2]).scaled(3) == Polynomial([3, 6])

    def test_neg(self):
        assert -Polynomial([1, -2]) == Polynomial([-1, 2])

    @given(small_poly, small_poly, probe_times)
    @settings(max_examples=60)
    def test_add_pointwise(self, p, q, t):
        assert (p + q)(t) == pytest.approx(p(t) + q(t), rel=1e-9, abs=1e-6)

    @given(small_poly, small_poly, probe_times)
    @settings(max_examples=60)
    def test_mul_pointwise(self, p, q, t):
        assert (p * q)(t) == pytest.approx(p(t) * q(t), rel=1e-7, abs=1e-4)


class TestCalculus:
    def test_derivative(self):
        assert Polynomial([1, 2, 3]).derivative() == Polynomial([2, 6])

    def test_derivative_of_constant(self):
        assert Polynomial.constant(5).derivative().is_zero

    def test_antiderivative_roundtrip(self):
        p = Polynomial([1, 2, 3])
        assert p.antiderivative().derivative() == p

    def test_antiderivative_constant(self):
        assert Polynomial([2]).antiderivative(7.0)(0.0) == 7.0


class TestComposition:
    def test_compose_linear(self):
        # p(t) = t^2, inner = t + 1 -> (t+1)^2
        p = Polynomial.monomial(2)
        inner = Polynomial([1, 1])
        assert p.compose(inner) == Polynomial([1, 2, 1])

    def test_shifted(self):
        p = Polynomial([0, 0, 1])  # t^2
        q = p.shifted(1.0)  # (t+1)^2
        assert q(0.0) == 1.0
        assert q(-1.0) == 0.0

    @given(small_poly, small_poly, probe_times)
    # The composition's only coefficient is 9.1e-13 * t^16: an absolute
    # trim threshold deletes it.
    @example(
        p=Polynomial.monomial(4, 0.00390625),
        q=Polynomial.monomial(4, 0.00390625),
        t=4.0,
    )
    @settings(max_examples=40)
    def test_compose_pointwise(self, p, q, t):
        inner_value = q(t)
        if abs(inner_value) > 1e3:
            return
        assert p.compose(q)(t) == pytest.approx(p(inner_value), rel=1e-6, abs=1e-3)


class TestEquality:
    def test_equality_after_trim(self):
        assert Polynomial([1, 2, 1e-15]) == Polynomial([1, 2])

    def test_hash_consistent(self):
        assert hash(Polynomial([1, 2])) == hash(Polynomial([1, 2, 0]))

    def test_approx_equals(self):
        assert Polynomial([1, 2]).approx_equals(Polynomial([1 + 1e-12, 2]))
        assert not Polynomial([1, 2]).approx_equals(Polynomial([1.1, 2]))

    def test_as_polynomial(self):
        p = Polynomial([1])
        assert as_polynomial(p) is p
        assert as_polynomial(2.0) == Polynomial.constant(2.0)

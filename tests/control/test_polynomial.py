"""Unit tests for z-domain polynomial algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.control import Polynomial, as_polynomial
from repro.errors import ControlError


class TestConstruction:
    def test_coeffs_are_trimmed(self):
        p = Polynomial([0.0, 0.0, 1.0, 2.0])
        assert p.coeffs == (1.0, 2.0)
        assert p.degree == 1

    def test_zero_polynomial(self):
        assert Polynomial([0.0]).is_zero
        assert Polynomial([0, 0, 0]).is_zero

    def test_as_polynomial_scalar(self):
        assert as_polynomial(3) == Polynomial([3.0])

    def test_as_polynomial_rejects_nan(self):
        with pytest.raises(ControlError):
            as_polynomial(float("nan"))


class TestAlgebra:
    def test_addition_aligns_degrees(self):
        a = Polynomial([1.0, 2.0])       # z + 2
        b = Polynomial([1.0, 0.0, 0.0])  # z^2
        assert (a + b) == Polynomial([1.0, 1.0, 2.0])

    def test_scalar_addition(self):
        assert (Polynomial([1.0, 0.0]) + 1) == Polynomial([1.0, 1.0])

    def test_subtraction(self):
        a = Polynomial([1.0, -1.4, 0.49])
        b = Polynomial([1.0, 0.0, 0.0])
        assert (a - b) == Polynomial([-1.4, 0.49])

    def test_multiplication(self):
        # (z - 0.7)^2 = z^2 - 1.4 z + 0.49
        f = Polynomial([1.0, -0.7])
        assert (f * f).almost_equal(Polynomial([1.0, -1.4, 0.49]))

    def test_scalar_multiplication(self):
        assert (2 * Polynomial([1.0, 1.0])) == Polynomial([2.0, 2.0])

    def test_shift(self):
        assert Polynomial([1.0]).shift(2) == Polynomial([1.0, 0.0, 0.0])
        with pytest.raises(ControlError):
            Polynomial([1.0]).shift(-1)

    def test_monic(self):
        assert Polynomial([2.0, 4.0]).monic() == Polynomial([1.0, 2.0])
        with pytest.raises(ControlError):
            Polynomial([0.0]).monic()


class TestEvaluation:
    def test_horner_evaluation(self):
        p = Polynomial([1.0, -1.4, 0.49])
        assert p(0.7) == pytest.approx(0.0)
        assert p(1.0) == pytest.approx(0.09)

    def test_roots_roundtrip(self):
        roots = sorted(Polynomial([1.0, -1.4, 0.49]).roots().real.tolist())
        assert roots == pytest.approx([0.7, 0.7], abs=1e-6)

    def test_degree_zero_has_no_roots(self):
        assert Polynomial([5.0]).roots().size == 0

    def test_str_rendering(self):
        assert str(Polynomial([1.0, -1.4, 0.49])) == "1 z^2 - 1.4 z + 0.49"


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=6),
       st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=6))
def test_multiplication_commutes(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    assert (pa * pb).almost_equal(pb * pa)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=6),
       st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=6),
       st.floats(min_value=-2, max_value=2))
def test_addition_is_pointwise(a, b, z):
    pa, pb = Polynomial(a), Polynomial(b)
    lhs = (pa + pb)(z)
    rhs = pa(z) + pb(z)
    assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-6)

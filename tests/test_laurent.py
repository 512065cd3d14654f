import pytest

from alcove_hecke.laurent import ONE, V, V_INV, ZERO, LaurentPolynomial


def test_arithmetic():
    p = LaurentPolynomial({-1: 1, 1: -1})  # v^{-1} - v
    q = V + V_INV
    assert p + q == 2 * V_INV
    assert p * q == LaurentPolynomial({-2: 1, 2: -1})
    assert p - p == ZERO
    assert -p == V - V_INV
    assert (ONE + V) * (ONE - V) == ONE - V * V
    assert not ZERO
    assert p.coeff(-1) == 1 and p.coeff(5) == 0


def test_zero_coefficients_dropped():
    p = LaurentPolynomial({0: 1, 3: 0})
    assert p == ONE
    assert (V - V) == ZERO


def test_bar_and_evaluate():
    p = LaurentPolynomial({2: 3, -1: 1})
    assert p.bar() == LaurentPolynomial({-2: 3, 1: 1})
    assert p.bar().bar() == p
    assert p.evaluate(-1) == 3 - 1
    assert (V + V_INV).evaluate(-1) == -2
    with pytest.raises(ValueError):
        V_INV.evaluate(2)


def test_equality_with_ints():
    assert ONE == 1
    assert ZERO == 0
    assert LaurentPolynomial({0: 5}) == 5
    assert V != 1


def test_str():
    assert str(ZERO) == "0"
    assert str(LaurentPolynomial({0: 1, 2: -1})) == "1*v^0-1*v^2"
    assert str(LaurentPolynomial({-2: 1, 0: -3, 5: 2})) == "1*v^-2-3*v^0+2*v^5"


def test_exponent_range():
    p = LaurentPolynomial({-3: 1, 4: 2})
    assert p.min_exponent() == -3 and p.max_exponent() == 4

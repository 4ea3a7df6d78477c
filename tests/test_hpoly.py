import pytest
from hypothesis import given, strategies as st

from idop import hpoly


def poly(*coeffs: int) -> hpoly.HPoly:
    """The polynomial with these integer coefficients, lowest power first."""
    return coeffs


polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=5).map(hpoly.strip)


def test_add_cancels():
    p = poly(1, 2)
    assert hpoly.add(p, hpoly.scale(-1, p)) == ()


def test_mul():
    # (H+1)(H-1) = H^2 - 1
    assert hpoly.mul(poly(1, 1), poly(-1, 1)) == poly(-1, 0, 1)


def test_shift():
    # (H+2)^2 = H^2 + 4H + 4
    assert hpoly.shift(poly(0, 0, 1), 2) == poly(4, 4, 1)
    assert hpoly.shift(poly(3, 1), -1) == poly(2, 1)


@given(polys, st.integers(min_value=-4, max_value=4))
def test_shift_roundtrip(p, k):
    assert hpoly.shift(hpoly.shift(p, k), -k) == p


@given(polys, st.integers(min_value=-4, max_value=4), st.integers(min_value=-6, max_value=6))
def test_shift_evaluates_correctly(p, k, v):
    assert hpoly.evaluate(hpoly.shift(p, k), v) == hpoly.evaluate(p, v + k)


def test_divmod_monic():
    p = poly(1, 2, 3, 1)
    m = poly(1, 1)  # H + 1
    q, r = hpoly.divmod_monic(p, m)
    assert hpoly.add(hpoly.mul(q, m), r) == p
    assert hpoly.degree(r) < hpoly.degree(m)


def test_divmod_requires_monic():
    with pytest.raises(ValueError):
        hpoly.divmod_monic(poly(1), poly(1, 2))


@given(polys, st.integers(min_value=1, max_value=5))
def test_divmod_reconstructs(p, i):
    m = hpoly.rising_factorial(i)
    q, r = hpoly.divmod_monic(p, m)
    assert hpoly.add(hpoly.mul(m, q), r) == p
    assert hpoly.degree(r) < i


def test_rising_factorial():
    assert hpoly.rising_factorial(0) == hpoly.ONE
    assert hpoly.rising_factorial(1) == hpoly.H
    # H(H+1)(H+2) = H^3 + 3H^2 + 2H
    assert hpoly.rising_factorial(3) == poly(0, 2, 3, 1)
    assert hpoly.evaluate(hpoly.rising_factorial(4), 1) == 24

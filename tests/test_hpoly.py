from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from idop import hpoly

polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=5).map(hpoly.trim)


def test_trim_drops_trailing_zeros():
    assert hpoly.trim([1, 2, 0, 0]) == (Fraction(1), Fraction(2))
    assert hpoly.trim([0, 0]) == ()


def test_add_cancels():
    p = hpoly.trim([1, 2])
    assert hpoly.add(p, hpoly.scale(-1, p)) == ()


def test_mul():
    # (H+1)(H-1) = H^2 - 1
    assert hpoly.mul(hpoly.trim([1, 1]), hpoly.trim([-1, 1])) == hpoly.trim([-1, 0, 1])


def test_shift():
    # (H+2)^2 = H^2 + 4H + 4
    assert hpoly.shift(hpoly.trim([0, 0, 1]), 2) == hpoly.trim([4, 4, 1])
    assert hpoly.shift(hpoly.trim([3, 1]), -1) == hpoly.trim([2, 1])


@given(polys, st.integers(min_value=-4, max_value=4))
def test_shift_roundtrip(p, k):
    assert hpoly.shift(hpoly.shift(p, k), -k) == p


@given(polys, st.integers(min_value=-4, max_value=4), st.integers(min_value=-6, max_value=6))
def test_shift_evaluates_correctly(p, k, v):
    assert hpoly.evaluate(hpoly.shift(p, k), v) == hpoly.evaluate(p, v + k)


def test_divmod_monic():
    p = hpoly.trim([1, 2, 3, 1])
    m = hpoly.trim([1, 1])  # H + 1
    q, r = hpoly.divmod_monic(p, m)
    assert hpoly.add(hpoly.mul(q, m), r) == p
    assert hpoly.degree(r) < hpoly.degree(m)


def test_divmod_requires_monic():
    with pytest.raises(ValueError):
        hpoly.divmod_monic(hpoly.trim([1]), hpoly.trim([1, 2]))


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
    assert hpoly.rising_factorial(3) == hpoly.trim([0, 2, 3, 1])
    assert hpoly.evaluate(hpoly.rising_factorial(4), 1) == 24

"""The integer core: coefficients stay `int` unless a non-integer was input.

Integer operands must give integer canonical forms, integer matrix entries and
integer reducer rows, so a stray `Fraction(...)` coercion fails here rather
than showing up only as a slowdown.  Non-integer inputs stay exact, and floats
are rejected where values enter.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from idop import hpoly
from idop.element import Element1, from_atoms
from idop.expr import element1_to_json
from idop.oracle import (
    RowReducer,
    consistent,
    to_matrix,
    to_matrix_n,
)
from idop.tensor import BnElement, ElementN, apply_n
from conftest import elements1, elements_n

H = Element1.from_generator("H")
X = Element1.from_generator("x")


def all_int(values) -> bool:
    return all(type(c) is int for c in values)


def coefficients(a) -> list:
    if isinstance(a, Element1):
        return [c for _, c in a.atoms()]
    return list(a.terms.values())


int_polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=5).map(hpoly.strip)
shifts = st.integers(min_value=-4, max_value=4)


class TestIntegerProducts:
    @given(int_polys, int_polys, shifts)
    def test_hpoly(self, p, q, k):
        assert all_int(hpoly.mul(p, q))
        assert all_int(hpoly.add(p, q))
        assert all_int(hpoly.shift(p, k))
        assert type(hpoly.evaluate(p, k)) is int
        quo, rem = hpoly.divmod_monic(p, hpoly.rising_factorial(abs(k)))
        assert all_int(quo + rem)

    @settings(max_examples=60, deadline=None)
    @given(elements1(), elements1())
    def test_rank1(self, a, b):
        assert all_int(coefficients(a * b))

    @settings(max_examples=40, deadline=None)
    @given(elements_n(n=2), elements_n(n=2))
    def test_rank2(self, a, b):
        assert all_int(coefficients(a * b))

    @settings(max_examples=25, deadline=None)
    @given(elements_n(n=3), elements_n(n=3))
    def test_rank3(self, a, b):
        assert all_int(coefficients(a * b))


class TestIntegerOracle:
    @settings(max_examples=40, deadline=None)
    @given(elements1())
    def test_to_matrix(self, a):
        assert all(all_int(row) for row in to_matrix(a, 10).entries)

    @settings(max_examples=25, deadline=None)
    @given(elements_n(n=2))
    def test_to_matrix_n(self, a):
        assert all(all_int(row) for row in to_matrix_n(a, 4).entries)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(elements1(), elements1()), min_size=1, max_size=6))
    def test_reducer_rows(self, pairs):
        red = RowReducer()
        for a, b in pairs:
            red.add(dict((a * b).atoms()))
        red.add({("v", 0, 0): Fraction(1, 2), ("v", 1, 0): Fraction(2, 3)})
        assert all(all_int(row.values()) for row in red._rows)


class TestNormalization:
    def test_integral_fraction_is_stored_as_int(self):
        a = Element1({0: [Fraction(2)]})
        b = Element1({0: [2]})
        assert a == b
        assert str(a) == str(b)
        assert element1_to_json(a) == element1_to_json(b)
        assert all_int(coefficients(a))

    def test_bool_reads_as_int(self):
        a = Element1({0: [True]})
        assert a == Element1.one()
        assert all_int(coefficients(a))

    def test_exact(self):
        assert type(hpoly.exact(Fraction(6, 3))) is int
        assert hpoly.exact(Fraction(1, 2)) == Fraction(1, 2)

    def test_fixed_width_integers_become_int(self):
        np = pytest.importorskip("numpy")
        assert type(hpoly.exact(np.int64(3))) is int
        big = Element1({0: [np.int64(2**40)]})
        assert all_int(coefficients(big * big))
        assert coefficients(big * big) == [2**80]

    def test_non_integer_stays_exact_and_matches_oracle(self):
        a = H.scale(Fraction(3, 2))
        prod = a * X
        # (3/2 H) * I*H = I * 3/2 (H+1) H
        assert prod == Element1({1: [0, Fraction(3, 2), Fraction(3, 2)]})
        assert str(prod) == "3/2*I*H + 3/2*I*H^2"
        assert consistent(a, X, 12)

    @settings(max_examples=40, deadline=None)
    @given(
        elements1(),
        elements1(),
        st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
    )
    def test_rational_scaling_matches_oracle(self, a, b, q):
        assert consistent(a.scale(q), b, 24)


class TestFloatsRejected:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: hpoly.exact(0.5),
            lambda: Element1({2: [1, 0.5]}),
            lambda: Element1({0: [0.1]}),
            lambda: Element1(fpart={(0, 0): 0.25}),
            lambda: Element1.one().scale(2.0),
            lambda: from_atoms([(("v", 0, 0), 1.5)]),
            lambda: ElementN(2, {(("v", 0, 0), ("v", 0, 0)): 0.5}),
            lambda: ElementN.one(2).scale(0.5),
            lambda: BnElement.one(1).scale(0.5),
            lambda: BnElement(1, {((0, 0),): 0.5}),
            lambda: RowReducer().add({0: 1, 1: 0.5}),
            lambda: apply_n(Element1.one(), {(0,): 0.5}),
            lambda: apply_n(ElementN.one(2), {(0, 0): 0.5}),
            lambda: apply_n(ElementN.zero(2), {(0, 0): 0.5}),
        ],
    )
    def test_type_error(self, build):
        with pytest.raises(TypeError):
            build()

"""Surface syntax: grammar, precedence, error positions, round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from idop.element import Element1
from idop.expr import (
    MAX_EXPONENT,
    MAX_NESTING,
    ExprSyntaxError,
    _Poly,
    parse_element,
    parse_poly,
    format_poly,
)
from idop.tensor import ElementN, lift, to_element1
from conftest import elements1, elements_n

D = Element1.from_generator("d")
I = Element1.from_generator("I")
H = Element1.from_generator("H")


class TestParseElement:
    def test_relation(self):
        assert to_element1(parse_element("d*I", 1)) == Element1.one()

    def test_eunit_appears(self):
        got = to_element1(parse_element("I*d", 1))
        assert got == Element1.one() - Element1(fpart={(0, 0): 1})

    def test_x_canonicalizes(self):
        assert to_element1(parse_element("x", 1)) == I * H

    def test_precedence(self):
        # ^ binds tighter than *, which binds tighter than +/-
        assert parse_element("d*I^2", 1) == parse_element("d*(I^2)", 1)
        assert parse_element("1+2*3", 1) == ElementN.one(1).scale(7)

    def test_left_associative_products(self):
        assert parse_element("I*d*I", 1) == parse_element("(I*d)*I", 1)

    def test_rationals(self):
        assert parse_element("2/3*H", 1) == lift(1, Fraction(2, 3) * H, 1)
        assert parse_element("-d", 1) == lift(1, -D, 1)
        assert parse_element("1 - 2/3", 1) == ElementN.one(1).scale(Fraction(1, 3))

    def test_indices(self):
        a = parse_element("e(0,0)_1*I_2", 2)
        assert a == lift(1, Element1(fpart={(0, 0): 1}), 2) * lift(2, I, 2)
        assert parse_element("x2", 2) == parse_element("x_2", 2)

    def test_index_required_at_higher_rank(self):
        with pytest.raises(ExprSyntaxError):
            parse_element("x", 2)

    def test_index_out_of_range(self):
        with pytest.raises(ExprSyntaxError):
            parse_element("x_3", 2)
        with pytest.raises(ExprSyntaxError):
            parse_element("x_0", 1)

    def test_juxtaposition_is_not_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse_element("2 x", 1)
        with pytest.raises(ExprSyntaxError):
            parse_element("I d", 1)

    def test_error_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_element("I*?", 1)
        assert exc.value.pos == 2

    @pytest.mark.parametrize(
        "parse, text, n, message, pos",
        [
            (parse_element, "x²", 1, "unexpected character '²'", 1),
            (parse_element, "x٣", 3, "unexpected character '٣'", 1),  # not x_3
            (parse_element, "e(0,0)_²", 1, "expected digits after '_'", 6),
            (parse_poly, "x²", 1, "unexpected character '²'", 1),
        ],
    )
    def test_digits_are_ascii(self, parse, text, n, message, pos):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text, n)
        assert str(exc.value) == f"{message} (at position {pos})"
        assert exc.value.pos == pos

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse_element("(I*d", 1)

    def test_zero_denominator(self):
        with pytest.raises(ExprSyntaxError):
            parse_element("1/0", 1)

    def test_nesting_budget(self):
        deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_element(deep, 1) == parse_element("x", 1)
        with pytest.raises(ExprSyntaxError) as exc:
            parse_element("I*(" + deep + ")", 1)
        assert exc.value.pos == 2 + MAX_NESTING

    def test_exponent_budget(self):
        assert MAX_EXPONENT == 60  # admits (x+d)^60, the largest power measured
        h60 = lift(1, H.power(60), 1)
        assert parse_element("H^60", 1) == h60
        assert parse_element("((H^2)^3)^10", 1) == h60
        assert parse_element("H^60*H^60", 1) == h60 * h60  # not nested
        assert parse_element("(H^60)^0 + (H^0)^60", 1) == ElementN.one(1).scale(2)
        refused = [
            ("H^61", 2),
            ("((H^2)^3)^11", 10),
            ("(H^60)^60", 7),
            ("(1 + x^60)^2", 11),
            ("(H^0)^61", 6),  # an exponent 0 counts as 1
        ]
        for text, pos in refused:
            with pytest.raises(ExprSyntaxError, match="exceeds the budget 60") as exc:
                parse_element(text, 1)
            assert exc.value.pos == pos
        with pytest.raises(ExprSyntaxError, match="exponent product 61"):
            parse_poly("x^61", 1)

    def test_long_flat_input(self):
        assert parse_element("-" + "+".join(["d*I"] * 2000), 1) == ElementN.one(1).scale(1998)
        assert parse_element("*".join(["d*I"] * 2000), 1) == ElementN.one(1)


class TestRoundTrip:
    @given(elements1())
    @settings(max_examples=80, deadline=None)
    def test_rank1(self, a):
        assert to_element1(parse_element(str(a), 1)) == a

    @given(elements_n())
    @settings(max_examples=60, deadline=None)
    def test_rank2(self, a):
        assert parse_element(str(a), 2) == a


class TestParsePoly:
    def test_basic(self):
        assert parse_poly("x^2 + 3", 1) == {(2,): Fraction(1), (0,): Fraction(3)}

    def test_two_variables(self):
        assert parse_poly("x1*x2^2 - 1/2", 2) == {
            (1, 2): Fraction(1),
            (0, 0): Fraction(-1, 2),
        }

    def test_long_flat_sum(self):
        assert parse_poly(" - ".join(["x"] * 2000), 1) == {(1,): Fraction(-1998)}

    def test_bare_x_at_rank1(self):
        assert parse_poly("x", 1) == {(1,): Fraction(1)}

    def test_rejects_operators(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly("d*x", 1)
        with pytest.raises(ExprSyntaxError):
            parse_poly("e(0,0)", 1)

    def test_format(self):
        assert format_poly({(3,): Fraction(1, 3)}, 1) == "1/3*x^3"
        assert format_poly({(1, 2): Fraction(1), (0, 0): Fraction(-2)}, 2) == "-2 + x1*x2^2"
        assert format_poly({}, 1) == "0"

    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n),
            )
        ),
        st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_monomial_power_is_the_k_fold_product(self, rank_exps, c, k):
        n, exps = rank_exps
        base = _Poly(n, {tuple(exps): c})
        want = _Poly(n, {(0,) * n: 1})
        for _ in range(k):
            want = want * base
        got = parse_poly(f"({format_poly(base.terms, n)})^{k}", n)
        assert got == want.terms
        assert [type(v) for v in got.values()] == [type(v) for v in want.terms.values()]

    def test_long_product_of_monomial_powers(self):
        # each x^60 is raised in one step, not by 60 products
        assert parse_poly("*".join(["x*x^60"] * 20000), 1) == {(1220000,): 1}

    def test_poly_round_trip(self):
        p = {(1, 2): Fraction(5), (0, 0): Fraction(-1, 2), (3, 0): Fraction(1)}
        assert parse_poly(format_poly(p, 2), 2) == p

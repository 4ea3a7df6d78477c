"""The refusal contract: each kind of input from outside the library goes
through one checker, which raises a one-line TypeError or ValueError that
names the argument."""

import pytest

from idop.element import Element1, from_atoms
from idop.expr import parse_element, parse_element_list, parse_poly
from idop.oracle import RowReducer, TruncMatrix, consistent
from idop.structure import (
    bimodule_filtration_dims,
    in_a_span,
    in_f_span,
    in_l_span,
    multiplicity_report,
)
from idop.tensor import BnElement, ElementN, apply_n, lift
from idop.verify import run_suites

X = Element1.from_generator("x")
X2 = lift(1, X, 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        # term maps: one mapping check, then _Terms.__init__
        (lambda: Element1(5), TypeError, "graded must be a mapping, got int 5"),
        (lambda: Element1(fpart=5), TypeError, "fpart must be a mapping, got int 5"),
        (lambda: Element1([(0, [1])]), TypeError, "graded must be a mapping, got list [(0, [1])]"),
        (lambda: Element1({0: 5}), TypeError, "graded[0] must be a coefficient sequence, got int 5"),
        (
            lambda: Element1({2: {1: 3}}),
            TypeError,
            "graded[2] must be a coefficient sequence, got dict {1: 3}",
        ),
        (
            lambda: Element1({0: b"ab"}),
            TypeError,
            "graded[0] must be a coefficient sequence, got bytes b'ab'",
        ),
        (
            lambda: Element1({0: "ab"}),
            TypeError,
            "graded[0] must be a coefficient sequence, got str 'ab'",
        ),
        (lambda: Element1(fpart={5: 1}), TypeError, "fpart key must be an (s, t) pair, got int 5"),
        (
            lambda: Element1(fpart={(1, 2, 3): 1}),
            ValueError,
            "fpart key must be an (s, t) pair, got tuple (1, 2, 3)",
        ),
        (lambda: ElementN(2, 5), TypeError, "terms must be a mapping, got int 5"),
        (lambda: ElementN(1, {5: 1}), TypeError, "terms key must be a tuple, got int 5"),
        (lambda: BnElement(1, {"d": 1}), TypeError, "terms key must be a tuple, got str 'd'"),
        (lambda: ElementN(2, []), TypeError, "terms must be a mapping, got list []"),
        (
            lambda: ElementN(2, {(("v", 0, 0),): 1}),
            ValueError,
            "key (('v', 0, 0),) has length 1, expected rank 2",
        ),
        (lambda: BnElement(1, 5), TypeError, "terms must be a mapping, got int 5"),
        (lambda: apply_n(X, [(1,)]), TypeError, "p must be a mapping, got list [(1,)]"),
        (
            lambda: apply_n(Element1.one(), {0: 1}),
            TypeError,
            "p key must be an exponent tuple, got int 0",
        ),
        (
            lambda: from_atoms(5),
            TypeError,
            "pairs must be (atom, coefficient) pairs, got int ('int' object is not iterable)",
        ),
        (
            lambda: from_atoms([(("v", 0, 0),)]),
            ValueError,
            "pairs must be (atom, coefficient) pairs, got list "
            "(not enough values to unpack (expected 2, got 1))",
        ),
        # ranks: tensor.check_rank
        (lambda: ElementN(0), ValueError, "rank must be positive, got 0"),
        (lambda: BnElement(-1), ValueError, "rank must be positive, got -1"),
        # operands: check_operator, inside an iterable of them
        (
            lambda: bimodule_filtration_dims([1], 4),
            TypeError,
            "generators must be an operator, got int 1",
        ),
        (
            lambda: bimodule_filtration_dims(parse_element("1"), 2),
            TypeError,
            "generators must be an iterable of operators, got ElementN 1",
        ),
        (
            lambda: bimodule_filtration_dims(5, 2),
            TypeError,
            "generators must be an iterable of operators, got int 5",
        ),
        # rank-1 operands: check_rank1
        (lambda: in_a_span(X2), ValueError, "expected rank 1, got rank 2"),
        (lambda: in_f_span(X2), ValueError, "expected rank 1, got rank 2"),
        (lambda: in_l_span(X2), ValueError, "expected rank 1, got rank 2"),
        # indices: element._index
        (
            lambda: run_suites(["relations"], samples=1.5),
            TypeError,
            "samples must be an integer, got float 1.5",
        ),
        (lambda: consistent(X, X, 1.5), TypeError, "N must be an integer, got float 1.5"),
        (
            lambda: multiplicity_report(None),
            TypeError,
            "dims must be a sequence of integers, got NoneType None",
        ),
        # a set or a mapping has no order of index
        (
            lambda: multiplicity_report({2, 7, 15}),
            TypeError,
            "dims must be a sequence of integers, got set {2, 7, 15}",
        ),
        (
            lambda: multiplicity_report({1: 2, 3: 4}),
            TypeError,
            "dims must be a sequence of integers, got dict {1: 2, 3: 4}",
        ),
        (lambda: consistent(X, X, 30.5), TypeError, "N must be an integer, got float 30.5"),
        (
            lambda: bimodule_filtration_dims([Element1.one()], -1),
            ValueError,
            "i_max must be nonnegative, got -1",
        ),
        # exponents: ElementN.power, before the first product
        (
            lambda: parse_element("x+d").power(61),
            ValueError,
            "exponent 61 exceeds the budget 60",
        ),
        (
            lambda: parse_element("x+d").power(10**9),
            ValueError,
            "exponent 1000000000 exceeds the budget 60",
        ),
        # text: expr._tokenize
        (lambda: parse_element(5), TypeError, "text must be a string, got int 5"),
        (lambda: parse_poly(None), TypeError, "text must be a string, got NoneType None"),
        (lambda: parse_element_list(5), TypeError, "text must be a string, got int 5"),
        # rows: RowReducer.add and add_unit, checked only where they would fail
        (
            lambda: RowReducer().add(5),
            TypeError,
            "row must be a mapping or (key, value) pairs, got int ('int' object is not iterable)",
        ),
        (
            lambda: RowReducer().add([(1,)]),
            TypeError,
            "row must be a mapping or (key, value) pairs, got list "
            "(dictionary update sequence element #0 has length 1; 2 is required)",
        ),
        (
            lambda: RowReducer().add("ab"),
            TypeError,
            "row must be a mapping or (key, value) pairs, got str "
            "(dictionary update sequence element #0 has length 1; 2 is required)",
        ),
        (
            lambda: RowReducer().add({0: 1, "a": 1}),
            TypeError,
            "row keys must be comparable with each other and with stored keys "
            "('<' not supported between instances of 'str' and 'int')",
        ),
        (
            lambda: RowReducer().add({None: 1}),
            TypeError,
            "row key must not be None: add returns None for a dependent row",
        ),
        (
            lambda: RowReducer().add_unit([0]),
            TypeError,
            "k must be a hashable row key, got list [0]",
        ),
        (
            lambda: RowReducer().add_unit(None),
            TypeError,
            "k must not be None: add_unit returns None for a dependent row",
        ),
        # matrices: + is not defined, and a non-matrix operand of @ is NotImplemented
        (
            lambda: TruncMatrix(2) + 5,
            TypeError,
            "unsupported operand type(s) for +: 'TruncMatrix' and 'int'",
        ),
        (
            lambda: TruncMatrix(2) @ 5,
            TypeError,
            "unsupported operand type(s) for @: 'TruncMatrix' and 'int'",
        ),
        (lambda: TruncMatrix(2) @ TruncMatrix(3), ValueError, "matrix shape mismatch"),
    ],
)
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_split_referees_can_say_no():
    E00, I = Element1(fpart={(0, 0): 1}), Element1.from_generator("I")
    assert not in_a_span(E00) and not in_a_span(I)
    assert not in_l_span(E00) and not in_l_span(X)
    assert not in_f_span(I)


def test_a_scalar_factor_commutes():
    # the scalar branch of the product, from either side
    assert X * 3 == 3 * X == X.scale(3)

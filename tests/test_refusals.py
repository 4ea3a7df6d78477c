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
        (lambda: BnElement(1, 5), TypeError, "terms must be a mapping, got int 5"),
        (lambda: apply_n(X, [(1,)]), TypeError, "p must be a mapping, got list [(1,)]"),
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
        (lambda: consistent(X, X, 30.5), TypeError, "N must be an integer, got float 30.5"),
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
        # matrices: a non-matrix operand of + or @ is NotImplemented
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
    ],
)
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message

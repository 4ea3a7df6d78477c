"""The A/F/L split, socle classification, census, kernel witness and the
exact dimension engine."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import idop.element as element
import idop.structure as structure
from idop.element import Element1
from idop.oracle import RowReducer, to_matrix
from idop.sampling import random_nonzero_element_n, random_weyl_word
from idop.structure import (
    MultiplicityReport,
    bimodule_filtration_dims,
    census,
    in_a_span,
    in_f_span,
    in_l_span,
    kernel_witness_check,
    multiplicity_report,
    q_dims,
    socle_level,
    socle_member,
    split,
)
from idop.tensor import ElementN, lift
from idop.verify import FILTRATION_DIMS_ONE_I
from conftest import coefficients, elements1, nonzero_elements1

D = Element1.from_generator("d")
I = Element1.from_generator("I")
H = Element1.from_generator("H")
X = Element1.from_generator("x")
E00 = Element1(fpart={(0, 0): 1})


def e(s, t):
    return Element1(fpart={(s, t): 1})


TWO_GENERATORS = [
    3 * D.power(3) * H.power(3) + 8 * I.power(2) * H.power(2) - 5 * e(4, 5),
    8 * e(2, 5) - e(0, 5),
]


class TestSplit:
    def test_integral_is_complement(self):
        parts = split(I)
        assert parts.a_part.is_zero() and parts.f_part.is_zero()
        assert parts.l_part == I

    def test_x_is_weyl(self):
        parts = split(X)
        assert parts.a_part == X
        assert parts.f_part.is_zero() and parts.l_part.is_zero()

    def test_low_degree_remainder(self):
        a = Element1({2: [0, 1]})  # I^2 H: degree 1 < 2, entirely in the complement
        parts = split(a)
        assert parts.l_part == a
        assert parts.a_part.is_zero()

    def test_mixed(self):
        a = X.power(2) + I.power(2) * H + E00
        parts = split(a)
        assert parts.a_part == X.power(2)
        assert parts.l_part == I.power(2) * H
        assert parts.f_part == E00

    @given(elements1())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_and_spans(self, a):
        parts = split(a)
        assert parts.total() == a
        assert in_a_span(parts.a_part)
        assert in_f_span(parts.f_part)
        assert in_l_span(parts.l_part)

    @given(elements1())
    @settings(max_examples=30, deadline=None)
    def test_oracle_re_sum(self, a):
        N = 16
        total = to_matrix(split(a).a_part, N) + to_matrix(split(a).f_part, N) + to_matrix(
            split(a).l_part, N
        )
        assert total == to_matrix(a, N)


class TestSocle:
    def test_levels(self):
        assert socle_level(lift(1, I, 2) * lift(2, I, 2)) == 2
        assert socle_level(lift(2, I, 2)) == 1
        assert socle_level(lift(1, E00, 2) * lift(2, X, 2)) == 0

    def test_zero_is_undefined(self):
        with pytest.raises(ValueError):
            socle_level(ElementN.zero(2))

    def test_membership(self):
        assert socle_member(lift(2, I, 2), 1)
        assert not socle_member(lift(1, I, 2) * lift(2, I, 2), 1)
        assert socle_member(ElementN.zero(2), 0)

    def test_cancellation_is_respected(self):
        # I^2 H(H+1) = x^2 is Weyl even though the atoms I^2 H^t are not
        a = lift(1, I.power(2) * (H * H + H), 2)
        assert socle_level(a) == 0

    def test_monotone_under_weyl_products(self):
        rng = random.Random(1)
        for _ in range(150):
            u = random_weyl_word(rng, 2)
            a = random_nonzero_element_n(rng, 2)
            v = random_weyl_word(rng, 2)
            prod = u * a * v
            if not prod.is_zero():
                assert socle_level(prod) <= socle_level(a)


class TestCensus:
    def test_mixed_element(self):
        a = ElementN.one(2) + lift(1, E00, 2) * lift(2, I, 2)
        assert census(a) == {("A", "A"), ("F", "L")}

    def test_zero(self):
        assert census(ElementN.zero(2)) == set()

    def test_full_grid(self):
        rep = Element1.one() + E00 + I
        nine = lift(1, rep, 2) * lift(2, rep, 2)
        assert len(census(nine)) == 9

    def test_additive_bound(self):
        rng = random.Random(2)
        for _ in range(50):
            a = random_nonzero_element_n(rng, 2)
            b = random_nonzero_element_n(rng, 2)
            assert census(a + b) <= census(a) | census(b)


class TestQDims:
    def test_first(self):
        assert q_dims(0) == [1]

    def test_closed_form(self):
        assert q_dims(2) == [1, 3, 6]
        got = q_dims(10)
        assert got[10] == 66
        assert got == [(i + 1) * (i + 2) // 2 for i in range(11)]


class TestKernelWitness:
    def test_base_case(self):
        assert kernel_witness_check(0, 0, 0, 1) == (True, True)

    def test_mismatched_column(self):
        h_diff = lift(1, H, 2) - lift(2, H, 2)
        e = ElementN(2, {(("e", 0, 0), ("e", 0, 1)): 1})
        assert e * h_diff == -e

    def test_small_grid(self):
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert kernel_witness_check(i, j, k, j)[0]


def brute_filtration_dims(generators, i_max):
    """The filtration by its definition: the rank of every word x^a d^b g x^c d^e
    with a+b+c+e <= i, one level at a time."""
    xpow, dpow = [Element1.one()], [Element1.one()]
    for _ in range(i_max):
        xpow.append(xpow[-1] * X)
        dpow.append(dpow[-1] * D)
    words = [[xpow[a] * dpow[k - a] for a in range(k + 1)] for k in range(i_max + 1)]
    red = RowReducer()
    dims = []
    for i in range(i_max + 1):
        for j in range(i + 1):
            for left in words[j]:
                for g in generators:
                    lg = left * g
                    for right in words[i - j]:
                        red.add((lg * right).support_vector())
        dims.append(red.rank)
    return dims


@pytest.fixture
def fresh_columns(monkeypatch):
    """An empty column registry for one test; the process-wide one is put back after."""
    monkeypatch.setattr(structure, "_COLUMNS", {})
    monkeypatch.setattr(structure, "_ATOMS", [])
    monkeypatch.setattr(structure, "_MOVE_TABLES", ({}, {}, {}, {}))


def count_rows_added(monkeypatch):
    """Count RowReducer.add calls; the returned function reads and resets the count."""
    calls = 0
    add = RowReducer.add

    def counting_add(self, row):
        nonlocal calls
        calls += 1
        return add(self, row)

    def read():
        nonlocal calls
        n, calls = calls, 0
        return n

    monkeypatch.setattr(RowReducer, "add", counting_add)
    return read


@st.composite
def generator_sets(draw):
    """1-3 nonzero generators; the last may repeat a scaled or summed earlier one."""
    gens = draw(st.lists(nonzero_elements1(), min_size=1, max_size=2))
    if draw(st.booleans()):
        extra = draw(coefficients) * gens[0]
        if len(gens) == 2:
            extra = extra + gens[1]
        if not extra.is_zero():
            gens.append(extra)
    return gens


class TestFiltrationDims:
    @given(generator_sets(), st.integers(min_value=0, max_value=6))
    @example([I, 2 * I], 6)
    @example([Element1.one(), X, I * H], 6)
    @example([D.power(2) * H - 3 * E00, I * H.power(2)], 6)
    # extensions restricted to the moves that keep a word normal, at the index cap
    @example([I, E00], 16)
    @example([D * H, I.power(2)], 16)
    @example([D * H.power(2) + 2 * e(1, 2)], 16)
    @settings(max_examples=40, deadline=None)
    def test_matches_word_enumeration(self, gens, i_max):
        assert bimodule_filtration_dims(gens, i_max) == brute_filtration_dims(gens, i_max)

    def test_rows_added_per_level(self, monkeypatch):
        # only the elements kept at the previous level are extended, and only
        # by the moves that keep their words x^a d^b g x^c d^e normal
        calls = count_rows_added(monkeypatch)
        dims = bimodule_filtration_dims([Element1.one(), I], 16)
        assert dims[:15] == FILTRATION_DIMS_ONE_I
        assert calls() == 490
        assert bimodule_filtration_dims([E00], 16)[-1] == 153
        assert calls() == 170
        # each move runs over all fresh elements before the next move does, so
        # that elements allowing few extensions are kept first; running all
        # moves of one element before the next element's would add 366 rows
        assert bimodule_filtration_dims(TWO_GENERATORS, 8)[-1] == 278
        assert calls() == 353

    def test_column_registry_state_does_not_change_results(self, monkeypatch, fresh_columns):
        # the same dimensions and rows added on a fresh, a warm and a just-reset
        # registry, also for generators whose atoms it has not seen yet
        calls = count_rows_added(monkeypatch)
        runs = [
            ([Element1.one(), I], 16),
            ([E00], 16),
            (TWO_GENERATORS, 8),
            ([D.power(5) * H.power(2) - e(6, 1)], 10),
            ([I.power(7) + 4 * e(9, 0), D.power(4) * H], 9),
        ]

        def results(order=1):
            return [(bimodule_filtration_dims(g, i_max), calls()) for g, i_max in runs[::order]]

        fresh = []
        for gens, i_max in runs:
            structure._reset_columns()
            fresh.append((bimodule_filtration_dims(gens, i_max), calls()))
        structure._reset_columns()
        bimodule_filtration_dims(runs[-1][0], 6)
        calls()
        # warm, with columns numbered in orders that the fresh runs never saw
        assert results(-1) == fresh[::-1]
        assert results() == fresh
        monkeypatch.setattr(structure, "COLUMN_CAP", len(structure._ATOMS))
        assert results() == fresh  # the first call clears the registry

    @given(
        nonzero_elements1(),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
    )
    @example(I * H + e(1, 2), Fraction(1, 2))
    @example(D.power(3) * H - 3 * e(0, 2) + e(4, 0), Fraction(-2, 3))
    @settings(max_examples=80, deadline=None)
    def test_row_moves_match_element1_products(self, k, scale):
        k = k.scale(scale)
        products = (X * k, D * k, k * D, k * X)  # moves 0, 1, 2, 3
        for m, product in enumerate(products):
            assert structure._move(structure._row(k), m) == structure._row(product)

    def test_capped_atom_table(self, monkeypatch, fresh_columns):
        # the registry may outgrow its cap within a call; the next call clears it
        monkeypatch.setattr(structure, "COLUMN_CAP", 4)
        assert bimodule_filtration_dims([Element1.one(), I], 8) == FILTRATION_DIMS_ONE_I[:9]
        assert len(structure._ATOMS) > 4
        assert bimodule_filtration_dims([E00], 0) == [1]
        assert structure._ATOMS == [("e", 0, 0)]
        assert structure._COLUMNS == {("e", 0, 0): 0}
        assert not any(structure._MOVE_TABLES)
        assert bimodule_filtration_dims([Element1.one(), I], 8) == FILTRATION_DIMS_ONE_I[:9]

    def test_word_enumeration_uses_element1_products(self, monkeypatch, fresh_columns):
        # the reference shares no atom products with the engine it checks
        def unused(*args):
            raise AssertionError("atom products were used")

        monkeypatch.setattr(structure, "_generator_product", unused)
        monkeypatch.setattr(element, "atom_mul", unused)
        products = 0
        mul = Element1.__mul__

        def counting_mul(a, b):
            nonlocal products
            products += 1
            return mul(a, b)

        monkeypatch.setattr(Element1, "__mul__", counting_mul)
        assert brute_filtration_dims([Element1.one(), I], 4) == FILTRATION_DIMS_ONE_I[:5]
        assert products > 0
        with pytest.raises(AssertionError, match="atom products"):
            bimodule_filtration_dims([Element1.one(), I], 1)

    def test_e00_generator(self):
        dims = bimodule_filtration_dims([E00], 6)
        assert dims == [(i + 1) * (i + 2) // 2 for i in range(7)]

    def test_unit_generator(self):
        dims = bimodule_filtration_dims([Element1.one()], 6)
        assert dims == [(i + 1) * (i + 2) // 2 for i in range(7)]

    def test_monotone_and_order_invariant(self):
        # every order and sign of {1, I} spans the same filtration
        want = FILTRATION_DIMS_ONE_I[:9]
        for s1, s2 in itertools.product((1, -1), repeat=2):
            for gens in itertools.permutations([Element1.one().scale(s1), I.scale(s2)]):
                assert bimodule_filtration_dims(list(gens), 8) == want
        assert all(want[i] <= want[i + 1] for i in range(len(want) - 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            bimodule_filtration_dims([], 3)
        with pytest.raises(ValueError):
            bimodule_filtration_dims([Element1.zero()], 3)
        with pytest.raises(ValueError):
            bimodule_filtration_dims([Element1.one()], 17)
        for i_max in (2.5, "3"):
            with pytest.raises(TypeError, match="^i_max must be an integer, got "):
                bimodule_filtration_dims([Element1.one()], i_max)
        assert bimodule_filtration_dims([Element1.one()], True) == [1, 3]


class TestMultiplicityReport:
    def test_quadratic_multiplicity_one(self):
        dims = [(i + 1) * (i + 2) // 2 for i in range(11)]
        rep = multiplicity_report(dims)
        assert rep == MultiplicityReport(degree=2, second_difference=1, stable_from=0)

    def test_constant(self):
        rep = multiplicity_report([4] * 8)
        assert rep.degree == 0
        assert rep.stable_from == 0
        assert rep.second_difference == 0

    def test_linear(self):
        rep = multiplicity_report([3 * i + 1 for i in range(8)])
        assert rep.degree == 1
        assert rep.second_difference == 0

    def test_inconclusive(self):
        assert multiplicity_report([1, 2, 4, 8, 16, 32, 64]) is None
        assert multiplicity_report([1, 2]) is None

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every assertion is exact (rational arithmetic throughout); the stated runtime
budgets are asserted as well.  Randomized criteria use fixed seeds so the run
is reproducible.
"""

import random
import time
from fractions import Fraction

from idop.element import Element1
from idop.oracle import consistent, elementary_matrix, to_matrix, to_matrix_monomial
from idop.sampling import (
    random_element1,
    random_element_n,
    random_nonzero_element_n,
    random_weyl_word,
)
from idop.structure import (
    bimodule_filtration_dims,
    census,
    in_a_span,
    in_f_span,
    in_l_span,
    kernel_witness_check,
    multiplicity_report,
    q_dims,
    socle_level,
    split,
)
from idop.tensor import BnElement, lift, project_bn
from idop.verify import FILTRATION_DIMS_ONE_I

D = Element1.from_generator("d")
I = Element1.from_generator("I")
H = Element1.from_generator("H")
X = Element1.from_generator("x")
ONE = Element1.one()


def e(s, t):
    return Element1(fpart={(s, t): 1})


class _Timer:
    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.2f}s) {self.label}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_relations():
    with _Timer(1, "defining relations, e-calculus and multiplication table", 1.0):
        assert D * I == ONE
        assert H * I - I * H == I
        assert H * D - D * H == -D
        p = ONE - I * D
        assert H * p == p and p * H == p
        for i in range(4):
            for j in range(4):
                assert I.power(i) * D.power(j) - I.power(i + 1) * D.power(j + 1) == e(i, j)
                for k in range(4):
                    for l in range(4):
                        want = e(i, l) if j == k else Element1.zero()
                        assert e(i, j) * e(k, l) == want
        assert I * H == (H - ONE) * I
        assert H * D == D * (H - ONE)
        for i in range(4):
            for j in range(4):
                assert I * e(i, j) == e(i + 1, j)
                assert e(i, j) * I == (e(i, j - 1) if j > 0 else Element1.zero())
                assert D * e(i, j) == (e(i - 1, j) if i > 0 else Element1.zero())
                assert e(i, j) * D == e(i, j + 1)
            assert H * e(i, i) == (i + 1) * e(i, i)
            assert e(i, i) * H == (i + 1) * e(i, i)
        assert I * D == ONE - e(0, 0)
        assert X == I * H
        assert X * X == I.power(2) * (H * H + H)


def test_criterion_2_oracle_equivalence():
    with _Timer(2, "500 seeded random products match the matrix oracle at N=24", 30.0):
        rng = random.Random(0)
        for _ in range(500):
            a = random_element1(rng)
            b = random_element1(rng)
            assert consistent(a, b, 24)


def test_criterion_3_eunit_scalar():
    with _Timer(3, "e(i,j) = (j!/i!) E(i,j) in the monomial basis for i,j <= 8", 1.0):
        import math

        N = 10
        for i in range(9):
            for j in range(9):
                want = elementary_matrix(i, j, N).scale(
                    Fraction(math.factorial(j), math.factorial(i))
                )
                assert to_matrix_monomial(e(i, j), N) == want


def test_criterion_4_q_dims():
    with _Timer(4, "q_dims(12) equals (i+1)(i+2)/2", 1.0):
        assert q_dims(12) == [(i + 1) * (i + 2) // 2 for i in range(13)]


def test_criterion_5_f_multiplicity():
    with _Timer(5, "e(0,0) bimodule: dims (i+1)(i+2)/2, degree 2, multiplicity 1", 10.0):
        dims = bimodule_filtration_dims([e(0, 0)], 10)
        assert dims == [(i + 1) * (i + 2) // 2 for i in range(11)]
        rep = multiplicity_report(dims)
        assert rep is not None
        assert rep.degree == 2
        assert rep.second_difference == 1


def test_criterion_6_algebra_multiplicity_three():
    with _Timer(6, "{1, I} bimodule: frozen dims table, second difference 3", 300.0):
        i_max = len(FILTRATION_DIMS_ONE_I) - 1
        assert i_max <= 14
        dims = bimodule_filtration_dims([ONE, I], i_max)
        assert dims == FILTRATION_DIMS_ONE_I
        rep = multiplicity_report(dims)
        assert rep is not None
        assert rep.degree == 2
        assert rep.second_difference == 3
        # stabilized over at least 4 consecutive second differences
        assert (len(dims) - 2) - rep.stable_from >= 4


def test_criterion_7_socle_structure():
    with _Timer(7, "socle levels 0..2 realized; monotone under 1000 Weyl products", 60.0):
        assert socle_level(lift(1, I, 2) * lift(2, I, 2)) == 2
        assert socle_level(lift(2, I, 2)) == 1
        assert socle_level(lift(1, e(0, 0), 2) * lift(2, X, 2)) == 0
        rng = random.Random(0)
        checked = 0
        for _ in range(1000):
            u = random_weyl_word(rng, 2)
            a = random_nonzero_element_n(rng, 2)
            v = random_weyl_word(rng, 2)
            prod = u * a * v
            if prod.is_zero():
                continue
            assert socle_level(prod) <= socle_level(a)
            checked += 1
        assert checked > 900  # zero products are rare at these bounds


def test_criterion_8_census_bound():
    with _Timer(8, "census within {A,F,L}^n; 9 labels realized at rank 2", 1.0):
        grid = {(p, q) for p in "AFL" for q in "AFL"}
        rng = random.Random(1)
        for _ in range(50):
            assert census(random_element_n(rng, 2)) <= grid
        rep = ONE + e(0, 0) + I
        nine = lift(1, rep, 2) * lift(2, rep, 2)
        assert census(nine) == grid


def test_criterion_9_kernel_witness():
    with _Timer(9, "e(i,j)(x)e(k,j) kernel witness on the full grid i,j,k <= 6", 5.0):
        for i in range(7):
            for j in range(7):
                for k in range(7):
                    assert kernel_witness_check(i, j, k, j)[0]
                    for jp in range(7):
                        if jp != j:
                            assert kernel_witness_check(i, j, k, jp)[1]


def test_criterion_10_quotient_homomorphism():
    with _Timer(10, "quotients multiplicative on 200 pairs; kernel is the e-span", 30.0):
        def quot1(a):
            return project_bn(lift(1, a, 1))

        rng = random.Random(0)
        for _ in range(200):
            a = random_element1(rng)
            b = random_element1(rng)
            assert quot1(a * b) == quot1(a) * quot1(b)
            an = random_element_n(rng, 2)
            bn = random_element_n(rng, 2)
            assert project_bn(an * bn) == project_bn(an) * project_bn(bn)
            assert quot1(a).is_zero() == (not a.graded)
        assert quot1(e(3, 5)) == BnElement.zero(1)
        h_diff = lift(1, H, 2) - lift(2, H, 2)
        assert not project_bn(h_diff).is_zero()


def test_criterion_11_split_round_trip():
    with _Timer(11, "500 random splits re-sum, stay in span, agree with the oracle", 60.0):
        rng = random.Random(0)
        prev = None
        for _ in range(500):
            a = random_element1(rng)
            parts = split(a)
            total = parts.total()
            assert total == a
            assert in_a_span(parts.a_part)
            assert in_f_span(parts.f_part)
            assert in_l_span(parts.l_part)
            assert to_matrix(a, 24) == (
                to_matrix(parts.a_part, 24)
                + to_matrix(parts.f_part, 24)
                + to_matrix(parts.l_part, 24)
            )
            if prev is not None:
                assert consistent(total, prev, 24)
                prev = None
            else:
                prev = total

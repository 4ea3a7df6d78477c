"""Rank-1 canonical forms: rewrite rules, the polynomial action, grading,
transpose and the skew Laurent quotient."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idop.element import D_ATOM, X_ATOM, Element1, _generator_product, atom_mul, from_atoms
from idop.oracle import consistent, to_matrix
from idop.tensor import BnElement, apply_n, lift, project_bn
from conftest import atoms, elements1, polys1

D = Element1.from_generator("d")
I = Element1.from_generator("I")
H = Element1.from_generator("H")
X = Element1.from_generator("x")
ONE = Element1.one()


def e(s, t):
    return Element1(fpart={(s, t): 1})


def act(a, p):
    """The rank-1 polynomial action, on a sparse map exponent -> coefficient."""
    return {r: c for (r,), c in apply_n(lift(1, a, 1), {(s,): c for s, c in p.items()}).items()}


def quot(a):
    """The image in the rank-1 skew Laurent quotient."""
    return project_bn(lift(1, a, 1))


class TestAtomMul:
    def test_d_times_I(self):
        assert atom_mul(("v", -1, 0), ("v", 1, 0)) == ONE

    def test_I_times_d(self):
        assert atom_mul(("v", 1, 0), ("v", -1, 0)) == ONE - e(0, 0)

    def test_I2_times_d2(self):
        # telescoped expansion, confirmed against the matrix oracle below
        prod = atom_mul(("v", 2, 0), ("v", -2, 0))
        assert prod == ONE - e(0, 0) - e(1, 1)
        assert consistent(I.power(2), D.power(2), 12)

    def test_eunits_compose(self):
        assert atom_mul(("e", 0, 1), ("e", 1, 2)) == e(0, 2)
        assert atom_mul(("e", 0, 1), ("e", 2, 2)).is_zero()

    @given(elements1(), elements1())
    @settings(max_examples=60, deadline=None)
    def test_mul_agrees_with_atom_expansion(self, a, b):
        expected = Element1.zero()
        for at1, c1 in a.atoms():
            for at2, c2 in b.atoms():
                expected = expected + (c1 * c2) * atom_mul(at1, at2)
        assert a * b == expected


class TestAtomProduct:
    def test_generator_products_in_closed_form(self):
        # every product with x or d on either side, in atom_mul's term order
        grid = [("v", i, t) for i in range(-6, 7) for t in range(8)]
        grid += [("e", s, t) for s in range(7) for t in range(7)]
        for g in (X_ATOM, D_ATOM):
            for a in grid:
                for left, right in ((g, a), (a, g)):
                    assert _generator_product(left, right) == tuple(atom_mul(left, right).atoms())
        assert _generator_product(("v", 2, 1), ("e", 0, 3)) is None


class TestArithmetic:
    def test_x_times_d(self):
        assert X * D == H - ONE

    def test_H_times_e22(self):
        assert H * e(2, 2) == 3 * e(2, 2)

    @given(elements1())
    def test_additive_inverse(self, a):
        assert (a + a.scale(-1)).is_zero()

    @given(elements1(), elements1(), elements1())
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(elements1(), elements1(), elements1())
    @settings(max_examples=60, deadline=None)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    @given(elements1())
    def test_unit(self, a):
        assert ONE * a == a
        assert a * ONE == a

    def test_power(self):
        assert I.power(0) == ONE
        assert I.power(3) == I * I * I
        with pytest.raises(ValueError):
            I.power(-1)


class TestFromGenerator:
    def test_x_is_IH(self):
        assert X == I * H
        assert X.graded == {1: (Fraction(0), Fraction(1))}

    def test_H(self):
        assert H.graded == {0: (Fraction(0), Fraction(1))}

    def test_eunit_name(self):
        assert Element1.from_generator("e(2,3)") == e(2, 3)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            Element1.from_generator("q")


class TestDefiningRelations:
    def test_all_four(self):
        assert D * I == ONE
        assert H * I - I * H == I
        assert H * D - D * H == -D
        p = ONE - I * D
        assert H * p == p
        assert p * H == p

    def test_eunit_definition(self):
        for i in range(3):
            for j in range(3):
                assert I.power(i) * D.power(j) - I.power(i + 1) * D.power(j + 1) == e(i, j)

    def test_x_powers(self):
        # x^i = I^i H(H+1)...(H+i-1)
        from idop import hpoly

        for i in range(1, 5):
            assert X.power(i) == Element1({i: hpoly.rising_factorial(i)})


class TestApply:
    def test_integration(self):
        assert act(I, {2: 1}) == {3: Fraction(1, 3)}

    def test_eunit_action(self):
        assert act(e(1, 2), {2: 1}) == {1: Fraction(2)}

    def test_H_action(self):
        assert act(H, {3: 1}) == {3: Fraction(4)}

    def test_d_kills_constants(self):
        assert act(D, {0: 5}) == {}

    @given(elements1(), elements1(), polys1())
    @settings(max_examples=60, deadline=None)
    def test_representation_property(self, a, b, p):
        assert act(a * b, p) == act(a, act(b, p))


class TestFdegree:
    def test_zero_fpart(self):
        assert D.power(3).fdegree() == -1

    def test_block(self):
        assert (e(0, 0) + e(2, 3)).fdegree() == 3

    def test_normalized(self):
        assert (ONE - I * D).fdegree() == 0


class TestGrading:
    def test_component_of_sum(self):
        assert (X + D).grade_component(1) == X
        assert (X + D).grade_component(-1) == D

    def test_eunit_grade(self):
        assert e(2, 1).grade_component(1) == e(2, 1)
        assert e(2, 1).grade_component(0).is_zero()

    @given(elements1())
    def test_components_resum(self, a):
        total = Element1.zero()
        for i in a.grades():
            total = total + a.grade_component(i)
        assert total == a

    @given(elements1(), elements1())
    @settings(max_examples=40, deadline=None)
    def test_product_convolution(self, a, b):
        prod = a * b
        for k in prod.grades():
            expect = Element1.zero()
            for i in a.grades():
                expect = expect + a.grade_component(i) * b.grade_component(k - i)
            assert prod.grade_component(k) == expect


class TestTranspose:
    def test_generators(self):
        assert D.transpose() == I
        assert I.transpose() == D
        assert H.transpose() == H
        assert e(1, 2).transpose() == e(2, 1)

    @given(elements1())
    def test_involution(self, a):
        assert a.transpose().transpose() == a

    @given(elements1(), elements1())
    @settings(max_examples=60, deadline=None)
    def test_antihomomorphism(self, a, b):
        assert (a * b).transpose() == b.transpose() * a.transpose()

    @given(elements1())
    @settings(max_examples=40, deadline=None)
    def test_matches_matrix_transpose(self, a):
        N = 16
        assert to_matrix(a.transpose(), N) == to_matrix(a, N).transposed()


class TestQuotient:
    def test_eunits_die(self):
        assert quot(e(5, 7)).is_zero()

    def test_integral_inverts(self):
        assert quot(I) == BnElement(1, {((-1, 0),): 1})
        assert quot(I) * quot(D) == BnElement.one(1)

    def test_twist(self):
        # d H = (H+1) d
        assert quot(D) * quot(H) == BnElement(1, {((1, 0),): 1, ((1, 1),): 1})

    @given(elements1(), elements1())
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, a, b):
        assert quot(a * b) == quot(a) * quot(b)
        assert quot(a + b) == quot(a) + quot(b)

    @given(elements1())
    def test_kernel_is_e_span(self, a):
        assert quot(a).is_zero() == (not a.graded)


class TestCanonicalForm:
    @given(elements1())
    def test_renormalization_is_idempotent(self, a):
        assert Element1(a.graded, a.fpart) == a
        assert from_atoms(a.atoms()) == a

    @given(elements1(), elements1())
    @settings(max_examples=40, deadline=None)
    def test_equality_iff_matrices_agree(self, a, b):
        N = 16  # exceeds every index reachable by the strategy bounds
        assert (a == b) == (to_matrix(a, N) == to_matrix(b, N))

    def test_seeded_random_consistency(self):
        from idop.sampling import random_element1

        rng = random.Random(7)
        for _ in range(40):
            a, b = random_element1(rng), random_element1(rng)
            assert consistent(a, b, 24)

    @pytest.mark.parametrize(
        "graded, fpart, error",
        [
            ({1.7: [1]}, None, TypeError),  # would truncate the grade to 1
            ({Fraction(1): [1]}, None, TypeError),
            (None, {(1.5, 0): 1}, TypeError),
            (None, {(0, "1"): 1}, TypeError),
            (None, {(-1, 0): 1}, ValueError),
        ],
    )
    def test_constructor_rejects_invalid_indices(self, graded, fpart, error):
        with pytest.raises(error) as info:
            Element1(graded, fpart)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "atom, error",
        [
            (("q", 0, 1), ValueError),  # read as e(0,1) without the check
            (("v", 0, -1), ValueError),  # dropped to 0 without the check
            (("e", -1, 0), ValueError),
            (("v", 1.5, 0), TypeError),
            (("v", 0), TypeError),
        ],
    )
    def test_from_atoms_rejects_invalid_atoms(self, atom, error):
        with pytest.raises(error) as info:
            from_atoms([(atom, 5)])
        assert "\n" not in str(info.value)


class TestPrinting:
    def test_canonical_order(self):
        assert str(I.power(2) * D.power(2)) == "1 - e(0,0) - e(1,1)"
        assert str(Element1.zero()) == "0"
        assert str(X) == "I*H"
        assert str(-D) == "-d"
        assert str(Fraction(3, 2) * H) == "3/2*H"

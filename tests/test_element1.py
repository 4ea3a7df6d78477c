"""Rank-1 canonical forms: rewrite rules, the polynomial action, grading,
transpose and the skew Laurent quotient."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idop import structure, tensor
from idop.element import Element1, atom_mul, from_atoms
from idop.expr import parse_element
from idop.oracle import consistent, to_matrix
from idop.tensor import BnElement, apply_n, project_bn
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
    return {r: c for (r,), c in apply_n(a, {(s,): c for s, c in p.items()}).items()}


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

    @pytest.mark.parametrize(
        "left, right, message",
        [
            (("v", 0, 0), ("v", 0, -2), "H-power must be nonnegative"),
            (("q", 0, 0), ("v", 0, 0), "unknown atom tag 'q'"),
            (("e", 0, 0), ("e", -1, 3), r"e-unit indices must be nonnegative, got \(-1,3\)"),
        ],
        ids=["negative-H-power", "unknown-tag", "negative-e-unit-index"],
    )
    def test_rejects_invalid_atoms(self, left, right, message):
        with pytest.raises(ValueError, match=message):
            atom_mul(left, right)

    @given(elements1(), elements1())
    @settings(max_examples=60, deadline=None)
    def test_mul_agrees_with_atom_expansion(self, a, b):
        expected = Element1.zero()
        for at1, c1 in a.atoms():
            for at2, c2 in b.atoms():
                expected = expected + (c1 * c2) * atom_mul(at1, at2)
        assert a * b == expected

    def test_mul_multiplies_graded_components_whole(self, monkeypatch):
        # The one product calls _block_mul once per pair of last-slot blocks
        # (a grade under one head, or one e-unit), so a dense graded component
        # is shifted once, not once per atom.  The heads below are graded
        # atoms, so no head product vanishes and every pair is multiplied.
        cases = [
            ((X + D).power(8), X + D + e(1, 2), 9 * 3),
            (
                parse_element("(x_1 + d_2 + I_1*H_2)^4", 2),
                parse_element("x_2 + e(1,2)_2 - d_1", 2),
                None,
            ),
            (
                parse_element("(x_1*d_2 + H_3 + I_2)^3", 3),
                parse_element("d_3 + e(0,1)_3*x_1", 3),
                None,
            ),
        ]
        block_mul = tensor._block_mul
        for a, b, expected in cases:
            calls = []
            monkeypatch.setattr(tensor, "_block_mul", lambda l, r: calls.append(1) or block_mul(l, r))
            a * b
            assert len(calls) == last_slot_blocks(a) * last_slot_blocks(b)
            assert expected is None or len(calls) == expected


def last_slot_blocks(a):
    """The number of last-slot blocks: one per grade under each head, one per e-unit."""
    return len({(k[:-1], k[-1][1] if k[-1][0] == "v" else k[-1]) for k in a.terms})


class TestAtomProduct:
    def test_generator_products_in_closed_form(self):
        # the filtration's closed-form moves x k, d k, k d, k x, on its
        # falling-factorial columns, are atom_mul's products exactly
        x, d = ("v", 1, 1), ("v", -1, 0)
        grid = [("v", i, t) for i in range(-6, 8) for t in range(8)]
        grid += [("e", s, t) for s in range(8) for t in range(8)]
        for a in grid:
            row = structure._row(from_atoms([(a, 1)]))
            for m, (left, right) in enumerate(((x, a), (d, a), (a, d), (a, x))):
                assert structure._move(row, m) == structure._row(atom_mul(left, right))


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
        for k in (2.5, "2"):
            with pytest.raises(TypeError, match="exponent must be an integer"):
                I.power(k)


class TestFromGenerator:
    def test_x_is_IH(self):
        assert X == I * H
        assert X.graded == {1: (Fraction(0), Fraction(1))}

    def test_H(self):
        assert H.graded == {0: (Fraction(0), Fraction(1))}

    def test_eunit_name(self):
        # e-units come from Element1(fpart=...) or parse_element, which read digits strictly
        for name in ("e(2,3)", "e(\u0661,2)", "e(1,2)\n"):
            with pytest.raises(ValueError, match=r"^unknown generator ") as info:
                Element1.from_generator(name)
            assert "\n" not in str(info.value)

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

    @pytest.mark.parametrize("grade, shown", [(1.5, "float 1.5"), ("a", "str 'a'")])
    def test_grade_must_be_an_integer(self, grade, shown):
        with pytest.raises(TypeError, match=f"^grade must be an integer, got {shown}$"):
            (X + D).grade_component(grade)

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
        assert project_bn(e(5, 7)).is_zero()

    def test_integral_inverts(self):
        assert project_bn(I) == BnElement(1, {((-1, 0),): 1})
        assert project_bn(I) * project_bn(D) == BnElement.one(1)

    def test_twist(self):
        # d H = (H+1) d
        assert project_bn(D) * project_bn(H) == BnElement(1, {((1, 0),): 1, ((1, 1),): 1})

    def test_scalar_on_either_side(self):
        b = project_bn(D + H)
        for c in (2, Fraction(-1, 3)):
            assert b * c == c * b == b.scale(c)

    @given(elements1(), elements1())
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, a, b):
        assert project_bn(a * b) == project_bn(a) * project_bn(b)
        assert project_bn(a + b) == project_bn(a) + project_bn(b)

    @given(elements1())
    def test_kernel_is_e_span(self, a):
        assert project_bn(a).is_zero() == (not a.graded)


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

"""Tensor-rank operators: embeddings, factor-wise products, actions and the
rank-n quotient."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import idop
from idop.element import Element1, _atom_product, atom_mul
from idop.expr import parse_element, parse_poly
from idop.oracle import consistent
from idop.tensor import (
    MAX_RANK,
    BnElement,
    ElementN,
    apply_n,
    lift,
    project_bn,
    to_element1,
)
from conftest import atoms, coefficients, elements1, elements_n, polys_n

D = Element1.from_generator("d")
I = Element1.from_generator("I")
H = Element1.from_generator("H")
X = Element1.from_generator("x")
E00 = Element1(fpart={(0, 0): 1})


class TestLift:
    def test_first_factor(self):
        assert lift(1, D, 2) == ElementN(2, {(("v", -1, 0), ("v", 0, 0)): 1})

    def test_second_factor(self):
        assert lift(2, E00, 2) == ElementN(2, {(("v", 0, 0), ("e", 0, 0)): 1})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lift(3, D, 2)
        with pytest.raises(ValueError):
            lift(0, D, 2)

    def test_factor_index_must_be_an_integer(self):
        with pytest.raises(TypeError, match="^factor index must be an integer, got float 1.5$"):
            lift(1.5, X, 2)

    @given(elements1(), elements1())
    @settings(max_examples=40, deadline=None)
    def test_distinct_factors_commute(self, a, b):
        assert lift(1, a, 2) * lift(2, b, 2) == lift(2, b, 2) * lift(1, a, 2)


class TestConstructor:
    @pytest.mark.parametrize(
        "atom, error",
        [
            (("v", 0, -1), ValueError),  # negative H-power
            (("e", -1, 0), ValueError),
            (("e", 0, -2), ValueError),
            (("q", 0, 1), ValueError),  # unknown tag
            (("v", 1.5, 0), TypeError),
            (("e", 0, Fraction(1)), TypeError),
            (("v", 0), TypeError),
            ("v00", TypeError),
        ],
    )
    def test_rejects_invalid_atoms(self, atom, error):
        with pytest.raises(error) as info:
            ElementN(2, {(atom, ("v", 0, 0)): 1})
        assert "\n" not in str(info.value)
        with pytest.raises(error):  # also when the coefficient is zero
            ElementN(1, {(atom,): 0})

    def test_accepts_numpy_indices(self):
        np = pytest.importorskip("numpy")
        a = ElementN(1, {(("v", np.int64(-2), np.int32(1)),): 1})
        assert a.terms == {(("v", -2, 1),): 1}
        assert all(type(v) is int for v in next(iter(a.terms))[0][1:])
        b = BnElement(1, {((np.int64(-2), np.int32(1)),): 1})
        assert b.terms == {((-2, 1),): 1}
        assert all(type(v) is int for v in next(iter(b.terms))[0])

    @pytest.mark.parametrize(
        "pair, error",
        [
            ((1.7, 0), TypeError),  # would truncate to d
            ((0, Fraction(1)), TypeError),
            (("1", 0), TypeError),
            ((1, -2), ValueError),  # negative H-power
        ],
    )
    def test_bn_rejects_invalid_keys(self, pair, error):
        with pytest.raises(error) as info:
            BnElement(2, {(pair, (0, 0)): 1})
        assert "\n" not in str(info.value)
        with pytest.raises(error):  # also when the coefficient is zero
            BnElement(1, {(pair,): 0})

    def test_bn_accepts_any_d_power(self):
        assert BnElement(1, {((-3, 2),): 1}).terms == {((-3, 2),): 1}


class TestMul:
    def test_relation_in_one_factor(self):
        assert lift(1, D, 2) * lift(1, I, 2) == ElementN.one(2)

    def test_disjoint_factors(self):
        assert lift(1, H, 2) * lift(2, H, 2) == ElementN(
            2, {(("v", 0, 1), ("v", 0, 1)): 1}
        )

    def test_kernel_example(self):
        ee = lift(1, E00, 2) * lift(2, E00, 2)
        h_diff = lift(1, H, 2) - lift(2, H, 2)
        assert (ee * h_diff).is_zero()

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            ElementN.one(2) * ElementN.one(3)
        with pytest.raises(ValueError):
            ElementN.one(2) + ElementN.one(3)

    def test_operator_and_quotient_do_not_mix(self):
        a, b = ElementN.one(1), BnElement.one(1)
        for x, y in ((a, b), (b, a), (Element1.one(), b), (b, Element1.one())):
            with pytest.raises(TypeError):
                x + y
            with pytest.raises(TypeError):
                x - y
            with pytest.raises(TypeError):
                x * y
        assert ElementN.zero(1) != BnElement.zero(1)
        assert not ElementN.zero(1) == BnElement.zero(1)

    def test_rank1_values_of_both_classes_mix(self):
        # Element1 is the rank-1 ElementN: its values compare and combine with
        # rank-1 ElementN values, and a result is an Element1 only when both
        # operands are
        a = X
        b = lift(1, a, 1)
        assert a == b and b == a
        for got, want in (
            (a + b, 2 * a),
            (b + a, 2 * a),
            (a - b, ElementN.zero(1)),
            (a * b, a * a),
            (b * a, a * a),
        ):
            assert type(got) is ElementN
            assert got == want
        assert type(a + a) is type(a * a) is type(-a) is Element1
        with pytest.raises(ValueError):
            a + ElementN.one(2)
        with pytest.raises(ValueError):
            a * ElementN.one(2)

    def test_power(self):
        a = lift(1, I, 2) + lift(2, D, 2)
        assert a.power(0) == ElementN.one(2)
        assert a.power(3) == a * a * a
        with pytest.raises(ValueError):
            a.power(-1)
        for k in (2.5, "2"):
            with pytest.raises(TypeError, match="exponent must be an integer"):
                a.power(k)

    @given(elements1(), elements1())
    @settings(max_examples=60, deadline=None)
    def test_rank1_agrees_with_element1(self, a, b):
        assert to_element1(lift(1, a, 1) * lift(1, b, 1)) == a * b

    @given(elements_n(), elements_n(), elements_n())
    @settings(max_examples=30, deadline=None)
    def test_ring_axioms_rank2(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert ElementN.one(2) * a == a

    @given(elements_n(n=3), elements_n(n=3), elements_n(n=3))
    @settings(max_examples=15, deadline=None)
    def test_associative_rank3(self, a, b, c):
        assert (a * b) * c == a * (b * c)


@st.composite
def dense_last_slot(draw, n):
    """A rank-n operator whose last slot holds dense graded components: under
    each of one or two heads, every H-power up to a drawn degree of one grade,
    and possibly an e-unit.  Grades stay in [-2, 2] and e-unit indices below
    3, so a product keeps a nonempty oracle window at N = 8 (rank 2) and
    N = 5 (rank 3)."""
    small = st.one_of(
        st.tuples(st.just("v"), st.integers(-2, 2), st.integers(0, 2)),
        st.tuples(st.just("e"), st.integers(0, 2), st.integers(0, 2)),
    )
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        head = draw(st.tuples(*[small] * (n - 1)))
        grade = draw(st.integers(-2, 2))
        coeffs = draw(st.lists(coefficients, min_size=2, max_size=5))
        for t, c in enumerate(coeffs):
            terms[head + (("v", grade, t),)] = c
        if draw(st.booleans()):
            terms[head + (draw(small),)] = draw(coefficients)
    return ElementN(n, terms)


class TestDenseProducts:
    @given(dense_last_slot(2), dense_last_slot(2), polys_n())
    @settings(max_examples=25, deadline=None)
    def test_rank2(self, a, b, p):
        assert apply_n(a * b, p) == apply_n(a, apply_n(b, p))
        assert consistent(a, b, 8)

    @given(dense_last_slot(3), dense_last_slot(3), polys_n(n=3))
    @settings(max_examples=15, deadline=None)
    def test_rank3(self, a, b, p):
        assert apply_n(a * b, p) == apply_n(a, apply_n(b, p))
        assert consistent(a, b, 5)


# every atom of grade -3..3 with H-power 0..3, and every e(s,t) with s, t < 5
ATOM_GRID = [("v", i, t) for i in range(-3, 4) for t in range(4)] + [
    ("e", s, t) for s in range(5) for t in range(5)
]

SMALL_EUNITS = st.tuples(st.just("e"), st.integers(0, 2), st.integers(0, 2))


@st.composite
def eunit_heads(draw, n):
    """A rank-n operator with e-units in its head slots (every slot but the
    last): one term has an e-unit in each of them, and the others draw head
    atoms from small e-units and all atoms, so that many pairs of heads have
    a vanishing product, e(s,t) e(u,v) = 0 for t != u."""
    head_atoms = st.one_of(SMALL_EUNITS, atoms)
    keys = st.tuples(*[head_atoms] * (n - 1), atoms)
    terms = draw(st.dictionaries(keys, coefficients, max_size=3))
    terms[draw(st.tuples(*[SMALL_EUNITS] * (n - 1), atoms))] = draw(coefficients)
    return ElementN(n, terms)


def slotwise_product(a, b):
    """The reference product: the sum over pairs of terms of the tensor
    product of the slot-wise atom_mul results."""
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            partial = {(): c1 * c2}
            for left, right in zip(k1, k2):
                grown = {}
                for key, c in partial.items():
                    for (atom,), cs in atom_mul(left, right).terms.items():
                        grown[key + (atom,)] = c * cs
                partial = grown
            for key, c in partial.items():
                out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


class TestProductReferee:
    def test_atom_product_is_atom_mul(self):
        for left in ATOM_GRID:
            for right in ATOM_GRID:
                pairs = _atom_product(left, right)
                want = {atom: c for (atom,), c in atom_mul(left, right).terms.items()}
                assert dict(pairs) == want
                assert len(pairs) == len(want)  # no atom twice

    @given(eunit_heads(2), eunit_heads(2))
    @example(
        ElementN(2, {(("e", 0, 1), ("v", 1, 2)): 2, (("v", -1, 1), ("e", 0, 0)): -1}),
        ElementN(2, {(("e", 2, 2), ("v", -2, 0)): 3, (("e", 1, 0), ("v", 0, 1)): 1}),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank2_matches_slotwise_reference(self, a, b):
        assert (a * b).terms == slotwise_product(a, b)

    @given(eunit_heads(3), eunit_heads(3))
    @example(
        ElementN(3, {(("e", 0, 1), ("v", 2, 0), ("v", 1, 1)): 1}),
        ElementN(
            3,
            {
                (("e", 2, 2), ("v", -1, 1), ("e", 0, 3)): 5,
                (("e", 1, 0), ("v", 0, 0), ("v", 1, 0)): -2,
            },
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_rank3_matches_slotwise_reference(self, a, b):
        assert (a * b).terms == slotwise_product(a, b)


class TestRankBudget:
    def test_largest_rank_works(self):
        a = parse_element(f"x_{MAX_RANK}*d_1", MAX_RANK)
        assert a * ElementN.one(MAX_RANK) == a
        assert apply_n(a, parse_poly(f"x1*x{MAX_RANK}", MAX_RANK))

    def test_larger_rank_is_refused(self):
        n = MAX_RANK + 1
        for build in (
            lambda: ElementN.one(n),
            lambda: BnElement.one(n),
            lambda: ElementN(n),
            lambda: lift(1, D, n),
            lambda: parse_element("1", n),
            lambda: parse_poly("1", n),
        ):
            with pytest.raises(ValueError, match=f"rank {n} exceeds the budget {MAX_RANK}"):
                build()


class TestApply:
    def test_mixed_partial(self):
        dd = lift(1, D, 2) * lift(2, D, 2)
        assert apply_n(dd, {(1, 1): 1}) == {(0, 0): Fraction(1)}

    def test_factorwise_integration(self):
        assert apply_n(lift(1, I, 2), {(0, 1): 1}) == {(1, 1): Fraction(1)}

    def test_projection_onto_constants(self):
        assert apply_n(lift(1, E00, 2), {(2, 0): 1, (0, 1): 1}) == {(0, 1): Fraction(1)}

    def test_rank_mismatch(self):
        # the zero operator checks its polynomial as every other operator does
        for a in (ElementN.one(2), ElementN.zero(2)):
            with pytest.raises(ValueError, match=r"^monomial \(1,\) has 1 variables, expected 2$"):
                apply_n(a, {(1,): 1})

    def test_exponents_must_be_nonnegative_integers(self):
        # every operator, the zero one too, refuses them before acting
        for a in (ElementN.one(1), lift(1, D, 1), ElementN.zero(1), ElementN.zero(2)):
            negative, fractional = (1,) * (a.n - 1) + (-1,), (1,) * (a.n - 1) + (1.5,)
            message = f"^monomial {re.escape(str(negative))} has a negative exponent$"
            with pytest.raises(ValueError, match=message):
                apply_n(a, {negative: 1})
            message = f"^an exponent of monomial {re.escape(str(fractional))} must be an integer, got "
            with pytest.raises(TypeError, match=message):
                apply_n(a, {fractional: 1})

    @given(elements_n(), elements_n(), polys_n())
    @settings(max_examples=30, deadline=None)
    def test_composition(self, a, b, p):
        assert apply_n(a * b, p) == apply_n(a, apply_n(b, p))

    @given(elements_n(n=3), elements_n(n=3), polys_n(n=3))
    @settings(max_examples=15, deadline=None)
    def test_composition_rank3(self, a, b, p):
        assert apply_n(a * b, p) == apply_n(a, apply_n(b, p))


class TestProjectBn:
    def test_e_tensor_dies(self):
        assert project_bn(lift(1, E00, 2) * lift(2, I, 2)).is_zero()

    def test_factorwise_projection(self):
        dI = lift(1, D, 2) * lift(2, I, 2)
        assert project_bn(dI) == BnElement(2, {((1, 0), (-1, 0)): 1})

    def test_h_difference_survives(self):
        h_diff = lift(1, H, 2) - lift(2, H, 2)
        assert not project_bn(h_diff).is_zero()

    def test_rank1_matches_b1(self):
        # x d = H - 1, I = d^-1 and e(0,0) dies in the rank-1 quotient B_1
        bn = project_bn(lift(1, X * D + I + E00, 1))
        assert bn == BnElement(1, {((0, 0),): -1, ((0, 1),): 1, ((-1, 0),): 1})
        assert str(bn) == "d^-1 - 1 + H"

    @given(elements_n(), elements_n())
    @settings(max_examples=40, deadline=None)
    def test_ring_homomorphism(self, a, b):
        assert project_bn(a * b) == project_bn(a) * project_bn(b)
        assert project_bn(a + b) == project_bn(a) + project_bn(b)

    @given(elements_n())
    @settings(max_examples=60, deadline=None)
    def test_kernel_is_the_e_tensor_span(self, a):
        all_keys_have_e = all(any(at[0] == "e" for at in key) for key in a.terms)
        assert project_bn(a).is_zero() == all_keys_have_e


class TestPrinting:
    def test_rank2_terms(self):
        e = lift(1, E00, 2) * lift(2, I, 2)
        assert str(e) == "e(0,0)_1*I_2"

    def test_rank1_falls_back(self):
        assert str(lift(1, X, 1)) == "I*H"


# The public functions that take an operator, each called with its operand
# replaced by `bad` and valid other arguments.
_OPERATOR_CALLS = {
    "census": lambda bad: idop.census(bad),
    "socle_level": lambda bad: idop.socle_level(bad),
    "split": lambda bad: idop.split(bad),
    "up": lambda bad: idop.up(bad),
    "to_matrix": lambda bad: idop.to_matrix(bad, 4),
    "to_matrix_n": lambda bad: idop.to_matrix_n(bad, 4),
    "to_matrix_monomial": lambda bad: idop.to_matrix_monomial(bad, 4),
    "consistent": lambda bad: idop.consistent(bad, X, 8),
    "apply_n": lambda bad: idop.apply_n(bad, {(1,): 1}),
    "project_bn": lambda bad: idop.project_bn(bad),
    "lift": lambda bad: idop.lift(1, bad, 2),
    "to_element1": lambda bad: idop.to_element1(bad),
}


class TestOperandContract:
    @pytest.mark.parametrize("name", sorted(_OPERATOR_CALLS))
    # a BnElement has .n and .terms, so only the type check refuses it everywhere
    @pytest.mark.parametrize(
        "bad, shown", [(5, "int 5"), (BnElement.one(1), "BnElement 1")], ids=["int", "BnElement"]
    )
    def test_non_operator_is_type_error(self, name, bad, shown):
        with pytest.raises(TypeError, match=f"^a must be an operator, got {re.escape(shown)}$"):
            _OPERATOR_CALLS[name](bad)

    def test_consistent_names_its_second_operand(self):
        with pytest.raises(TypeError, match="^b must be an operator, got int 5$"):
            consistent(X, 5, 8)

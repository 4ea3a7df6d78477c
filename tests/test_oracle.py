"""The truncated-matrix model, the consistency window, and exact rank."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from idop import oracle
from idop.element import Element1
from idop.oracle import (
    RowReducer,
    TruncMatrix,
    consistent,
    elementary_matrix,
    exact_rank,
    to_matrix,
    to_matrix_monomial,
    to_matrix_n,
    up,
)
from idop.tensor import apply_n, lift
from conftest import atoms, elements1, elements_n

D = Element1.from_generator("d")
I = Element1.from_generator("I")
H = Element1.from_generator("H")


def e(s, t):
    return Element1(fpart={(s, t): 1})


def atom_rows():
    """Sparse atom-keyed rows: support vectors of products, and short rows of fractions."""
    products = st.tuples(elements1(), elements1()).map(lambda ab: (ab[0] * ab[1]).support_vector())
    fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)
    return st.lists(st.one_of(products, st.dictionaries(atoms, fractions, max_size=3)), max_size=8)


@st.composite
def sparse_rows(draw, keys):
    """Sparse rational rows over one kind of key, some with content, some dependent."""
    values = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    rows = draw(st.lists(st.dictionaries(keys, values, max_size=5), max_size=8))
    scales = st.integers(min_value=-60, max_value=60).filter(bool)
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if len(rows) >= 2 else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        ka, kb = draw(scales), draw(scales)
        rows.append({k: ka * a.get(k, 0) + kb * b.get(k, 0) for k in a.keys() | b.keys()})
    factors = draw(st.lists(scales, min_size=len(rows), max_size=len(rows)))
    return [{k: f * v for k, v in row.items()} for f, row in zip(factors, rows)]


def step_strip_pivots(rows) -> tuple[dict, list[bool]]:
    """The stored rows and verdicts of an echelon reducer that strips the content
    after every elimination step, and cancels with p * r - c * prow (made positive)."""

    def primitive(row):
        g = math.gcd(*row.values())
        return {k: v // g for k, v in row.items()}

    pivots, kept = {}, []
    for row in rows:
        vals = {k: Fraction(v) for k, v in row.items() if v}
        denom = math.lcm(*(v.denominator for v in vals.values()))
        r = primitive({k: int(v * denom) for k, v in vals.items()}) if vals else {}
        while r:
            pk = min(r)
            prow = pivots.get(pk)
            if prow is None:
                pivots[pk] = r
                break
            c, p = r[pk], prow[pk]
            sign = 1 if p > 0 else -1
            r = {k: sign * (p * r.get(k, 0) - c * prow.get(k, 0)) for k in r.keys() | prow.keys()}
            r = {k: v for k, v in r.items() if v}
            r = primitive(r) if r else r
        kept.append(bool(r))
    return pivots, kept


class TestToMatrix:
    def test_eunit_is_elementary(self):
        assert to_matrix(e(1, 2), 4) == elementary_matrix(1, 2, 4)

    def test_identity(self):
        m = to_matrix(Element1.one(), 5)
        assert m == elementary_matrix(0, 0, 5) + elementary_matrix(1, 1, 5) + elementary_matrix(
            2, 2, 5
        ) + elementary_matrix(3, 3, 5) + elementary_matrix(4, 4, 5)

    def test_H_is_diagonal(self):
        m = to_matrix(H, 3)
        assert [m.entries[i][i] for i in range(3)] == [1, 2, 3]
        assert sum(1 for r in range(3) for c in range(3) if m.entries[r][c]) == 3

    def test_shift_operators(self):
        mI = to_matrix(I, 4)
        assert all(mI.entries[s + 1][s] == 1 for s in range(3))
        mD = to_matrix(D, 4)
        assert all(mD.entries[s][s + 1] == 1 for s in range(3))
        assert all(mD.entries[r][0] == 0 for r in range(4))

    @given(elements1(), elements1(), st.integers(min_value=-5, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, a, b, c):
        N = 10
        assert to_matrix(a + c * b, N) == to_matrix(a, N) + c * to_matrix(b, N)

    @given(elements1())
    @settings(max_examples=40, deadline=None)
    def test_monomial_matrix_matches_apply(self, a):
        N = 10
        m = to_matrix_monomial(a, N)
        for s in range(N):
            img = apply_n(lift(1, a, 1), {(s,): 1})
            col = [img.get((r,), Fraction(0)) for r in range(N)]
            assert m.column(s) == col


class TestEunitScalar:
    def test_eq3_scalar_grid(self):
        N = 10
        for i in range(9):
            for j in range(9):
                got = to_matrix_monomial(e(i, j), N)
                want = elementary_matrix(i, j, N).scale(
                    Fraction(math.factorial(j), math.factorial(i))
                )
                assert got == want


class TestConsistent:
    def test_d_I(self):
        assert consistent(D, I, 8)
        prod = to_matrix(D, 8) @ to_matrix(I, 8)
        for s in range(7):
            assert prod.entries[s][s] == 1

    def test_I_d(self):
        assert consistent(I, D, 8)
        prod = to_matrix(I, 8) @ to_matrix(D, 8)
        assert prod.entries[0][0] == 0
        for s in range(1, 7):
            assert prod.entries[s][s] == 1

    def test_window_empty(self):
        with pytest.raises(ValueError):
            consistent(I.power(3), I.power(3), 6)

    def test_up(self):
        assert up(D) == 0
        assert up(I.power(2)) == 2
        assert up(e(5, 1)) == 4
        assert up(lift(1, e(5, 1), 2)) == 4

    def test_500_seeded_pairs(self):
        from idop.sampling import random_element1

        rng = random.Random(0)
        for _ in range(100):
            assert consistent(random_element1(rng), random_element1(rng), 24)

    @given(elements_n(), elements_n())
    @settings(max_examples=15, deadline=None)
    def test_rank2_window(self, a, b):
        assert consistent(a, b, 12)

    @given(elements_n(n=3, max_terms=2), elements_n(n=3, max_terms=2))
    @settings(max_examples=8, deadline=None)
    def test_rank3_window(self, a, b):
        # the smallest size with a window of two columns per factor, as size**3
        # grows fast: the matrices have 8 to 1728 rows
        assert consistent(a, b, up(a) + up(b) + 2)


class TestTensorMatrix:
    def test_rank1_agrees(self):
        a = I * H + e(1, 0)
        assert to_matrix_n(lift(1, a, 1), 6).entries == to_matrix(a, 6).entries

    def test_factor_action(self):
        # (d (x) I) on x^[0] (x) x^[0] lands on x^[0] (x) x^[1] only via the I factor
        dI = lift(1, D, 2) * lift(2, I, 2)
        m = to_matrix_n(dI, 3)
        assert m.entries[0 * 3 + 1][1 * 3 + 0] == 1  # column (1,0) -> row (0,1)

    def test_dimension_budget(self):
        # checked first, and the smallest overshoot first: without the budget
        # the calls below would allocate up to 64000^2 entries
        assert oracle.MAX_MATRIX_DIM == 4096
        for size, rank in [(65, 2), (17, 3), (4097, 1), (40, 3)]:
            with pytest.raises(ValueError, match="exceeds the budget") as info:
                TruncMatrix(size, rank)
            assert "\n" not in str(info.value)
        with pytest.raises(ValueError, match="exceeds the budget"):
            to_matrix_n(lift(1, D, 3), 17)
        assert TruncMatrix(5, 3).dim == 125  # the largest matrix the checks use
        assert TruncMatrix(True, True).dim == 1  # a bool reads as an int, as everywhere else

    @pytest.mark.parametrize(
        "size, rank, error",
        [
            pytest.param(3, rank, error, id=f"{rank}-{error.__name__}")
            for rank, error in [(0, ValueError), (-1, ValueError), (1.5, TypeError), ("2", TypeError)]
        ]
        + [
            pytest.param(size, 1, error, id=f"size={size!r}")
            for size, error in [(0, ValueError), (2.5, TypeError), ("3", TypeError)]
        ],
    )
    def test_rank_must_be_a_positive_integer(self, size, rank, error):
        what = "rank" if size == 3 else "size"
        with pytest.raises(error, match=f"^{what} must be") as info:
            TruncMatrix(size, rank)
        assert "\n" not in str(info.value)

    @given(elements_n())
    @settings(max_examples=20, deadline=None)
    def test_matrix_applies_polynomials(self, a):
        # columns of the divided-power matrix encode the action on monomials
        N = 6
        m = to_matrix_n(a, N)
        poly = {(1, 2): 1}
        img = apply_n(a, poly)
        col = 1 * N + 2
        fact = math.factorial(1) * math.factorial(2)
        for r1 in range(N):
            for r2 in range(N):
                want = img.get((r1, r2), Fraction(0)) * math.factorial(r1) * math.factorial(r2)
                assert m.entries[r1 * N + r2][col] * fact == want


class TestExactRank:
    def test_dense_rows(self):
        assert exact_rank([(1, 0), (0, 1), (1, 1)]) == 2

    def test_empty(self):
        assert exact_rank([]) == 0

    def test_weyl_span_of_e00(self):
        X = Element1.from_generator("x")
        rows = [
            (X.power(a) * e(0, 0) * D.power(d)).support_vector()
            for a in range(4)
            for d in range(4 - a)
        ]
        assert exact_rank(rows) == 10

    def test_rational_rows(self):
        rows = [
            {0: Fraction(1, 2), 1: Fraction(1, 3)},
            {0: Fraction(3), 1: Fraction(2)},
            {1: Fraction(5)},
        ]
        assert exact_rank(rows) == 2

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            exact_rank([42])

    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_permutation_and_scaling(self, rows, rng):
        base = exact_rank(rows)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        scaled = []
        for row in shuffled:
            k = rng.choice([1, 2, -3, 5])
            scaled.append([c * k for c in row])
        assert exact_rank(scaled) == base

    def test_incremental_reducer(self):
        red = RowReducer()
        assert red.add({0: 1, 1: 2})
        assert not red.add({0: 2, 1: 4})
        assert red.add({1: 1})
        assert red.rank == 2

    def test_cross_check_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(5)
        for _ in range(25):
            nrows = rng.randint(0, 6)
            ncols = rng.randint(1, 5)
            rows = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            want = sympy.Matrix(nrows, ncols, [sympy.Rational(c) for r in rows for c in r]).rank()
            assert exact_rank(rows) == want

    @given(atom_rows(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_atom_rows_match_sympy(self, rows, rng):
        sympy = pytest.importorskip("sympy")
        if len(rows) >= 2:  # a dependent row, so rejection is exercised too
            keys = set(rows[0]) | set(rows[1])
            rows.append({k: rows[0].get(k, 0) - Fraction(3, 2) * rows[1].get(k, 0) for k in keys})
        rng.shuffle(rows)
        keys = sorted({k for row in rows for k in row})
        want = 0
        if keys:
            entries = [sympy.Rational(row.get(k, 0)) for row in rows for k in keys]
            want = sympy.Matrix(len(rows), len(keys), entries).rank()
        assert exact_rank(rows) == want

    @given(st.one_of(sparse_rows(st.integers(min_value=-6, max_value=6)), sparse_rows(atoms)))
    @example([{("v", 0, 0): 1}, {("v", 0, 0): 1, ("v", 0, 1): 2}])
    @example([{0: 2, 1: 3}, {0: -4, 1: 1, 2: 6}, {0: 6, 1: 5, 2: 6}])
    @settings(max_examples=150, deadline=None)
    def test_stored_rows_match_step_strip_reference(self, rows):
        # stripping content only when a row is stored leaves every stored row,
        # its sign and every verdict as stripping after each step does
        red = RowReducer()
        kept = [red.add(row) for row in rows]
        assert (red._pivots, kept) == step_strip_pivots(rows)

    @given(atom_rows())
    @example([{("v", 0, 0): 1}, {("v", 0, 0): 1, ("v", 0, 1): 2}])  # elimination leaves content 2
    @settings(max_examples=40, deadline=None)
    def test_stored_rows_are_echelon(self, rows):
        red = RowReducer()
        for row in rows:
            red.add(row)
        for lead, row in red._pivots.items():
            assert all(type(v) is int for v in row.values())
            assert min(row) == lead
            assert math.gcd(*row.values()) == 1
        assert red.rank == len(list(red._rows))

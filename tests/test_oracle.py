"""The truncated-matrix model, the consistency window, and exact rank."""

import math
import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from idop import oracle, tensor
from idop.element import Element1
from idop.oracle import (
    RowReducer,
    TruncMatrix,
    consistent,
    to_matrix,
    to_matrix_monomial,
    to_matrix_n,
    up,
)
from idop.tensor import ElementN, apply_n, lift
from conftest import atoms, elements1, elements_n

D = Element1.from_generator("d")
I = Element1.from_generator("I")
H = Element1.from_generator("H")


def e(s, t):
    return Element1(fpart={(s, t): 1})


def elementary(i, j, N, c=1):
    """c times the matrix unit E(i,j), truncated to N x N."""
    m = TruncMatrix(N)
    m.entries[i][j] = c
    return m


def summed(*ms):
    """The entrywise sum of matrices of one shape."""
    out = TruncMatrix(ms[0].size, ms[0].rank)
    out.entries = [list(map(sum, zip(*rows))) for rows in zip(*(m.entries for m in ms))]
    return out


def scaled(m, c):
    """The matrix m with every entry multiplied by c."""
    out = TruncMatrix(m.size, m.rank)
    out.entries = [[c * v for v in row] for row in m.entries]
    return out


def exact_rank(rows) -> int:
    """The rank of sparse mappings or dense sequences, through one RowReducer."""
    red = RowReducer()
    for row in rows:
        red.add(row if isinstance(row, dict) else {i: v for i, v in enumerate(row) if v})
    return red.rank


def atom_rows():
    """Sparse atom-keyed rows: support vectors of products, and short rows of fractions."""
    products = st.tuples(elements1(), elements1()).map(lambda ab: dict((ab[0] * ab[1]).atoms()))
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


@st.composite
def reducer_calls(draw, keys):
    """Sparse rows for RowReducer.add, some with plain int values, and keys
    for add_unit among them, some of them keys of the rows."""
    calls = [
        {k: int(v) if v.denominator == 1 and draw(st.booleans()) else v for k, v in row.items()}
        for row in draw(sparse_rows(keys))
    ]
    seen = sorted({k for row in calls for k in row})
    units = st.one_of(keys, st.sampled_from(seen)) if seen else keys
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        calls.insert(draw(st.integers(min_value=0, max_value=len(calls))), draw(units))
    return calls


def step_strip_pivots(rows) -> tuple[dict, list]:
    """The stored rows of an echelon reducer that strips the content after
    every elimination step, and cancels with p * r - c * prow (made positive),
    and for each row the row it stored, or None."""

    def primitive(row):
        g = math.gcd(*row.values())
        return {k: v // g for k, v in row.items()}

    pivots, stored = {}, []
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
        stored.append(r or None)
    return pivots, stored


class TestToMatrix:
    def test_eunit_is_elementary(self):
        assert to_matrix(e(1, 2), 4) == elementary(1, 2, 4)

    def test_identity(self):
        m = to_matrix(Element1.one(), 5)
        assert m == summed(*(elementary(i, i, 5) for i in range(5)))

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
        assert to_matrix(a + c * b, N) == summed(to_matrix(a, N), scaled(to_matrix(b, N), c))

    @pytest.mark.parametrize("build", [to_matrix, to_matrix_monomial])
    def test_wrong_rank(self, build):
        with pytest.raises(ValueError, match="^expected rank 1, got rank 2$"):
            build(lift(1, D, 2), 4)

    @given(elements1())
    @settings(max_examples=40, deadline=None)
    def test_monomial_matrix_matches_apply(self, a):
        N = 10
        m = to_matrix_monomial(a, N)
        for s in range(N):
            img = apply_n(a, {(s,): 1})
            col = [img.get((r,), Fraction(0)) for r in range(N)]
            assert [m.entries[r][s] for r in range(N)] == col


class TestEunitScalar:
    def test_eq3_scalar_grid(self):
        N = 10
        for i in range(9):
            for j in range(9):
                got = to_matrix_monomial(e(i, j), N)
                want = elementary(i, j, N, Fraction(math.factorial(j), math.factorial(i)))
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

    def test_100_seeded_pairs(self):
        from idop.sampling import random_element1

        rng = random.Random(0)
        for _ in range(100):
            assert consistent(random_element1(rng), random_element1(rng), 24)

    @given(elements1(max_atoms=6), elements1(max_atoms=6))
    @settings(max_examples=60, deadline=None)
    def test_rank1_window(self, a, b):
        # every rank-1 product against the matrix product, which never reads
        # the rule table; the window holds every e-unit index drawn
        assert consistent(a, b, up(a) + up(b) + 8)

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

    @pytest.mark.parametrize("n, N", [(1, 6), (2, 6), (3, 5)])
    @pytest.mark.parametrize("inside", [True, False])
    def test_extra_term_fails_inside_the_window_only(self, monkeypatch, n, N, inside):
        # a product with one wrong term e(0,k) in every slot: it moves only the
        # column (k, ..., k), the window's last when k = w - 1, just outside at k = w
        a = b = ElementN(n, {(("v", 1, 0),) * n: 1})  # I in every slot: up = 1
        w = N - up(a) - up(b)
        k = w - 1 if inside else w
        extra = ElementN(n, {(("e", 0, k),) * n: 1})
        product = tensor._product
        monkeypatch.setattr(tensor, "_product", lambda x, y: product(x, y) + extra)
        assert consistent(a, b, N) is not inside


class TestTensorMatrix:
    def test_rank1_agrees(self):
        a = I * H + e(1, 0)
        assert to_matrix_n(a, 6).entries == to_matrix(a, 6).entries

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
            dict((X.power(a) * e(0, 0) * D.power(d)).atoms())
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
        # add returns the row it stored, the reducer's own dict, or None
        red = RowReducer()
        first = red.add({0: 2, 1: 4})
        assert first == {0: 1, 1: 2} and first is red._pivots[0]
        assert red.add({0: Fraction(1, 2), 1: 1}) is None
        second = red.add({0: 3, 1: 5, 2: 3})
        assert second == {1: -1, 2: 3} and second is red._pivots[1]
        assert red.rank == 2

    @pytest.mark.parametrize(
        "row", [{0: 0, 1: 2}, {0: True, 1: 2}, {0: Fraction(4, 2), 1: 6}], ids=repr
    )
    def test_rows_that_are_not_plain_nonzero_ints(self, row):
        # a zero or a value that is not a plain int fails add's one-pass check
        # and is stored as _integer_row and content stripping make it
        red = RowReducer()
        stored = red.add(row)
        want = oracle._strip_content(oracle._integer_row(row))
        assert list(red._rows) == [want]
        assert stored == (min(want) if len(want) == 1 else want)
        assert all(type(v) is int for v in want.values())

    @pytest.mark.parametrize(
        "row",
        [[(0, -3), (1, 6)], MappingProxyType({0: -3, 1: 6}), iter([(0, -3), (1, 6)])],
        ids=lambda row: type(row).__name__,
    )
    def test_rows_that_are_not_dicts(self, row):
        # any row that is not a dict is read as dict(row) reads it
        assert RowReducer().add(row) == {0: -1, 1: 2}

    def test_an_iterator_row_is_read_once(self):
        # a row that needs _integer_row is cleared from add's copy, not read again
        assert RowReducer().add(iter([(0, Fraction(-3, 2)), (1, 3)])) == {0: -1, 1: 2}
        assert RowReducer().add(iter([(0, -3), (1, 0), (2, 6)])) == {0: -1, 2: 2}

    def test_numpy_integers_are_stored_as_int(self):
        np = pytest.importorskip("numpy")
        row = {0: np.int64(4), 1: 6}
        stored = RowReducer().add(row)
        assert stored == oracle._strip_content(oracle._integer_row(row)) == {0: 2, 1: 3}
        assert all(type(v) is int for v in stored.values())

    def test_float_is_refused(self):
        with pytest.raises(TypeError, match="^coefficients must be int or Fraction, got float 0.5$"):
            RowReducer().add({0: 0.5})

    def test_one_entry_row_is_stored_as_a_marker(self):
        # a one-entry row, whatever its entry, is stored as the marker 1 for
        # the unit row at its key, and add returns that key
        red = RowReducer()
        assert red.add({5: -6}) == 5
        assert red.add({3: 7}) == 3
        assert red.add({1: Fraction(-2, 3)}) == 1
        assert red._pivots == {5: 1, 3: 1, 1: 1}
        assert list(red._rows) == [{5: 1}, {3: 1}, {1: 1}]
        # a row leading a marker loses that key, with no cross-multiplication
        assert red.add({1: 4, 7: 6}) == 7
        assert red.add({3: 2, 5: -9}) is None
        assert red.rank == 4

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

    @given(st.one_of(reducer_calls(st.integers(min_value=-6, max_value=6)), reducer_calls(atoms)))
    @example([{("v", 0, 0): 1}, {("v", 0, 0): 1, ("v", 0, 1): 2}])
    @example([{0: 2, 1: 3}, {0: -4, 1: 1, 2: 6}, {0: 6, 1: 5, 2: 6}])
    # one-entry rows on fresh keys, where only the plain int passes add's value check
    @example([{0: -3}, {1: True}, {2: Fraction(4, 2)}, {3: 0}])
    # and on a key that is already a pivot, where every row is eliminated
    @example([{0: 2, 1: 3}, {0: -3}, {0: True}, {0: Fraction(4, 2)}, {0: 0}])
    # unit keys leading a row with several entries (storing a marker, then
    # dependent), a fresh key, and a marker
    @example([{0: 2, 1: 3}, 0, 0, {0: -3, 2: 1}, 5, 5])
    @settings(max_examples=150, deadline=None)
    def test_stored_rows_match_step_strip_reference(self, calls):
        # stripping content only when a row is stored leaves every stored row
        # with several entries, its sign and every verdict as stripping after
        # each step does; a one-entry row is stored as the marker for the unit
        # row at its key k, whatever its sign, and add and add_unit return k
        # exactly when the reference stores a one-entry row at k. Neither
        # mutates or stores its argument.
        copies = [dict(call) if type(call) is dict else call for call in calls]
        red = RowReducer()
        results = [red.add(call) if type(call) is dict else red.add_unit(call) for call in calls]
        pivots, stored = step_strip_pivots(
            [call if type(call) is dict else {call: 1} for call in calls]
        )
        for result, want in zip(results, stored):
            if want is None:
                assert result is None
            elif len(want) == 1:
                assert type(result) is not dict and result == min(want)
            else:
                assert result == want and result is red._pivots[min(result)]
        assert list(red._rows) == [row if len(row) > 1 else {k: 1} for k, row in pivots.items()]
        for (k, prow), row in zip(red._pivots.items(), red._rows):
            assert (prow == 1 and row == {k: 1}) if len(row) == 1 else prow is row
        assert calls == copies
        rows = [row for row in calls if type(row) is dict]
        assert not {id(prow) for prow in red._pivots.values()} & {id(row) for row in rows}

    @given(sparse_rows(st.integers(min_value=-6, max_value=6)), st.integers(-7, 7))
    @example([{0: 2, 1: 3}], 5)  # k leads no stored row
    @example([{0: -3}], 0)  # k leads a marker
    @example([{0: 2, 1: 3}, {1: 4, 2: -6}], 0)  # k leads a row with several entries
    @example([{0: 2, 1: 3}, {1: 4}], 0)  # and {k: 1} is then dependent
    @settings(max_examples=150, deadline=None)
    def test_add_unit_is_add_of_the_unit_row(self, rows, k):
        # add_unit(k) returns what add({k: 1}) returns, k itself when k leads
        # no stored row, and both leave equal reducers behind
        unit, plain = RowReducer(), RowReducer()
        for row in rows:
            unit.add(row)
            plain.add(row)
        fresh = k not in unit._pivots
        kept, stored = unit.add_unit(k), plain.add({k: 1})
        assert kept == stored
        if fresh:
            assert kept is k and unit._pivots[k] == 1
        elif type(kept) is dict:
            assert kept is unit._pivots[min(kept)]
        assert unit._pivots == plain._pivots and unit.rank == plain.rank

    @given(atom_rows())
    @example([{("v", 0, 0): 1}, {("v", 0, 0): 1, ("v", 0, 1): 2}])  # elimination leaves content 2
    @settings(max_examples=40, deadline=None)
    def test_stored_rows_are_echelon(self, rows):
        red = RowReducer()
        for row in rows:
            red.add(row)
        for lead, row in zip(red._pivots, red._rows):
            assert all(type(v) is int for v in row.values())
            assert min(row) == lead
            assert math.gcd(*row.values()) == 1
        assert red.rank == len(list(red._rows))

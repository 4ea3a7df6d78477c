"""The A/F/L split, socle classification, census, kernel witness and the
exact dimension engine."""

import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import idop.element as element
import idop.structure as structure
from idop.element import Element1, from_atoms
from idop.expr import parse_element
from idop.oracle import RowReducer, to_matrix
from idop.sampling import random_nonzero_element_n, random_weyl_word
from idop.structure import (
    MultiplicityReport,
    bimodule_filtration_dims,
    census,
    in_a_span,
    in_f_span,
    in_l_span,
    multiplicity_report,
    socle_level,
    split,
)
from idop.tensor import ElementN, lift
from idop.verify import FILTRATION_DIMS_ONE_I, kernel_suite
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
STORED_DIFFERS_BY_CONTENT = [2 * I + 4 * I * H]
STORED_DIFFERS_BY_RESCALE = [2 * I + 3 * D, I + D]  # whichever atom leads
STORED_DIFFERS_BY_DENOMINATORS = [Fraction(1, 2) * X + Fraction(1, 3) * e(0, 1)]


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

    def test_wrong_rank(self):
        # the label components of a rank-2 element have two labels, none of them split's
        with pytest.raises(ValueError, match="^expected rank 1, got rank 2$"):
            split(lift(1, X, 2))

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


class TestKernelWitness:
    def test_mismatched_column(self):
        h_diff = lift(1, H, 2) - lift(2, H, 2)
        e = ElementN(2, {(("e", 0, 0), ("e", 0, 1)): 1})
        assert e * h_diff == -e

    @pytest.mark.parametrize(
        "zero, verdicts", [(False, [False, True]), (True, [True, False])], ids=["never", "always"]
    )
    def test_verify_lines_can_fail(self, monkeypatch, zero, verdicts):
        # The kills and survives lines of `idop verify`: a product that is never
        # zero fails the first, and one that is always zero fails the second.
        monkeypatch.setattr(ElementN, "is_zero", lambda self: zero)
        kills, survives = kernel_suite(samples=1)[:2]
        assert [kills.ok, survives.ok] == verdicts


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
                        red.add(dict((lg * right).atoms()))
        dims.append(red.rank)
    return dims


def clear_move_tables():
    for table in structure._MOVE_TABLES + structure._UNIT_TABLES:
        table.clear()


def record_rows_added(monkeypatch, record):
    """Call record(reducer, stored, handed_on) once for each row handed to a
    RowReducer: once per add or add_unit call, where the add that add_unit
    makes for a key that leads a row with several entries counts with its
    add_unit call.  stored is the row stored, as _rows reads it, or None:
    when add or add_unit returns a key k, the reducer's marker for the unit
    row, read as {k: 1}.  handed_on tells that add_unit made that add call,
    which looks the key up a second time."""
    add, add_unit = RowReducer.add, RowReducer.add_unit
    in_unit = handed_on = False

    def stored_row(red, result):
        if result is None or type(result) is dict:
            return result
        assert red._pivots[result] == 1  # a marker, read as the unit row
        return {result: 1}

    def recording_add(self, row):
        nonlocal handed_on
        stored = add(self, row)
        if in_unit:
            handed_on = True  # recorded with its add_unit call
        else:
            record(self, stored_row(self, stored), False)
        return stored

    def recording_add_unit(self, k):
        nonlocal in_unit, handed_on
        in_unit, handed_on = True, False
        try:
            kept = add_unit(self, k)
        finally:
            in_unit = False
        if kept is k:  # the marker stored on a fresh pivot
            assert not handed_on
        record(self, stored_row(self, kept), handed_on)
        return kept

    monkeypatch.setattr(RowReducer, "add", recording_add)
    monkeypatch.setattr(RowReducer, "add_unit", recording_add_unit)


def count_rows_added(monkeypatch):
    """Count the rows handed to RowReducer (add plus add_unit calls, an add
    inside add_unit not counted again); the returned function reads and
    resets the count."""
    calls = 0

    def count(reducer, stored, handed_on):
        nonlocal calls
        calls += 1

    def read():
        nonlocal calls
        n, calls = calls, 0
        return n

    record_rows_added(monkeypatch, count)
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
    # stored rows that differ from the rows handed to the reducer, by content
    # stripping, by the rescale of a row whose leading entry the pivot's does
    # not divide, and by clearing denominators
    @example(STORED_DIFFERS_BY_CONTENT, 6)
    @example(STORED_DIFFERS_BY_RESCALE, 6)
    @example(STORED_DIFFERS_BY_DENOMINATORS, 6)
    @settings(max_examples=40, deadline=None)
    def test_matches_word_enumeration(self, gens, i_max):
        assert bimodule_filtration_dims(gens, i_max) == brute_filtration_dims(gens, i_max)

    def test_moves_extend_stored_rows(self, monkeypatch):
        # every kept element is extended from the row its reducer stored, not
        # from the row it was handed: a row with several entries is handed to
        # _move itself, and a row with one entry is held as its bare column,
        # which leads a stored marker and is moved through the unit memo;
        # no kept dict has one entry
        move = structure._move
        reducers, added, moved, units = [], 0, 0, 0

        def recording(red, stored, handed_on):
            nonlocal added
            added += 1
            if red not in reducers:
                reducers.append(red)

        class CheckedTable(dict):
            def get(self, a, default=None):
                nonlocal units
                units += 1
                (red,) = reducers
                assert type(a) is int and red._pivots[a] == 1
                return super().get(a, default)

        def checked_move(row, m):
            nonlocal moved
            moved += 1
            (red,) = reducers
            assert type(row) is dict and len(row) > 1 and red._pivots.get(min(row)) is row
            return move(row, m)

        record_rows_added(monkeypatch, recording)
        monkeypatch.setattr(structure, "_move", checked_move)
        monkeypatch.setattr(structure, "_UNIT_TABLES", tuple(CheckedTable() for _ in range(4)))
        for gens in (
            [Element1.one(), I],
            STORED_DIFFERS_BY_CONTENT,
            STORED_DIFFERS_BY_RESCALE,
            STORED_DIFFERS_BY_DENOMINATORS,
        ):
            reducers.clear()
            added = moved = units = 0
            bimodule_filtration_dims(gens, 8)
            assert moved + units == added - len(gens)
            assert moved > 0 and units > 0

    def test_rows_added_per_level(self, monkeypatch):
        # only the elements kept at the previous level are extended, and only
        # by the moves that keep their words x^a d^b g x^c d^e normal; parsed
        # generators are rank-1 ElementN values, not Element1, and count alike
        calls = count_rows_added(monkeypatch)
        assert type(parse_element("I")) is ElementN
        for read in (lambda g: g, lambda g: parse_element(str(g))):
            dims = bimodule_filtration_dims([read(Element1.one()), read(I)], 16)
            assert dims[:15] == FILTRATION_DIMS_ONE_I
            assert calls() == 490
            assert bimodule_filtration_dims([read(E00)], 16)[-1] == 153
            assert calls() == 170
            # each move runs over all fresh elements before the next move does,
            # so that elements allowing few extensions are kept first; running
            # all moves of one element before the next element's would add 366 rows
            assert bimodule_filtration_dims([read(g) for g in TWO_GENERATORS], 8)[-1] == 278
            assert calls() == 353

    def test_unit_rows_reach_every_add_unit_outcome(self, monkeypatch):
        # the dims_mixed generators move unit rows onto columns that lead no
        # stored row, a one-entry row (a marker) and a row with several
        # entries; add_unit returns the column itself, None, and add's result:
        # its stored row, the column of its marker, or None
        add_unit = RowReducer.add_unit
        outcomes = {"fresh": 0, "one entry": 0, "several entries": 0}

        def recording_add_unit(self, k):
            prow = self._pivots.get(k)
            outcome = "fresh" if prow is None else "one entry" if prow == 1 else "several entries"
            outcomes[outcome] += 1
            kept = add_unit(self, k)
            if outcome == "fresh":
                assert kept is k and self._pivots[k] == 1
            elif outcome == "one entry":
                assert kept is None
            elif type(kept) is dict:
                assert kept is self._pivots[min(kept)]
            else:
                assert kept is None or self._pivots[kept] == 1
            return kept

        monkeypatch.setattr(RowReducer, "add_unit", recording_add_unit)
        gens = [parse_element("x*d - 2*e(1,1)"), parse_element("I^2*H")]
        assert bimodule_filtration_dims(gens, 12)[-1] == 335
        assert outcomes == {"fresh": 98, "one entry": 10, "several entries": 26}

    def test_column_ids_are_a_bijection(self):
        # the id of a column is computed from the column alone and _atom inverts it
        atoms = [("v", i, t) for i in range(-20, 21) for t in range(21)]
        atoms += [("e", s, t) for s in range(21) for t in range(21)] + [("e", 10**6, 3)]
        ids = [structure._column(a) for a in atoms]
        assert [structure._atom(c) for c in ids] == atoms
        assert len(set(ids)) == len(atoms)
        # and every nonpositive integer is an id
        assert all(structure._column(structure._atom(c)) == c for c in range(0, -5000, -1))

    def test_stored_entries_per_job(self, monkeypatch):
        # the work of the {1, I} and then {e(0,0)} job at 16 does not depend on
        # what ran before it: rows added, elimination steps (the reducer's
        # pivot lookups that found a stored row, a marker too), and the rows
        # stored and their entries, a marker counting as one, alone, after
        # other jobs and after the memo was cleared
        work = {"added": 0, "steps": 0, "stored": 0, "entries": 0}

        class CountingPivots(dict):
            def get(self, key, default=None):
                prow = super().get(key, default)
                work["steps"] += prow is not None
                return prow

        def counting_init(self):
            self._pivots = CountingPivots()

        def counting(red, stored, handed_on):
            work["added"] += 1
            work["steps"] -= handed_on  # add_unit and then add looked up one pivot
            work["stored"] += stored is not None
            work["entries"] += len(stored or ())

        monkeypatch.setattr(RowReducer, "__init__", counting_init)
        record_rows_added(monkeypatch, counting)

        def job():
            work.update(added=0, steps=0, stored=0, entries=0)
            dims = [bimodule_filtration_dims(g, 16) for g in ([Element1.one(), I], [E00])]
            return dims, dict(work)

        alone = job()
        assert alone[1] == {"added": 660, "steps": 67, "stored": 595, "entries": 596}
        bimodule_filtration_dims([E00], 16)
        assert job() == alone
        bimodule_filtration_dims([D.power(5) * H.power(2) - e(6, 1)], 10)
        assert job() == alone
        monkeypatch.setattr(structure, "COLUMN_CAP", 1)
        assert job() == alone  # each of its calls clears the memo first

    def test_memo_rows_are_shared_but_never_mutated_or_stored(self, monkeypatch):
        # the level loop hands the memo's image rows themselves to add, and
        # calls reuse them. add never mutates a row it is given and never
        # stores one, so each memo row still equals its recomputation afterwards,
        # in the exact memo and in the unit memo, which holds a one-column image
        # as that column
        stored = []
        record_rows_added(monkeypatch, lambda red, row, handed_on: stored.append(row))
        memo = []

        def run(gens, i_max):
            stored.clear()
            bimodule_filtration_dims(gens, i_max)
            for held, tables in ((False, structure._MOVE_TABLES), (True, structure._UNIT_TABLES)):
                for m, table in enumerate(tables):
                    memo.extend((held, m, a, image) for a, image in table.items())
            memo_ids = {id(image) for *_, image in memo}
            assert not any(id(r) in memo_ids for r in stored)

        run([Element1.one(), I], 16)
        run([E00], 16)
        run([parse_element("x*d - 2*e(1,1)"), parse_element("I^2*H")], 12)
        monkeypatch.setattr(structure, "COLUMN_CAP", 1)
        run([Element1.one(), I], 16)  # on a memo that the call cleared first
        clear_move_tables()
        assert {held for held, *_ in memo} == {False, True}
        assert any(type(image) is int for *_, image in memo)
        for held, m, a, image in memo:
            want = structure._move_terms(m, a)
            assert image == (structure._held(want) if held else want)
        clear_move_tables()

    def test_column_registry_state_does_not_change_results(self, monkeypatch):
        # column ids need no registry; the one state calls share is the memos of
        # the moves. The same dimensions and rows added on empty, warm and
        # just-cleared memos, on one memo cold while the other is warm, and for
        # generators whose columns the memos have not seen
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
            clear_move_tables()
            fresh.append((bimodule_filtration_dims(gens, i_max), calls()))
        clear_move_tables()
        bimodule_filtration_dims(runs[-1][0], 6)
        calls()
        # warm, with the memo filled in orders that the fresh runs never saw
        assert results(-1) == fresh[::-1]
        assert results() == fresh
        for memo in (structure._MOVE_TABLES, structure._UNIT_TABLES):
            for table in memo:
                table.clear()
            assert results() == fresh
        monkeypatch.setattr(structure, "COLUMN_CAP", len(structure._MOVE_TABLES[0]))
        assert results() == fresh  # the first call clears every memo

    def test_concurrent_calls(self, monkeypatch):
        # calls share only the memo of the moves; a small cap makes the threads
        # clear it under each other
        monkeypatch.setattr(structure, "COLUMN_CAP", 8)
        jobs = [
            ([Element1.one(), I], FILTRATION_DIMS_ONE_I[:13]),
            ([E00], [(i + 1) * (i + 2) // 2 for i in range(13)]),
        ]
        start, results, errors = threading.Barrier(4), [], []

        def worker():
            try:
                start.wait()
                for _ in range(5):
                    for gens, want in jobs:
                        results.append(bimodule_filtration_dims(gens, 12) == want)
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert results == [True] * 40

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

    def test_rows_rewrite_h_powers_as_falling_factorials(self):
        # H^t = sum_s c_s P_{i,s}(H), P_{i,s}(H) = (H+i-1)(H+i-2)...(H+i-s), as
        # values at integer H
        for i in range(-4, 7):
            for t in range(9):
                row = structure._row(from_atoms([(("v", i, t), 1)]))
                parts = [(structure._atom(col), c) for col, c in row.items()]
                assert all(tag == "v" and grade == i for (tag, grade, _), _ in parts)
                for h in range(-10, 11):
                    falling = [math.prod(h + i - k for k in range(1, s + 1)) for (_, _, s), _ in parts]
                    assert sum(p * c for p, (_, c) in zip(falling, parts)) == h**t

    def test_cap_bounds_move_tables(self, monkeypatch):
        # the memos may outgrow their cap within a call; the next call clears
        # every one of them, the exact and the unit memo of each move
        memos = structure._MOVE_TABLES + structure._UNIT_TABLES
        mixed = [parse_element("x*d - 2*e(1,1)"), parse_element("I^2*H")]
        monkeypatch.setattr(structure, "COLUMN_CAP", 4)
        assert bimodule_filtration_dims([Element1.one(), I], 8) == FILTRATION_DIMS_ONE_I[:9]
        assert len(structure._UNIT_TABLES[0]) > 4
        # the dims_mixed golden's first levels, on memos the call cleared first
        assert bimodule_filtration_dims(mixed, 8) == [2, 10, 26, 46, 67, 90, 116, 145, 177]
        assert len(structure._MOVE_TABLES[0]) > 4 and all(memos)
        assert bimodule_filtration_dims([E00], 0) == [1]
        assert not any(memos)
        assert bimodule_filtration_dims([Element1.one(), I], 8) == FILTRATION_DIMS_ONE_I[:9]
        # below the cap the memos are kept across calls
        monkeypatch.setattr(structure, "COLUMN_CAP", 10**6)
        sizes = [len(table) for table in memos]
        size = len(structure._UNIT_TABLES[0])
        assert bimodule_filtration_dims([e(12, 12)], 3) == brute_filtration_dims([e(12, 12)], 3)
        assert all(len(table) >= n for table, n in zip(memos, sizes))
        assert len(structure._UNIT_TABLES[0]) > size > 4

    def test_word_enumeration_uses_element1_products(self, monkeypatch):
        # the reference shares no atom products with the engine it checks: the
        # engine's come from its closed-form moves only, the reference's Element1
        # products from atom_mul only
        def unused(*args):
            raise AssertionError("atom products were used")

        clear_move_tables()
        with monkeypatch.context() as patch:
            patch.setattr(element, "atom_mul", unused)
            assert bimodule_filtration_dims([Element1.one(), I], 4) == FILTRATION_DIMS_ONE_I[:5]
        # the moves ran on empty memos
        assert any(structure._MOVE_TABLES) and any(structure._UNIT_TABLES)
        products = 0
        mul = Element1.__mul__

        def counting_mul(a, b):
            nonlocal products
            products += 1
            return mul(a, b)

        clear_move_tables()  # so that a move of the engine's would reach its closed form
        with monkeypatch.context() as patch:
            patch.setattr(structure, "_move_terms", unused)
            patch.setattr(Element1, "__mul__", counting_mul)
            assert brute_filtration_dims([Element1.one(), I], 4) == FILTRATION_DIMS_ONE_I[:5]
        assert products > 0

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
        with pytest.raises(ValueError, match="^expected rank 1, got rank 2$"):
            bimodule_filtration_dims([Element1.one(), parse_element("x_1", 2)], 3)

    def test_generators_may_be_any_iterable(self):
        want = bimodule_filtration_dims([Element1.one(), I], 4)
        assert want == FILTRATION_DIMS_ONE_I[:5]
        assert bimodule_filtration_dims(iter([Element1.one(), I]), 4) == want
        assert bimodule_filtration_dims((g for g in [Element1.one(), I]), 4) == want
        with pytest.raises(TypeError, match="^generators must be an operator, got int 1$"):
            bimodule_filtration_dims([1], 4)
        with pytest.raises(TypeError, match="^generators must be an operator, got str 'I'$"):
            bimodule_filtration_dims(iter([I, "I"]), 4)


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

    def test_entries_must_be_integers(self):
        msg = "^an entry of dims must be an integer, got "
        with pytest.raises(TypeError, match=msg + "float 1.5$"):
            multiplicity_report([1.5, 2, 3, 4, 5, 6])
        with pytest.raises(TypeError, match=msg + "str '3'$"):
            multiplicity_report([1, 2, "3"])

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The criteria are stated once, as the checks of `idop verify`: this module runs
every suite once and holds each criterion to its checks and its time budget.
"""

import pytest

from idop.verify import FILTRATION_DIMS_ONE_I, SUITES, run_suites

# criterion: (label, budget in seconds, suite, positions of its checks in the suite)
CRITERIA = {
    1: ("defining relations, e-calculus and multiplication table", 1.0, "relations", range(17)),
    2: ("500 seeded random products match the matrix oracle at N=24", 30.0, "oracle", [0]),
    3: ("e(i,j) = (j!/i!) E(i,j) in the monomial basis for i,j <= 8", 1.0, "oracle", [1]),
    5: ("e(0,0) bimodule: dims (i+1)(i+2)/2, degree 2, multiplicity 1", 10.0, "dims", [0, 1]),
    6: ("{1, I} bimodule: frozen dims table, second difference 3", 300.0, "holonomy", [0, 1]),
    7: ("socle levels 0..2 realized; monotone under 1000 Weyl products", 60.0, "socle", range(4)),
    8: ("census within {A,F,L}^n; 9 labels realized at rank 2", 1.0, "socle", [4, 5]),
    9: ("e(i,j)(x)e(k,j) kernel witness on the full grid i,j,k <= 6", 5.0, "kernel", [0, 1]),
    10: ("quotients multiplicative on 200 pairs; kernel is the e-span", 30.0, "kernel", [2, 3, 4]),
    11: ("500 random splits re-sum, stay in span, agree with the oracle", 60.0, "socle", [6]),
}


@pytest.fixture(scope="module")
def suites():
    results = run_suites(sorted(SUITES))  # the default seed and sample counts
    return {name: [c for s, c in results if s == name] for name in SUITES}


def _criterion(number, suites):
    label, budget, suite, positions = CRITERIA[number]
    checks = [suites[suite][p] for p in positions]
    elapsed = sum(c.seconds for c in checks)
    failed = [f"{c.name} -- {c.detail}" for c in checks if not c.ok]
    print(f"criterion {number}: {'FAIL' if failed else 'PASS'} ({elapsed:.2f}s) {label}")
    assert not failed, failed
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_every_check_belongs_to_exactly_one_criterion(suites):
    listed = [(suite, p) for _, _, suite, positions in CRITERIA.values() for p in positions]
    assert sorted(listed) == sorted((s, p) for s, checks in suites.items() for p in range(len(checks)))


def test_criterion_1_relations(suites):
    _criterion(1, suites)


def test_criterion_2_oracle_equivalence(suites):
    _criterion(2, suites)


def test_criterion_3_eunit_scalar(suites):
    _criterion(3, suites)


def test_criterion_5_f_multiplicity(suites):
    _criterion(5, suites)


def test_criterion_6_algebra_multiplicity_three(suites):
    assert len(FILTRATION_DIMS_ONE_I) - 1 <= 14
    _criterion(6, suites)


def test_criterion_7_socle_structure(suites):
    _criterion(7, suites)


def test_criterion_8_census_bound(suites):
    _criterion(8, suites)


def test_criterion_9_kernel_witness(suites):
    _criterion(9, suites)


def test_criterion_10_quotient_homomorphism(suites):
    _criterion(10, suites)


def test_criterion_11_split_round_trip(suites):
    _criterion(11, suites)

"""The machine-checkable verification suites behind `idop verify`.

Each suite returns a list of Check records; a suite passes when every check
does.  All randomized checks draw from an explicitly seeded generator, so runs
are reproducible byte for byte.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple, Optional

from .element import Element1, _index
from .oracle import consistent, to_matrix_monomial
from .sampling import (
    random_element1,
    random_element_n,
    random_nonzero_element_n,
    random_weyl_word,
)
from .structure import (
    bimodule_filtration_dims,
    census,
    in_a_span,
    in_f_span,
    in_l_span,
    multiplicity_report,
    socle_level,
    split,
)
from .tensor import ElementN, lift, project_bn

ORACLE_WINDOW = 24

# Regression anchor: dimensions of the two-sided filtration generated by
# {1, I}, frozen from a first brute-force run of bimodule_filtration_dims.
# The second difference stabilizes at 3, the multiplicity of the full algebra
# as a bimodule over its differential-operator subalgebra.
FILTRATION_DIMS_ONE_I = [2, 7, 15, 26, 40, 57, 77, 100, 126, 155, 187, 222, 260, 301, 345]


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""
    # time since the suite's previous check was recorded, or since it started
    seconds: float = 0.0


class _Checks(list):
    """The checks of one suite, each timed as it is recorded."""

    def __init__(self) -> None:
        super().__init__()
        self._mark = time.perf_counter()

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        now = time.perf_counter()
        self.append(Check(name, bool(ok), "" if ok else detail, now - self._mark))
        self._mark = now


def relations_suite(seed: int = 0, samples: Optional[int] = None) -> list[Check]:
    """Defining relations, the e-unit calculus and the multiplication table."""
    checks = _Checks()
    one = Element1.one()
    d = Element1.from_generator("d")
    I = Element1.from_generator("I")
    H = Element1.from_generator("H")
    x = Element1.from_generator("x")
    e00 = Element1(fpart={(0, 0): 1})

    checks.add("d*I = 1", d * I == one)
    checks.add("H*I - I*H = I", H * I - I * H == I)
    checks.add("H*d - d*H = -d", H * d - d * H == -d)
    p = one - I * d
    checks.add("H*(1-I*d) = 1-I*d", H * p == p)
    checks.add("(1-I*d)*H = 1-I*d", p * H == p)
    checks.add("I*d = 1 - e(0,0)", I * d == one - e00)
    checks.add("x = I*H", x == I * H)
    checks.add("x^2 = I^2*H*(H+1)", x * x == I.power(2) * (H * H + H))

    em = lambda s, t: Element1(fpart={(s, t): 1})
    ok = all(
        em(i, j) * em(k, l) == (em(i, l) if j == k else Element1.zero())
        for i in range(4)
        for j in range(4)
        for k in range(4)
        for l in range(4)
    )
    checks.add("e(i,j)*e(k,l) = [j=k] e(i,l) for i,j,k,l < 4", ok)
    ok = all(
        I.power(i) * d.power(j) - I.power(i + 1) * d.power(j + 1) == em(i, j)
        for i in range(4)
        for j in range(4)
    )
    checks.add("I^i*d^j - I^(i+1)*d^(j+1) = e(i,j) for i,j < 4", ok)

    checks.add("I*H = (H-1)*I", I * H == (H - one) * I)
    checks.add("H*d = d*(H-1)", H * d == d * (H - one))
    ok = all(I * em(i, j) == em(i + 1, j) for i in range(4) for j in range(4))
    checks.add("I*e(i,j) = e(i+1,j)", ok)
    ok = all(
        em(i, j) * I == (em(i, j - 1) if j > 0 else Element1.zero())
        for i in range(4)
        for j in range(4)
    )
    checks.add("e(i,j)*I = e(i,j-1)", ok)
    ok = all(
        d * em(i, j) == (em(i - 1, j) if i > 0 else Element1.zero())
        for i in range(4)
        for j in range(4)
    )
    checks.add("d*e(i,j) = e(i-1,j)", ok)
    ok = all(em(i, j) * d == em(i, j + 1) for i in range(4) for j in range(4))
    checks.add("e(i,j)*d = e(i,j+1)", ok)
    ok = all(
        H * em(i, i) == (i + 1) * em(i, i) and em(i, i) * H == (i + 1) * em(i, i)
        for i in range(5)
    )
    checks.add("H*e(i,i) = e(i,i)*H = (i+1)*e(i,i)", ok)
    return checks


def oracle_suite(seed: int = 0, samples: Optional[int] = None) -> list[Check]:
    """Random products against truncated matrices, and the e-unit scalar law."""
    checks = _Checks()
    rng = random.Random(seed)
    count = 500 if samples is None else samples
    bad = None
    for k in range(count):
        a = random_element1(rng)
        b = random_element1(rng)
        if not consistent(a, b, ORACLE_WINDOW):
            bad = (k, a, b)
            break
    checks.add(
        f"{count} random products match the matrix oracle at N={ORACLE_WINDOW}",
        bad is None,
        f"pair #{bad[0]}: a={bad[1]}, b={bad[2]}" if bad else "",
    )

    N = 10
    ok = True
    for i in range(9):
        for j in range(9):
            m = to_matrix_monomial(Element1(fpart={(i, j): 1}), N)
            nonzero = {(r, s): v for r, row in enumerate(m.entries) for s, v in enumerate(row) if v}
            if nonzero != {(i, j): Fraction(math.factorial(j), math.factorial(i))}:
                ok = False
    checks.add("e(i,j) = (j!/i!) E(i,j) in the monomial basis for i,j <= 8", ok)
    return checks


def dims_suite(seed: int = 0, samples: Optional[int] = None) -> list[Check]:
    """Exact dimension counts with known closed forms."""
    checks = _Checks()
    e00 = Element1(fpart={(0, 0): 1})
    got = bimodule_filtration_dims([e00], 10)
    want = [(i + 1) * (i + 2) // 2 for i in range(11)]
    checks.add("filtration dims of {e(0,0)} = (i+1)(i+2)/2", got == want, f"got {got}")
    rep = multiplicity_report(got)
    checks.add(
        "e(0,0) bimodule has growth degree 2 and multiplicity 1",
        rep is not None and rep.degree == 2 and rep.second_difference == 1,
        f"got {rep}",
    )
    return checks


def holonomy_suite(seed: int = 0, samples: Optional[int] = None) -> list[Check]:
    """Quadratic growth with second difference exactly 3 for the {1, I} filtration."""
    checks = _Checks()
    i_max = len(FILTRATION_DIMS_ONE_I) - 1
    dims = bimodule_filtration_dims([Element1.one(), Element1.from_generator("I")], i_max)
    checks.add(
        f"filtration dims of {{1, I}} up to {i_max} match the frozen table",
        dims == FILTRATION_DIMS_ONE_I,
        f"got {dims}",
    )
    rep = multiplicity_report(dims)
    stable = rep is not None and rep.degree == 2 and rep.second_difference == 3
    window = 0
    if rep is not None:
        window = len(dims) - 2 - rep.stable_from
    checks.add(
        "second difference stabilizes at 3 over >= 4 indices (degree 2)",
        stable and window >= 4,
        f"got {rep}",
    )
    return checks


def socle_suite(seed: int = 0, samples: Optional[int] = None) -> list[Check]:
    """Socle levels, the census labels, and the split round-trip."""
    checks = _Checks()
    rng = random.Random(seed)
    I1 = Element1.from_generator("I")
    x1 = Element1.from_generator("x")
    e00 = Element1(fpart={(0, 0): 1})

    II = lift(1, I1, 2) * lift(2, I1, 2)
    checks.add("socle_level(I(x)I) = 2", socle_level(II) == 2)
    oneI = lift(2, I1, 2)
    checks.add("socle_level(1(x)I) = 1", socle_level(oneI) == 1)
    ex = lift(1, e00, 2) * lift(2, x1, 2)
    checks.add("socle_level(e(0,0)(x)x) = 0", socle_level(ex) == 0)

    count = 1000 if samples is None else samples
    # A zero product (about 2% of draws) checks nothing, so draw until `count`
    # products are nonzero, within a budget of twice as many draws.
    checked, bad = 0, ""
    for k in range(2 * count):
        u = random_weyl_word(rng, 2)
        a = random_nonzero_element_n(rng, 2)
        v = random_weyl_word(rng, 2)
        prod = u * a * v
        if prod.is_zero():
            continue
        if socle_level(prod) > socle_level(a):
            bad = f"triple #{k}"
            break
        checked += 1
        if checked == count:
            break
    else:
        bad = f"only {checked} of {2 * count} triples gave a nonzero product"
    checks.add(
        f"socle level never increases under {count} random two-sided Weyl products",
        not bad,
        bad,
    )

    rep = Element1.one() + e00 + I1
    nine = lift(1, rep, 2) * lift(2, rep, 2)
    c = census(nine)
    checks.add(
        "a 9-term element realizes all 3^2 census labels",
        len(c) == 9 and c == {(p, q) for p in "AFL" for q in "AFL"},
        f"got {sorted(c)}",
    )

    count = 500 if samples is None else samples
    bad = None
    for k in range(count):
        a = random_element1(rng)
        parts = split(a)
        if parts.total() != a:
            bad = (k, "re-sum", a)
            break
        if not (in_a_span(parts.a_part) and in_f_span(parts.f_part) and in_l_span(parts.l_part)):
            bad = (k, "span", a)
            break
    checks.add(
        f"{count} random splits re-sum and stay in span",
        bad is None,
        f"sample #{bad[0]} failed the {bad[1]} check: {bad[2]}" if bad else "",
    )
    return checks


def kernel_suite(seed: int = 0, samples: Optional[int] = None) -> list[Check]:
    """The right-multiplication kernel witness and the quotient homomorphisms."""
    checks = _Checks()
    rng = random.Random(seed)

    h_diff = lift(1, Element1.from_generator("H"), 2) - lift(2, Element1.from_generator("H"), 2)
    # whether e(i,j)(x)e(k,j') * (H_1 - H_2) is zero, one product per (i, j, k, j')
    killed = {
        (i, j, k, jp): (ElementN(2, {(("e", i, j), ("e", k, jp)): 1}) * h_diff).is_zero()
        for i, j, k, jp in product(range(7), repeat=4)
    }
    checks.add(
        "e(i,j)(x)e(k,j) kills H_1 - H_2 for i,j,k <= 6",
        all(z for (_, j, _, jp), z in killed.items() if j == jp),
    )
    checks.add(
        "e(i,j)(x)e(k,j') survives H_1 - H_2 for j != j' <= 6",
        not any(z for (_, j, _, jp), z in killed.items() if j != jp),
    )

    count = 200 if samples is None else samples
    bad = None
    for k in range(count):
        a = random_element1(rng)
        b = random_element1(rng)
        if project_bn(a * b) != project_bn(a) * project_bn(b):
            bad = (k, 1)
            break
        an = random_element_n(rng, 2)
        bn = random_element_n(rng, 2)
        if project_bn(an * bn) != project_bn(an) * project_bn(bn):
            bad = (k, 2)
            break
    checks.add(
        f"quotient maps are multiplicative on {count} random pairs (ranks 1 and 2)",
        bad is None,
        f"pair #{bad[0]} at rank {bad[1]}" if bad else "",
    )

    bad = None
    for k in range(count):
        a = random_element1(rng)
        if project_bn(a).is_zero() != (not a.graded):
            bad = k
            break
    e35 = Element1(fpart={(3, 5): 1})
    checks.add(
        "kernel of the rank-1 quotient is exactly the e-span",
        bad is None and project_bn(e35).is_zero(),
    )
    checks.add("H_1 - H_2 survives the rank-2 quotient", not project_bn(h_diff).is_zero())
    return checks


SUITES: dict[str, Callable[..., list[Check]]] = {
    "relations": relations_suite,
    "oracle": oracle_suite,
    "dims": dims_suite,
    "socle": socle_suite,
    "kernel": kernel_suite,
    "holonomy": holonomy_suite,
}


def run_suites(names: list[str], seed: int = 0, samples: Optional[int] = None) -> list[tuple[str, Check]]:
    if samples is not None:
        samples = _index(samples, "samples")
        if samples < 1:
            raise ValueError(f"samples must be a positive integer, got {samples!r}")
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; known suites: {', '.join(sorted(SUITES))}")
    out = []
    for name in names:
        for check in SUITES[name](seed=seed, samples=samples):
            out.append((name, check))
    return out

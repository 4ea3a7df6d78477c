"""Seeded random elements for the regression and verification suites.

Bounds are fixed so that every sampled pair keeps a nonempty oracle window at
N = 24: grades in [-3, 3], H-powers up to 3, e-indices up to 5, coefficients
uniform in {-9..9} without 0.  Random Weyl words have at most 3 generators.
"""

from __future__ import annotations

import random

from .element import Element1, eunit_atom, from_atoms, graded_atom
from .tensor import ElementN, lift

GRADE_BOUND = 3
H_POWER_BOUND = 3
EUNIT_BOUND = 5
COEFF_BOUND = 9
WEYL_WORD_BOUND = 3


def _coeff(rng: random.Random) -> int:
    c = rng.randint(1, COEFF_BOUND)
    return c if rng.random() < 0.5 else -c


def _graded_atom(rng: random.Random):
    return graded_atom(rng.randint(-GRADE_BOUND, GRADE_BOUND), rng.randint(0, H_POWER_BOUND))


def _eunit_atom(rng: random.Random):
    return eunit_atom(rng.randint(0, EUNIT_BOUND), rng.randint(0, EUNIT_BOUND))


def random_element1(rng: random.Random) -> Element1:
    pairs = []
    for _ in range(rng.randint(0, 3)):
        pairs.append((_graded_atom(rng), _coeff(rng)))
    for _ in range(rng.randint(0, 2)):
        pairs.append((_eunit_atom(rng), _coeff(rng)))
    return from_atoms(pairs)


def random_element_n(rng: random.Random, n: int) -> ElementN:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = tuple(
            _graded_atom(rng) if rng.random() < 0.7 else _eunit_atom(rng) for _ in range(n)
        )
        terms[key] = terms.get(key, 0) + _coeff(rng)
    return ElementN(n, {k: c for k, c in terms.items() if c})


def random_nonzero_element_n(rng: random.Random, n: int) -> ElementN:
    while True:
        e = random_element_n(rng, n)
        if not e.is_zero():
            return e


def random_weyl_word(rng: random.Random, n: int) -> ElementN:
    """A random product of at most WEYL_WORD_BOUND lifted x_i and d_i generators."""
    word = ElementN.one(n)
    for _ in range(rng.randint(0, WEYL_WORD_BOUND)):
        name = rng.choice(["x", "d"])
        factor = rng.randint(1, n)
        word = word * lift(factor, Element1.from_generator(name), n)
    return word

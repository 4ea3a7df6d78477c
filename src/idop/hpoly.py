"""Dense univariate polynomials in H with exact rational coefficients.

Polynomials are stored as tuples of `int | Fraction` indexed by power, with
the trailing coefficient nonzero; the zero polynomial is the empty tuple.
Coefficients stay `int` unless a non-integer was input: the rewrite rules
only shift H by integers and evaluate at integers, so integer inputs never
leave the integers, where arithmetic is far cheaper than on Fractions.  An
int equals, hashes and prints like the equal Fraction.
H is the Euler-type operator d/dx * x, which acts diagonally on monomials,
so evaluation at integers and the substitution H -> H + k do most of the
work in the rewriting engine.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]
HPoly = tuple  # tuple[int | Fraction, ...]

ZERO: HPoly = ()
ONE: HPoly = (1,)
H: HPoly = (0, 1)


def exact(c: object) -> Scalar:
    """Normalize a scalar entering the engine to `int`, or to `Fraction` when it
    is not an integer.  Only rational numbers are accepted: floats and every
    other type raise TypeError.  Fixed-width integers (NumPy's) become `int`,
    so they cannot overflow later."""
    if type(c) is int:
        return c
    if isinstance(c, numbers.Integral):
        return int(c)
    if not isinstance(c, numbers.Rational):
        raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__} {c!r}")
    c = Fraction(int(c.numerator), int(c.denominator))
    return c.numerator if c.denominator == 1 else c


def strip(cs: list) -> HPoly:
    """Drop trailing zeros from a list of coefficients that are already exact.

    Arithmetic on exact inputs gives exact results, so it needs no `exact` call.
    """
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: HPoly) -> int:
    return len(p) - 1


def add(p: HPoly, q: HPoly) -> HPoly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for t, c in enumerate(q):
        out[t] += c
    return strip(out)


def scale(c: Scalar, p: HPoly) -> HPoly:
    c = exact(c)
    if c == 0:
        return ZERO
    if c == 1:
        return p
    return tuple(c * a for a in p)


def mul(p: HPoly, q: HPoly) -> HPoly:
    if not p or not q:
        return ZERO
    out = [0] * (len(p) + len(q) - 1)
    for s, a in enumerate(p):
        if a:
            for t, b in enumerate(q):
                out[s + t] += a * b
    return strip(out)


def shift(p: HPoly, k: int) -> HPoly:
    """Substitute H -> H + k (Taylor shift by Horner on the linear factor)."""
    if k == 0 or not p:
        return p
    res: list[Scalar] = [p[-1]]
    for t in range(len(p) - 2, -1, -1):
        # res = res*(H+k) + p[t]
        nxt = [0] * (len(res) + 1)
        for u, c in enumerate(res):
            nxt[u] += k * c
            nxt[u + 1] += c
        nxt[0] += p[t]
        res = nxt
    return strip(res)


def evaluate(p: HPoly, v: Scalar) -> Scalar:
    acc = 0
    for c in reversed(p):
        acc = acc * v + c
    return acc


def divmod_monic(p: HPoly, m: HPoly) -> tuple[HPoly, HPoly]:
    """Quotient and remainder of p by a monic divisor m."""
    if not m or m[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(p)
    dq = len(p) - len(m)
    if dq < 0:
        return ZERO, strip(rem)
    quo = [0] * (dq + 1)
    for t in range(dq, -1, -1):
        c = rem[t + len(m) - 1]
        if c:
            quo[t] = c
            for u, b in enumerate(m):
                rem[t + u] -= c * b
    return strip(quo), strip(rem)


def rising_factorial(i: int) -> HPoly:
    """The monic product H(H+1)...(H+i-1); the empty product for i = 0."""
    out = ONE
    for k in range(i):
        out = mul(out, (k, 1))
    return out


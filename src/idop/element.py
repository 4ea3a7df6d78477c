"""The rank-1 rule table: basis atoms, blocks and their products.

The algebra acts on K[x] and is generated by d (differentiation), I
(integration with zero constant term) and H = d*x.  Writing v_i for I^i
(i > 0), 1 (i = 0) and d^|i| (i < 0), every operator is a unique finite sum

    sum_i  v_i * b_i(H)   +   sum_{s,t}  c_{st} * e(s,t)

with b_i in Q[H], where e(s,t) = I^s d^t - I^{s+1} d^{t+1} are the
matrix-unit-like elements spanning the unique proper two-sided ideal.  Its
basis atoms are v_i H^t and e(s,t); Element1, the rank-1 case of
tensor.ElementN, stores the form as a map from atoms to coefficients, so
equality of stored forms is equality of operators.

The rewrite rules are stated once, in _block_mul, on blocks: a grade block
v_i p(H) or one e-unit.  The one product, tensor._product, sums it over pairs
of last-slot blocks and multiplies the other slots atom by atom with
_atom_product, its unchecked case for two atoms; atom_mul is that case for
atoms given from outside, checked and returned as an Element1.  The filtration
(structure.bimodule_filtration_dims) restates the products with x and d in a
falling-factorial basis, and tests check it against atom_mul.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from . import hpoly

Scalar = Union[int, Fraction]

# A basis atom is ("v", i, t) for v_i * H^t, or ("e", s, t) for e(s,t).
Atom = Tuple[str, int, int]

ATOM_ONE: Atom = ("v", 0, 0)

# A block is ("v", i, p) for v_i * p(H), p a nonzero HPoly, or an e-unit atom.
Block = Tuple[str, int, object]


def _index(v: object, what: str) -> int:
    """An integer index entering the engine; floats and other types raise."""
    try:
        return operator.index(v)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {type(v).__name__} {v!r}") from None


def graded_atom(i: int, t: int) -> Atom:
    i, t = _index(i, "grade"), _index(t, "H-power")
    if t < 0:
        raise ValueError(f"H-power must be nonnegative, got {t}")
    return ("v", i, t)


def eunit_atom(s: int, t: int) -> Atom:
    s, t = _index(s, "e-unit index"), _index(t, "e-unit index")
    if s < 0 or t < 0:
        raise ValueError(f"e-unit indices must be nonnegative, got ({s},{t})")
    return ("e", s, t)


def _check_atom(atom: object) -> Atom:
    if not isinstance(atom, tuple) or len(atom) != 3:
        raise TypeError(f"an atom must be a (tag, int, int) tuple, got {atom!r}")
    tag, a, b = atom
    if tag == "v":
        return graded_atom(a, b)
    if tag == "e":
        return eunit_atom(a, b)
    raise ValueError(f"unknown atom tag {tag!r}, expected 'v' or 'e'")


def check_key(atoms: Iterable[object]) -> Tuple[Atom, ...]:
    """Validate basis atoms given from outside: each is ("v", i, t >= 0) or
    ("e", s >= 0, t >= 0) with integer indices.

    Plain-int atoms, the common case, pass an inline test without a call per
    atom; otherwise every atom is normalized to int or rejected with a
    one-line TypeError or ValueError."""
    key = tuple(atoms)
    for atom in key:
        if type(atom) is tuple and len(atom) == 3:
            tag, a, b = atom
            if type(a) is int and type(b) is int and b >= 0:
                if tag == "v" or (tag == "e" and a >= 0):
                    continue
        return tuple(map(_check_atom, key))
    return key


def atom_sort_key(atom: Atom) -> Tuple[int, int, int]:
    tag, a, b = atom
    return (0 if tag == "v" else 1, a, b)


def atom_grade(atom: Atom) -> int:
    """The grade of a basis atom: i for v_i H^t and s - t for e(s,t)."""
    tag, a, b = atom
    return a if tag == "v" else a - b


def from_atoms(pairs: Iterable[Tuple[Atom, Scalar]]) -> "Element1":
    """Reassemble an Element1 from (atom, coefficient) pairs, merging duplicates.

    Atoms are validated as in check_key and coefficients made exact."""
    try:
        pairs = [(atom, c) for atom, c in pairs]
    except (TypeError, ValueError) as exc:
        error = TypeError if isinstance(exc, TypeError) else ValueError
        raise error(
            f"pairs must be (atom, coefficient) pairs, got {type(pairs).__name__} ({exc})"
        ) from None
    terms: dict = {}
    for atom, (_, c) in zip(check_key(atom for atom, _ in pairs), pairs):
        terms[(atom,)] = terms.get((atom,), 0) + hpoly.exact(c)
    return Element1._make(1, {key: c for key, c in terms.items() if c})


def _graded_atom_str(i: int, t: int, suffix: str = "") -> str:
    parts = []
    if i > 0:
        parts.append(f"I{suffix}" if i == 1 else f"I{suffix}^{i}")
    elif i < 0:
        parts.append(f"d{suffix}" if i == -1 else f"d{suffix}^{-i}")
    if t > 0:
        parts.append(f"H{suffix}" if t == 1 else f"H{suffix}^{t}")
    return "*".join(parts)


def format_terms(terms: list[Tuple[Scalar, str]]) -> str:
    """Render a list of (coefficient, atom string) pairs; empty atom means a scalar."""
    if not terms:
        return "0"
    pieces: list[str] = []
    for idx, (c, a) in enumerate(terms):
        mag = abs(c)
        if not a:
            body = str(mag)
        elif mag == 1:
            body = a
        else:
            body = f"{mag}*{a}"
        if idx == 0:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(pieces)


def _block_mul(left: Block, right: Block) -> list[Tuple[Block, Scalar]]:
    """Product of two blocks, written back in canonical form as (block,
    coefficient) pairs: at most one grade block, with coefficient 1, first.

    This is the one rule table of the rank-1 algebra:
      p(H) v_j       = v_j p(H+j)
      d^m I^a        = v_{a-m}
      I^a d^m        = v_{a-m} - sum_{u < min(a,m)} e(u+max(a-m,0), u+max(m-a,0))
      p(H) e(s,t)    = p(s+1) e(s,t)        e(s,t) p(H) = p(t+1) e(s,t)
      I e(s,t)       = e(s+1,t)             d e(s,t)    = e(s-1,t)   (0 if s = 0)
      e(s,t) I       = e(s,t-1) (0 if t=0)  e(s,t) d    = e(s,t+1)
      e(s,t) e(u,v)  = [t == u] e(s,v)
    """
    ltag, la, lb = left
    rtag, ra, rb = right
    if ltag == "v" and rtag == "v":
        i, p, j, q = la, lb, ra, rb
        r = hpoly.mul(hpoly.shift(p, j), q)  # v_i p(H) v_j q(H) = v_i v_j p(H+j) q(H)
        out: list[Tuple[Block, Scalar]] = [(("v", i + j, r), 1)]
        if i > 0 and j < 0:
            a, m = i, -j
            ks, ts = max(a - m, 0), max(m - a, 0)
            for u in range(min(a, m)):
                c = hpoly.evaluate(r, u + ts + 1)
                if c:
                    out.append((("e", u + ks, u + ts), -c))
        return out
    if ltag == "v":
        i, p, u, v = la, lb, ra, rb
        c = hpoly.evaluate(p, u + 1) if u + i >= 0 else 0
        return [(("e", u + i, v), c)] if c else []
    if rtag == "v":
        u, v, j, q = la, lb, ra, rb
        vv = v - j
        c = hpoly.evaluate(q, vv + 1) if vv >= 0 else 0
        return [(("e", u, vv), c)] if c else []
    u, v, w, z = la, lb, ra, rb
    return [(("e", u, z), 1)] if v == w else []


def _atom_product(left: Atom, right: Atom) -> list[Tuple[Atom, Scalar]]:
    """Product of two valid basis atoms in canonical form, unchecked: _block_mul
    on the blocks v_i H^t and e(s,t), as (atom, coefficient) pairs with
    distinct atoms."""
    ltag, la, lb = left
    rtag, ra, rb = right
    if ltag == "v":
        lb = (0,) * lb + (1,)
    if rtag == "v":
        rb = (0,) * rb + (1,)
    out: list[Tuple[Atom, Scalar]] = []
    for block, c in _block_mul((ltag, la, lb), (rtag, ra, rb)):
        tag, a, b = block
        if tag == "e":
            out.append((block, c))
            continue
        for t, pc in enumerate(b):  # a grade block has coefficient 1
            if pc:
                out.append((("v", a, t), pc))
    return out


def atom_mul(left: Atom, right: Atom) -> "Element1":
    """Product of two basis atoms as an Element1: _atom_product after both atoms
    are validated as in check_key."""
    left, right = check_key((left, right))
    return Element1._make(1, {(atom,): c for atom, c in _atom_product(left, right)})


def atom_apply_power(atom: Atom, s: int) -> Optional[Tuple[Fraction, int]]:
    """Action of a basis atom on the monomial x^s: the resulting (coefficient, exponent).

    H x^s = (s+1) x^s, d x^s = s x^{s-1}, I x^s = x^{s+1}/(s+1), and
    e(u,v) x^s = [v == s] (s!/u!) x^u.  Each ratio of factorials is taken as
    the product over the exponents that change, so the work grows with the
    atom's indices, not with s.
    """
    tag, a, b = atom
    if tag == "v":
        i, t = a, b
        c = Fraction(s + 1) ** t
        if i >= 0:
            return (c / math.perm(s + i, i), s + i)
        m = -i
        if s < m:
            return None
        return (c * math.perm(s, m), s - m)
    u, v = a, b
    if s != v:
        return None
    if u <= v:
        return (Fraction(math.perm(v, v - u)), u)
    return (Fraction(1, math.perm(u, u - v)), u)


# Element1 is defined beside ElementN, of which it is the rank-1 case, and
# bound here for the rank-1 callers.  tensor reads the names above, so this
# import stays last, and the package imports this module before tensor.
from .tensor import Element1  # noqa: E402

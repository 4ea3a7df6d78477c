"""Canonical forms and exact arithmetic for rank-1 integro-differential operators.

The algebra acts on K[x] and is generated by d (differentiation), I
(integration with zero constant term) and H = d*x.  Writing v_i for I^i
(i > 0), 1 (i = 0) and d^|i| (i < 0), every operator is a unique finite sum

    sum_i  v_i * b_i(H)   +   sum_{s,t}  c_{st} * e(s,t)

with b_i in Q[H], where e(s,t) = I^s d^t - I^{s+1} d^{t+1} are the
matrix-unit-like elements spanning the unique proper two-sided ideal.
Element1 stores exactly this form: a sparse map degree -> H-polynomial and a
sparse map (s,t) -> coefficient.  Equality of stored forms is equality of
operators.

The rewrite rules are stated once, in _block_mul, on blocks: a grade block
v_i p(H) or one e-unit.  Element1 products are sums of it over pairs of
blocks, atom_mul is its case for two atoms (the blocks of ElementN), and
_generator_product is atom_mul's closed form for a factor x or d, which the
filtration's move tables read.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from . import hpoly

Scalar = Union[int, Fraction]

# A basis atom is ("v", i, t) for v_i * H^t, or ("e", s, t) for e(s,t).
Atom = Tuple[str, int, int]

ATOM_ONE: Atom = ("v", 0, 0)

# A block is ("v", i, p) for v_i * p(H), p a nonzero HPoly, or an e-unit atom.
Block = Tuple[str, int, object]

_EUNIT_NAME = re.compile(r"^e\((\d+)\s*,\s*(\d+)\)$")


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


class Element1:
    """A rank-1 operator in canonical form.  Values are immutable by convention."""

    __slots__ = ("graded", "fpart")

    def __init__(
        self,
        graded: Optional[Mapping[int, Sequence]] = None,
        fpart: Optional[Mapping[Tuple[int, int], Scalar]] = None,
    ):
        g: dict[int, hpoly.HPoly] = {}
        if graded:
            for i, p in graded.items():
                if type(i) is not int:
                    i = _index(i, "grade")
                p = hpoly.trim(p)
                if p:
                    g[i] = p
        f: dict[Tuple[int, int], Scalar] = {}
        if fpart:
            for (s, t), c in fpart.items():
                if type(s) is not int or type(t) is not int or s < 0 or t < 0:
                    s, t = eunit_atom(s, t)[1:]
                c = hpoly.exact(c)
                if c:
                    f[(s, t)] = c
        self.graded = g
        self.fpart = f

    @staticmethod
    def _make(graded: dict, fpart: dict) -> "Element1":
        """Wrap already canonical graded and e-unit maps without checking them."""
        out = Element1.__new__(Element1)
        out.graded, out.fpart = graded, fpart
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Element1":
        return Element1()

    @staticmethod
    def one() -> "Element1":
        return Element1({0: hpoly.ONE})

    @classmethod
    def from_generator(cls, name: str) -> "Element1":
        """Build a generator: 'x', 'd', 'I', 'H', or 'e(s,t)'."""
        if name == "x":
            return cls({1: hpoly.H})  # x = I*H
        if name == "d":
            return cls({-1: hpoly.ONE})
        if name == "I":
            return cls({1: hpoly.ONE})
        if name == "H":
            return cls({0: hpoly.H})
        m = _EUNIT_NAME.match(name)
        if m:
            return cls(fpart={(int(m.group(1)), int(m.group(2))): 1})
        raise ValueError(f"unknown generator {name!r}")

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.graded and not self.fpart

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element1):
            return NotImplemented
        return self.graded == other.graded and self.fpart == other.fpart

    __hash__ = None  # mutable dict fields; canonical equality only

    def atoms(self) -> Iterator[Tuple[Atom, Scalar]]:
        """Expand the canonical form over basis atoms (nonzero coefficients only)."""
        for i, p in self.graded.items():
            for t, c in enumerate(p):
                if c:
                    yield ("v", i, t), c
        for (s, t), c in self.fpart.items():
            yield ("e", s, t), c

    def blocks(self) -> Iterator[Tuple[Block, Scalar]]:
        """The canonical form as a sum of blocks, each v_i b_i(H) with coefficient 1."""
        for i, p in self.graded.items():
            yield ("v", i, p), 1
        for (s, t), c in self.fpart.items():
            yield ("e", s, t), c

    def support_vector(self) -> dict[Atom, Scalar]:
        return dict(self.atoms())

    # -- linear operations -------------------------------------------------

    def __add__(self, other: "Element1") -> "Element1":
        if not isinstance(other, Element1):
            return NotImplemented
        return _from_blocks(chain(self.blocks(), other.blocks()))

    def scale(self, c: Scalar) -> "Element1":
        c = hpoly.exact(c)
        return _from_blocks((block, c * cb) for block, cb in self.blocks())

    def __rmul__(self, c: Scalar) -> "Element1":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __neg__(self) -> "Element1":
        return self.scale(-1)

    def __sub__(self, other: "Element1") -> "Element1":
        return self + (-other)

    # -- multiplication ----------------------------------------------------

    def __mul__(self, other: "Element1") -> "Element1":
        """Product in canonical form: the sum of _block_mul over pairs of blocks."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Element1):
            return NotImplemented
        return _from_blocks(
            (block, c1 * c2 * c)
            for b1, c1 in self.blocks()
            for b2, c2 in other.blocks()
            for block, c in _block_mul(b1, b2).blocks()
        )

    def power(self, k: int) -> "Element1":
        k = _index(k, "exponent")
        if k < 0:
            raise ValueError("negative powers are not defined in the operator algebra")
        out = Element1.one()
        for _ in range(k):
            out = out * self
        return out

    # -- structural queries --------------------------------------------------

    def fdegree(self) -> int:
        """Size of the smallest square e-index block containing the e-part; -1 if none."""
        if not self.fpart:
            return -1
        return max(max(s, t) for s, t in self.fpart)

    def grade_component(self, i: int) -> "Element1":
        """The degree-i component: v_i b_i(H) plus all e(s,t) with s - t = i."""
        g = {i: self.graded[i]} if i in self.graded else None
        f = {k: c for k, c in self.fpart.items() if k[0] - k[1] == i}
        return Element1(g, f)

    def grades(self) -> set[int]:
        out = set(self.graded)
        out.update(s - t for s, t in self.fpart)
        return out

    def transpose(self) -> "Element1":
        """Matrix transpose in the divided-power basis: d <-> I, H fixed, e(s,t) -> e(t,s).

        An involutive anti-automorphism: v_i b(H) -> b(H) v_{-i} = v_{-i} b(H-i).
        """
        g = {-i: hpoly.shift(p, -i) for i, p in self.graded.items()}
        f = {(t, s): c for (s, t), c in self.fpart.items()}
        return Element1._make(g, f)

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        terms: list[Tuple[Scalar, str]] = []
        for i in sorted(self.graded):
            p = self.graded[i]
            for t, c in enumerate(p):
                if c:
                    terms.append((c, _graded_atom_str(i, t)))
        for (s, t) in sorted(self.fpart):
            terms.append((self.fpart[(s, t)], f"e({s},{t})"))
        return format_terms(terms)

    __repr__ = __str__


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


def from_atoms(pairs: Iterable[Tuple[Atom, Scalar]]) -> Element1:
    """Reassemble an Element1 from (atom, coefficient) pairs, merging duplicates.

    Atoms are validated as in check_key and coefficients made exact."""
    pairs = list(pairs)
    return _from_blocks(
        ((tag, a, (0,) * b + (1,) if tag == "v" else b), hpoly.exact(c))
        for (tag, a, b), (_, c) in zip(check_key(atom for atom, _ in pairs), pairs)
    )


def _from_blocks(pairs: Iterable[Tuple[Block, Scalar]]) -> Element1:
    """The sum of (block, coefficient) pairs, for valid blocks and exact coefficients."""
    g: dict[int, hpoly.HPoly] = {}
    f: dict[Tuple[int, int], Scalar] = {}
    for (tag, a, b), c in pairs:
        if tag == "v":
            g[a] = hpoly.add(g.get(a, hpoly.ZERO), hpoly.scale(c, b))
        else:
            f[(a, b)] = f.get((a, b), 0) + c
    return Element1._make({i: p for i, p in g.items() if p}, {k: c for k, c in f.items() if c})


def _block_mul(left: Block, right: Block) -> Element1:
    """Product of two blocks, written back in canonical form.

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
        f: dict[Tuple[int, int], Scalar] = {}
        if i > 0 and j < 0:
            a, m = i, -j
            ks, ts = max(a - m, 0), max(m - a, 0)
            for u in range(min(a, m)):
                c = hpoly.evaluate(r, u + ts + 1)
                if c:
                    f[(u + ks, u + ts)] = -c
        return Element1._make({i + j: r}, f)
    if ltag == "v":
        i, p, u, v = la, lb, ra, rb
        c = hpoly.evaluate(p, u + 1) if u + i >= 0 else 0
        return Element1._make({}, {(u + i, v): c} if c else {})
    if rtag == "v":
        u, v, j, q = la, lb, ra, rb
        vv = v - j
        c = hpoly.evaluate(q, vv + 1) if vv >= 0 else 0
        return Element1._make({}, {(u, vv): c} if c else {})
    u, v, w, z = la, lb, ra, rb
    return Element1._make({}, {(u, z): 1} if v == w else {})


def atom_mul(left: Atom, right: Atom) -> Element1:
    """Product of two basis atoms in canonical form: _block_mul on the blocks
    v_i H^t and e(s,t).  Both atoms are validated as in check_key."""
    (ltag, la, lb), (rtag, ra, rb) = check_key((left, right))
    if ltag == "v":
        lb = (0,) * lb + (1,)
    if rtag == "v":
        rb = (0,) * rb + (1,)
    return _block_mul((ltag, la, lb), (rtag, ra, rb))


X_ATOM: Atom = ("v", 1, 1)  # x = I*H
D_ATOM: Atom = ("v", -1, 0)

def _generator_product(left: Atom, right: Atom) -> Optional[Tuple[Tuple[Atom, Scalar], ...]]:
    """atom_mul's terms, in its order, when left or right is x or d; else None.

    atom_mul's rules specialize to
      x v_j H^t = v_{j+1} (j H^t + H^{t+1})    x e(s,t) = (s+1) e(s+1,t)
      d v_j H^t = v_{j-1} H^t                  d e(s,t) = e(s-1,t)   (0 if s = 0)
      v_i H^s d = v_{i-1} (H-1)^s - [i > 0, s = 0] e(i-1,0)
      v_i H^s x = v_{i+1} (H+1)^s H            e(s,t) d = e(s,t+1)
      e(s,t) x  = t e(s,t-1)                   (0 if t = 0)
    x v_j H^t has no e-unit: for j = -m < 0, atom_mul's one candidate has
    coefficient (m + j) m^t = 0."""
    if left == X_ATOM or left == D_ATOM:
        tag, j, t = right
        if left == D_ATOM:
            if tag == "e" and j == 0:
                return ()
            return (((tag, j - 1, t), 1),)
        if tag == "e":
            return ((("e", j + 1, t), j + 1),)
        if j == 0:
            return ((("v", 1, t + 1), 1),)
        return ((("v", j + 1, t), j), (("v", j + 1, t + 1), 1))
    if right == X_ATOM or right == D_ATOM:
        tag, i, s = left
        if tag == "e":
            if right == D_ATOM:
                return ((("e", i, s + 1), 1),)
            return ((("e", i, s - 1), s),) if s else ()
        if right == X_ATOM:
            return tuple((("v", i + 1, u + 1), math.comb(s, u)) for u in range(s + 1))
        if i > 0 and s == 0:
            return ((("v", i - 1, 0), 1), (("e", i - 1, 0), -1))
        return tuple((("v", i - 1, u), math.comb(s, u) * (-1) ** (s - u)) for u in range(s + 1))
    return None


def atom_apply_power(atom: Atom, s: int) -> Optional[Tuple[Fraction, int]]:
    """Action of a basis atom on the monomial x^s: the resulting (coefficient, exponent).

    H x^s = (s+1) x^s, d x^s = s x^{s-1}, I x^s = x^{s+1}/(s+1), and
    e(u,v) x^s = [v == s] (s!/u!) x^u.
    """
    tag, a, b = atom
    if tag == "v":
        i, t = a, b
        c = Fraction(s + 1) ** t
        if i >= 0:
            return (c * Fraction(math.factorial(s), math.factorial(s + i)), s + i)
        m = -i
        if s < m:
            return None
        return (c * Fraction(math.factorial(s), math.factorial(s - m)), s - m)
    u, v = a, b
    if s != v:
        return None
    return (Fraction(math.factorial(v), math.factorial(u)), u)


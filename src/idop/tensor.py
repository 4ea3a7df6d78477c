"""Rank-n operators as sparse combinations of tensor products of rank-1 atoms.

The rank-n algebra is the n-fold tensor product of the rank-1 algebra, acting
factor-wise on K[x_1, ..., x_n] (apply_n; rank 1 is apply_n(lift(1, a, 1), p)).
Keys are ordered tuples of basis atoms, so two ElementN values are equal as
operators iff their term maps are identical.  The quotient by the e-span is
the n-fold tensor power of the skew Laurent algebra Q[H][d, d^-1] (BnElement,
reached through project_bn; rank 1 is project_bn(lift(1, a, 1))).  Both
classes share one sparse-term arithmetic, _Terms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Mapping, Optional, Tuple, Union

from . import hpoly
from .element import (
    ATOM_ONE,
    Atom,
    Element1,
    _index,
    atom_apply_power,
    atom_mul,
    atom_sort_key,
    check_key,
    format_terms,
    from_atoms,
    _graded_atom_str,
)

Scalar = Union[int, Fraction]
Key = Tuple[Atom, ...]
SkewKey = Tuple[Tuple[int, int], ...]


class _Terms:
    """A sparse map key -> nonzero coefficient at a fixed tensor rank n >= 1.

    The constructor and linear operations of ElementN and BnElement; each
    subclass validates its keys in _check_key.  + and == take only values of
    the same class.  Values are immutable by convention."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Mapping[tuple, Scalar]] = None):
        if n < 1:
            raise ValueError(f"rank must be positive, got {n}")
        out: dict[tuple, Scalar] = {}
        if terms:
            for key, c in terms.items():
                if len(key) != n:
                    raise ValueError(f"key {key} has length {len(key)}, expected rank {n}")
                key = self._check_key(key)
                c = hpoly.exact(c)
                if c:
                    out[key] = c
        self.n, self.terms = n, out

    @classmethod
    def _make(cls, n: int, terms: dict):
        """Wrap an already canonical term map without checking it."""
        res = cls.__new__(cls)
        res.n, res.terms = n, terms
        return res

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def _require_same_rank(self, other: "_Terms") -> None:
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} != {other.n}")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._require_same_rank(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            d = out.get(k, 0) + c
            if d:
                out[k] = d
            else:
                out.pop(k, None)
        return self._make(self.n, out)

    def scale(self, c: Scalar):
        c = hpoly.exact(c)
        return self._make(self.n, {k: c * v for k, v in self.terms.items()} if c else {})

    def __rmul__(self, c: Scalar):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)


def _collect(out: dict, base: Scalar, factor_expansions: list) -> None:
    """Add base times every tensor product of the per-factor expansions, each a
    list of (key part, coefficient) pairs, to out, dropping sums that cancel."""
    for combo in product(*factor_expansions):
        key = tuple(part for part, _ in combo)
        c = base
        for _, cc in combo:
            c *= cc
        d = out.get(key, 0) + c
        if d:
            out[key] = d
        else:
            out.pop(key, None)


class ElementN(_Terms):
    """An operator of fixed tensor rank n >= 1: a sparse map Key -> coefficient."""

    __slots__ = ()

    _check_key = staticmethod(check_key)

    @staticmethod
    def one(n: int) -> "ElementN":
        return ElementN(n, {(ATOM_ONE,) * n: 1})

    def __mul__(self, other: "ElementN") -> "ElementN":
        """Factor-wise product: each pair of per-factor atoms is multiplied in
        rank 1 and the tensor expansion re-collected."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, ElementN):
            return NotImplemented
        self._require_same_rank(other)
        out: dict[Key, Scalar] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                factor_expansions = []
                for a1, a2 in zip(k1, k2):
                    prod1 = list(atom_mul(a1, a2).atoms())
                    if not prod1:
                        break
                    factor_expansions.append(prod1)
                else:
                    _collect(out, c1 * c2, factor_expansions)
        return ElementN._make(self.n, out)

    def power(self, k: int) -> "ElementN":
        k = _index(k, "exponent")
        if k < 0:
            raise ValueError("negative powers are not defined in the operator algebra")
        out = ElementN.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def __str__(self) -> str:
        if self.n == 1:
            return str(to_element1(self))
        terms: list[Tuple[Scalar, str]] = []
        for key in sorted(self.terms, key=lambda k: tuple(atom_sort_key(a) for a in k)):
            parts = []
            for f, atom in enumerate(key, start=1):
                s = _atom_str(atom, f"_{f}")
                if s:
                    parts.append(s)
            terms.append((self.terms[key], "*".join(parts)))
        return format_terms(terms)

    __repr__ = __str__


def _atom_str(atom: Atom, suffix: str) -> str:
    tag, a, b = atom
    if tag == "v":
        return _graded_atom_str(a, b, suffix)
    return f"e({a},{b}){suffix}"


def lift(factor: int, a: Element1, n: int) -> ElementN:
    """Embed a rank-1 operator into the given tensor slot (1-based)."""
    if not 1 <= factor <= n:
        raise ValueError(f"factor index {factor} out of range 1..{n}")
    terms: dict[Key, Scalar] = {}
    for atom, c in a.atoms():
        key = tuple(atom if k == factor else ATOM_ONE for k in range(1, n + 1))
        terms[key] = c
    return ElementN(n, terms)


def to_element1(a: ElementN) -> Element1:
    if a.n != 1:
        raise ValueError(f"expected rank 1, got rank {a.n}")
    return from_atoms(((key[0], c) for key, c in a.terms.items()))


def apply_n(a: ElementN, p: Mapping[Tuple[int, ...], Scalar]) -> dict[Tuple[int, ...], Fraction]:
    """Act on a polynomial in x_1..x_n given as a sparse exponent-vector map."""
    out: dict[Tuple[int, ...], Fraction] = {}
    for key, c in a.terms.items():
        for exps, cp in p.items():
            if len(exps) != a.n:
                raise ValueError(f"monomial {exps} has {len(exps)} variables, expected {a.n}")
            coeff = c * hpoly.exact(cp)
            new_exps = []
            dead = False
            for atom, s in zip(key, exps):
                res = atom_apply_power(atom, s)
                if res is None:
                    dead = True
                    break
                cc, r = res
                coeff *= cc
                new_exps.append(r)
            if dead or not coeff:
                continue
            k = tuple(new_exps)
            val = out.get(k, Fraction(0)) + coeff
            if val:
                out[k] = val
            else:
                out.pop(k, None)
    return out


def _skew_terms(k: int, p: hpoly.HPoly) -> list:
    """The per-factor expansion of p(H) d^k: ((k, m), coefficient of H^m) pairs."""
    return [((k, m), c) for m, c in enumerate(p) if c]


class BnElement(_Terms):
    """Rank-n image under the quotient by the e-span: tensors of skew Laurent terms.

    Keys are n-tuples of (k, t) pairs, the per-factor coefficient of H^t d^k,
    with integer k of any sign and t >= 0.  Multiplication twists by
    d^k p(H) = p(H+k) d^k; d^-1 exists in the quotient because
    I d = 1 - e(0,0) dies there.
    """

    __slots__ = ()

    @staticmethod
    def _check_key(key: SkewKey) -> SkewKey:
        out = []
        for k, t in key:
            k, t = _index(k, "d-power"), _index(t, "H-power")
            if t < 0:
                raise ValueError(f"H-power must be nonnegative, got {t}")
            out.append((k, t))
        return tuple(out)

    @staticmethod
    def one(n: int) -> "BnElement":
        return BnElement(n, {((0, 0),) * n: 1})

    def __mul__(self, other: "BnElement") -> "BnElement":
        if not isinstance(other, BnElement):
            return NotImplemented
        self._require_same_rank(other)
        out: dict[SkewKey, Scalar] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                # H^t d^k H^u d^l = H^t (H+k)^u d^{k+l}, factor by factor
                factor_expansions = [
                    _skew_terms(k + l, hpoly.mul((0,) * t + (1,), hpoly.shift((0,) * u + (1,), k)))
                    for (k, t), (l, u) in zip(k1, k2)
                ]
                _collect(out, c1 * c2, factor_expansions)
        return BnElement._make(self.n, out)

    def __str__(self) -> str:
        terms: list[Tuple[Scalar, str]] = []
        for key in sorted(self.terms):
            parts = []
            for f, (k, t) in enumerate(key, start=1):
                suffix = "" if self.n == 1 else f"_{f}"
                if t > 0:
                    parts.append(f"H{suffix}" if t == 1 else f"H{suffix}^{t}")
                if k != 0:
                    parts.append(f"d{suffix}" if k == 1 else f"d{suffix}^{k}")
            terms.append((self.terms[key], "*".join(parts)))
        return format_terms(terms)

    __repr__ = __str__


def project_bn(a: ElementN) -> BnElement:
    """Quotient map killing every tensor with an e-unit in any factor,
    applied factor-wise on the rest.  A ring homomorphism."""
    out: dict[SkewKey, Scalar] = {}
    for key, c in a.terms.items():
        if any(atom[0] == "e" for atom in key):
            continue
        # v_i H^t maps to d^{-i} H^t = (H-i)^t d^{-i}
        _collect(out, c, [_skew_terms(-i, hpoly.shift((0,) * t + (1,), -i)) for _, i, t in key])
    return BnElement._make(a.n, out)

"""Rank-n operators as sparse combinations of tensor products of rank-1 atoms.

The rank-n algebra is the n-fold tensor product of the rank-1 algebra, acting
factor-wise on K[x_1, ..., x_n].  Keys are ordered tuples of basis atoms, so
two ElementN values are equal as operators iff their term maps are identical.
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


class ElementN:
    """An operator of fixed tensor rank n >= 1."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Mapping[Key, Scalar]] = None):
        if n < 1:
            raise ValueError(f"rank must be positive, got {n}")
        self.n = n
        out: dict[Key, Scalar] = {}
        if terms:
            for key, c in terms.items():
                if len(key) != n:
                    raise ValueError(f"key {key} has length {len(key)}, expected rank {n}")
                key = check_key(key)
                c = hpoly.exact(c)
                if c:
                    out[key] = c
        self.terms = out

    @staticmethod
    def zero(n: int) -> "ElementN":
        return ElementN(n)

    @staticmethod
    def one(n: int) -> "ElementN":
        return ElementN(n, {(ATOM_ONE,) * n: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElementN):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def _require_same_rank(self, other: "ElementN") -> None:
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} != {other.n}")

    def __add__(self, other: "ElementN") -> "ElementN":
        if not isinstance(other, ElementN):
            return NotImplemented
        self._require_same_rank(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            d = out.get(k, 0) + c
            if d:
                out[k] = d
            else:
                out.pop(k, None)
        res = ElementN.__new__(ElementN)
        res.n, res.terms = self.n, out
        return res

    def scale(self, c: Scalar) -> "ElementN":
        c = hpoly.exact(c)
        res = ElementN.__new__(ElementN)
        res.n = self.n
        res.terms = {k: c * v for k, v in self.terms.items()} if c else {}
        return res

    def __rmul__(self, c: Scalar) -> "ElementN":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __neg__(self) -> "ElementN":
        return self.scale(-1)

    def __sub__(self, other: "ElementN") -> "ElementN":
        return self + (-other)

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
                dead = False
                for a1, a2 in zip(k1, k2):
                    prod1 = list(atom_mul(a1, a2).atoms())
                    if not prod1:
                        dead = True
                        break
                    factor_expansions.append(prod1)
                if dead:
                    continue
                base = c1 * c2
                for combo in product(*factor_expansions):
                    key = tuple(at for at, _ in combo)
                    c = base
                    for _, cc in combo:
                        c *= cc
                    d = out.get(key, 0) + c
                    if d:
                        out[key] = d
                    else:
                        out.pop(key, None)
        res = ElementN.__new__(ElementN)
        res.n, res.terms = self.n, out
        return res

    def power(self, k: int) -> "ElementN":
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


class BnElement:
    """Rank-n image under the quotient by the e-span: tensors of skew Laurent terms.

    Keys are n-tuples of (k, t) pairs, the per-factor coefficient of H^t d^k.
    """

    __slots__ = ("n", "terms")

    def __init__(
        self, n: int, terms: Optional[Mapping[Tuple[Tuple[int, int], ...], Scalar]] = None
    ):
        if n < 1:
            raise ValueError(f"rank must be positive, got {n}")
        self.n = n
        out: dict[Tuple[Tuple[int, int], ...], Scalar] = {}
        if terms:
            for key, c in terms.items():
                if len(key) != n:
                    raise ValueError(f"key {key} has length {len(key)}, expected rank {n}")
                c = hpoly.exact(c)
                if c:
                    out[tuple((int(k), int(t)) for k, t in key)] = c
        self.terms = out

    @staticmethod
    def zero(n: int) -> "BnElement":
        return BnElement(n)

    @staticmethod
    def one(n: int) -> "BnElement":
        return BnElement(n, {((0, 0),) * n: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BnElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "BnElement") -> "BnElement":
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} != {other.n}")
        out = dict(self.terms)
        for k, c in other.terms.items():
            d = out.get(k, 0) + c
            if d:
                out[k] = d
            else:
                out.pop(k, None)
        res = BnElement.__new__(BnElement)
        res.n, res.terms = self.n, out
        return res

    def scale(self, c: Scalar) -> "BnElement":
        c = hpoly.exact(c)
        res = BnElement.__new__(BnElement)
        res.n = self.n
        res.terms = {k: c * v for k, v in self.terms.items()} if c else {}
        return res

    def __rmul__(self, c: Scalar) -> "BnElement":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __neg__(self) -> "BnElement":
        return self.scale(-1)

    def __sub__(self, other: "BnElement") -> "BnElement":
        return self + (-other)

    def __mul__(self, other: "BnElement") -> "BnElement":
        if not isinstance(other, BnElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} != {other.n}")
        out: dict[Tuple[Tuple[int, int], ...], Scalar] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                factor_expansions = []
                for (k, t), (l, u) in zip(k1, k2):
                    # H^t d^k H^u d^l = H^t (H+k)^u d^{k+l}
                    p = hpoly.mul((0,) * t + (1,), hpoly.shift((0,) * u + (1,), k))
                    factor_expansions.append(
                        [((k + l, m), c) for m, c in enumerate(p) if c]
                    )
                base = c1 * c2
                for combo in product(*factor_expansions):
                    key = tuple(pair for pair, _ in combo)
                    c = base
                    for _, cc in combo:
                        c *= cc
                    d = out.get(key, 0) + c
                    if d:
                        out[key] = d
                    else:
                        out.pop(key, None)
        res = BnElement.__new__(BnElement)
        res.n, res.terms = self.n, out
        return res

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
    out: dict[Tuple[Tuple[int, int], ...], Scalar] = {}
    for key, c in a.terms.items():
        if any(atom[0] == "e" for atom in key):
            continue
        factor_expansions = []
        for tag, i, t in key:
            # v_i H^t maps to d^{-i} H^t = (H-i)^t d^{-i}
            p = hpoly.shift((0,) * t + (1,), -i)
            factor_expansions.append([((-i, m), cc) for m, cc in enumerate(p) if cc])
        for combo in product(*factor_expansions):
            k = tuple(pair for pair, _ in combo)
            cc = c
            for _, c2 in combo:
                cc *= c2
            d = out.get(k, 0) + cc
            if d:
                out[k] = d
            else:
                out.pop(k, None)
    res = BnElement.__new__(BnElement)
    res.n, res.terms = a.n, out
    return res

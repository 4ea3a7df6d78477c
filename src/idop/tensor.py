"""Operators of every tensor rank: one sparse term map and one product.

The rank-n algebra is the n-fold tensor product of the rank-1 algebra, acting
factor-wise on K[x_1, ..., x_n] (apply_n).  An ElementN is a sparse map from
n-tuples of basis atoms to nonzero coefficients.  Keys are ordered tuples, so
two values are equal as operators iff their term maps are identical.
Element1 is the rank-1 case: the same term map with keys of one atom, plus the
rank-1 constructor from a canonical form and read-only graded/fpart views of
it.  lift and to_element1 move between them without rebuilding terms.

_product is the one product.  It folds each operand's last slot into blocks
v_i p(H) (all H-powers of one grade under one head, the atoms of the other
slots) and e-units, multiplies last slots with element._block_mul and head
slots atom by atom with element._atom_product, and collects graded results as
polynomials.  At rank 1 every head is empty, so it is the block product of the
rank-1 rule table.

The quotient by the e-span is the n-fold tensor power of the skew Laurent
algebra Q[H][d, d^-1] (BnElement, reached through project_bn).  ElementN and
BnElement share one sparse-term linear arithmetic, _Terms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Optional, Tuple, Union

from . import hpoly
from .element import (
    ATOM_ONE,
    Atom,
    _atom_product,
    _block_mul,
    _graded_atom_str,
    _index,
    atom_apply_power,
    atom_mul,  # noqa: F401 -- not called here; perfbench's tracer wraps tensor.atom_mul
    atom_sort_key,
    check_key,
    format_terms,
)

Scalar = Union[int, Fraction]
Key = Tuple[Atom, ...]
SkewKey = Tuple[Tuple[int, int], ...]

# Largest tensor rank, checked before any key or exponent tuple of that length
# is built: well above rank 3, the largest that the verification suites and
# the benchmark use.
MAX_RANK = 16

# Largest exponent of ElementN.power, and largest product of nested exponents
# in expr's parse trees, checked before any product is formed, so that
# (x+d)^400 is refused instead of running for hours; (x+d)^60 is the largest
# power measured.
MAX_EXPONENT = 60

# The graded parts of the generators; x = I*H.
_GENERATORS = {"x": {1: hpoly.H}, "d": {-1: hpoly.ONE}, "I": {1: hpoly.ONE}, "H": {0: hpoly.H}}


def check_rank(n: object) -> int:
    """A tensor rank entering the engine: an integer in 1..MAX_RANK."""
    n = _index(n, "rank")
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    if n > MAX_RANK:
        raise ValueError(f"rank {n} exceeds the budget {MAX_RANK}")
    return n


def check_operator(a: object, name: str = "a") -> None:
    """The rule of every operation on operators: its operand is an ElementN."""
    if not isinstance(a, ElementN):
        raise TypeError(f"{name} must be an operator, got {type(a).__name__} {a!r}")


def _mapping(m: object, name: str) -> Mapping:
    """A term map or polynomial entering the engine: a mapping, or None for empty."""
    if m is None:
        return {}
    if type(m) is not dict and not isinstance(m, Mapping):
        raise TypeError(f"{name} must be a mapping, got {type(m).__name__} {m!r}")
    return m


def check_rank1(a: object) -> None:
    """The rule of every rank-1 operation: its operand is an operator of rank 1."""
    check_operator(a)
    if a.n != 1:
        raise ValueError(f"expected rank 1, got rank {a.n}")


class _Terms:
    """A sparse map key -> nonzero coefficient at a fixed tensor rank n >= 1.

    The constructor and linear operations of ElementN and BnElement; each
    subclass validates its keys in _check_key.  + and == take values of one
    family (_family): Element1 and ElementN mix, and a sum is an Element1 only
    when both operands are; BnElement stays apart.  Values are immutable by
    convention."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Mapping[tuple, Scalar]] = None):
        n = check_rank(n)
        out: dict[tuple, Scalar] = {}
        for key, c in _mapping(terms, "terms").items():
            if type(key) is not tuple and not isinstance(key, tuple):
                raise TypeError(f"terms key must be a tuple, got {type(key).__name__} {key!r}")
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
        if not isinstance(other, self._family):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def _require_same_rank(self, other: "_Terms") -> None:
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} != {other.n}")

    def __add__(self, other):
        if not isinstance(other, self._family):
            return NotImplemented
        self._require_same_rank(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            d = out.get(k, 0) + c
            if d:
                out[k] = d
            else:
                out.pop(k, None)
        cls = type(self) if type(other) is type(self) else self._family
        return cls._make(self.n, out)

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
    list of (key part, coefficient) pairs, to out, dropping sums that cancel:
    the heads of _product, BnElement.__mul__, project_bn, apply_n,
    structure._label_components and the polynomial product of expr._Poly."""
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


def _last_slot_blocks(terms: Mapping[Key, Scalar]) -> dict[Key, list]:
    """Group a term map by head, the atoms of every slot but the last, into
    (block, coefficient) pairs for the last slot: first a block ("v", i, p)
    with coefficient 1 per grade i, p holding the coefficients of every H-power
    of that grade under the head, then each e-unit with its coefficient."""
    polys: dict[Tuple[Key, int], list] = {}
    eunits = []
    for key, c in terms.items():
        head, last = key[:-1], key[-1]
        tag, i, t = last
        if tag == "v":
            p = polys.get((head, i))
            if p is None:
                polys[(head, i)] = [0] * t + [c]
            elif t < len(p):
                p[t] = c
            else:  # the common case: H-powers arrive in increasing order
                p += [0] * (t - len(p))
                p.append(c)
        else:
            eunits.append((head, last, c))
    out: dict[Key, list] = {}
    for (head, i), p in polys.items():
        out.setdefault(head, []).append((("v", i, tuple(p)), 1))
    for head, last, c in eunits:
        out.setdefault(head, []).append((last, c))
    return out


def _product(a: "ElementN", b: object):
    """The product of a and b in canonical form: a scalar scales a; an
    ElementN of a's rank is multiplied block by block, and the product is an
    Element1 only when both operands are.

    Each pair of heads is multiplied once, slot by slot with the unchecked
    _atom_product, whose (atom, coefficient) pairs _collect tensors together,
    and each pair of last-slot blocks under them once, with _block_mul.
    Graded results are collected per (head, grade) as H-polynomials, so a
    dense graded component is shifted and multiplied once, not once per
    atom."""
    if isinstance(b, (int, Fraction)):
        return a.scale(b)
    if not isinstance(b, ElementN):
        return NotImplemented
    a._require_same_rank(b)
    graded: dict[Tuple[Key, int], hpoly.HPoly] = {}
    eunits: dict[Key, Scalar] = {}
    right = _last_slot_blocks(b.terms)
    for h1, blocks1 in _last_slot_blocks(a.terms).items():
        for h2, blocks2 in right.items():
            heads: dict[Key, Scalar] = {}  # the head products, {(): 1} at rank 1
            _collect(heads, 1, [_atom_product(a1, a2) for a1, a2 in zip(h1, h2)])
            if not heads:
                continue
            for b1, c1 in blocks1:
                for b2, c2 in blocks2:
                    for block, c in _block_mul(b1, b2):
                        c *= c1 * c2
                        if block[0] == "e":
                            for head, ch in heads.items():
                                key = head + (block,)
                                eunits[key] = eunits.get(key, 0) + c * ch
                            continue
                        _, i, p = block
                        for head, ch in heads.items():
                            q = graded.get((head, i), hpoly.ZERO)
                            graded[(head, i)] = hpoly.add(q, hpoly.scale(c * ch, p))
    terms: dict[Key, Scalar] = {}
    for (head, i), p in graded.items():
        for t, c in enumerate(p):
            if c:
                terms[head + (("v", i, t),)] = c
    for key, c in eunits.items():
        if c:
            terms[key] = c
    return (type(a) if type(b) is type(a) else ElementN)._make(a.n, terms)


class ElementN(_Terms):
    """An operator of fixed tensor rank n >= 1: a sparse map Key -> coefficient."""

    __slots__ = ()

    _check_key = staticmethod(check_key)

    @staticmethod
    def one(n: int) -> "ElementN":
        n = check_rank(n)
        return ElementN(n, {(ATOM_ONE,) * n: 1})

    def __mul__(self, other: "ElementN") -> "ElementN":
        """The product, for every rank; see _product."""
        return _product(self, other)

    def power(self, k: int) -> "ElementN":
        k = _index(k, "exponent")
        if k < 0:
            raise ValueError("negative powers are not defined in the operator algebra")
        if k > MAX_EXPONENT:
            raise ValueError(f"exponent {k} exceeds the budget {MAX_EXPONENT}")
        out = self._make(self.n, {(ATOM_ONE,) * self.n: 1})
        for _ in range(k):
            out = out * self
        return out

    def __str__(self) -> str:
        terms: list[Tuple[Scalar, str]] = []
        for key in sorted(self.terms, key=lambda k: tuple(atom_sort_key(a) for a in k)):
            parts = []
            for f, atom in enumerate(key, start=1):
                s = _atom_str(atom, "" if self.n == 1 else f"_{f}")
                if s:
                    parts.append(s)
            terms.append((self.terms[key], "*".join(parts)))
        return format_terms(terms)

    __repr__ = __str__


ElementN._family = ElementN


def _atom_str(atom: Atom, suffix: str) -> str:
    tag, a, b = atom
    if tag == "v":
        return _graded_atom_str(a, b, suffix)
    return f"e({a},{b}){suffix}"


class Element1(ElementN):
    """A rank-1 operator: an ElementN of rank 1, built from its canonical form.

    Element1(graded, fpart) takes the graded part as a map grade i -> the
    coefficients of b_i(H) and the e-part as a map (s, t) -> coefficient, and
    checks them as one term map, after refusing a graded value that is not a
    coefficient sequence and an e-part key that is not a pair.  The graded and
    fpart properties read it back."""

    __slots__ = ()

    def __init__(
        self,
        graded: Optional[Mapping[int, object]] = None,
        fpart: Optional[Mapping[Tuple[int, int], Scalar]] = None,
    ):
        graded, fpart = _mapping(graded, "graded"), _mapping(fpart, "fpart")
        terms = {}
        for i, p in graded.items():
            if isinstance(p, (Mapping, str, bytes, bytearray)) or not isinstance(p, Iterable):
                raise TypeError(
                    f"graded[{i!r}] must be a coefficient sequence, got {type(p).__name__} {p!r}"
                )
            terms.update(((("v", i, t),), c) for t, c in enumerate(p))
        for key, c in fpart.items():
            if type(key) is not tuple or len(key) != 2:
                raise (ValueError if isinstance(key, tuple) else TypeError)(
                    f"fpart key must be an (s, t) pair, got {type(key).__name__} {key!r}"
                )
            terms[(("e", *key),)] = c
        super().__init__(1, terms)

    @staticmethod
    def zero() -> "Element1":
        return Element1()

    @staticmethod
    def one() -> "Element1":
        return Element1({0: hpoly.ONE})

    @classmethod
    def from_generator(cls, name: str) -> "Element1":
        """Build a generator: 'x', 'd', 'I' or 'H'; e-units come from Element1(fpart=...)."""
        if name in _GENERATORS:
            return cls(_GENERATORS[name])
        raise ValueError(f"unknown generator {name!r}")

    # The product is ElementN's; this separate entry lets perfbench's tracer
    # time rank-1 products apart from rank-n ones.
    def __mul__(self, other: "Element1") -> "Element1":
        return _product(self, other)

    @property
    def graded(self) -> dict[int, hpoly.HPoly]:
        """The graded part, grade i -> b_i(H), read from the term map."""
        blocks = _last_slot_blocks(self.terms).get((), ())
        return {i: p for (tag, i, p), _ in blocks if tag == "v"}

    @property
    def fpart(self) -> dict[Tuple[int, int], Scalar]:
        """The e-part, (s, t) -> coefficient, read from the term map."""
        return {(s, t): c for ((tag, s, t),), c in self.terms.items() if tag == "e"}

    def atoms(self):
        """The term map as (atom, coefficient) pairs."""
        for (atom,), c in self.terms.items():
            yield atom, c

    def fdegree(self) -> int:
        """The largest index u or v of an e-unit e(u,v) in the e-part; -1 if none."""
        return max((max(s, t) for s, t in self.fpart), default=-1)


def lift(factor: int, a: Element1, n: int) -> ElementN:
    """Embed a rank-1 operator into the given tensor slot (1-based)."""
    n, factor = check_rank(n), _index(factor, "factor index")
    if not 1 <= factor <= n:
        raise ValueError(f"factor index {factor} out of range 1..{n}")
    check_rank1(a)
    before, after = (ATOM_ONE,) * (factor - 1), (ATOM_ONE,) * (n - factor)
    return ElementN._make(n, {before + key + after: c for key, c in a.terms.items()})


def to_element1(a: ElementN) -> Element1:
    """View a rank-1 ElementN as an Element1; the terms are kept."""
    check_rank1(a)
    return Element1._make(1, a.terms)


def apply_n(a: ElementN, p: Mapping[Tuple[int, ...], Scalar]) -> dict[Tuple[int, ...], Fraction]:
    """Act on a polynomial in x_1..x_n given as a sparse exponent-vector map."""
    check_operator(a)
    p = _mapping(p, "p")
    for exps in p:
        if not isinstance(exps, tuple):
            raise TypeError(f"p key must be an exponent tuple, got {type(exps).__name__} {exps!r}")
        if len(exps) != a.n:
            raise ValueError(f"monomial {exps} has {len(exps)} variables, expected {a.n}")
        for e in exps:
            if _index(e, f"an exponent of monomial {exps}") < 0:
                raise ValueError(f"monomial {exps} has a negative exponent")
    p = {exps: hpoly.exact(c) for exps, c in p.items()}
    out: dict[Tuple[int, ...], Fraction] = {}
    for key, c in a.terms.items():
        for exps, cp in p.items():
            # each slot's image is (coefficient, exponent), or None when it is 0
            images = map(atom_apply_power, key, exps)
            _collect(out, c * cp, [[image[::-1]] if image else [] for image in images])
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
        n = check_rank(n)
        return BnElement(n, {((0, 0),) * n: 1})

    def __mul__(self, other: "BnElement") -> "BnElement":
        if not isinstance(other, BnElement):
            return self.__rmul__(other)  # a scalar scales, anything else is NotImplemented
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


BnElement._family = BnElement


def project_bn(a: ElementN) -> BnElement:
    """Quotient map killing every tensor with an e-unit in any factor,
    applied factor-wise on the rest.  A ring homomorphism."""
    check_operator(a)
    out: dict[SkewKey, Scalar] = {}
    for key, c in a.terms.items():
        if any(atom[0] == "e" for atom in key):
            continue
        # v_i H^t maps to d^{-i} H^t = (H-i)^t d^{-i}
        _collect(out, c, [_skew_terms(-i, hpoly.shift((0,) * t + (1,), -i)) for _, i, t in key])
    return BnElement._make(a.n, out)

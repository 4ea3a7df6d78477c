"""Independent truncated-matrix model and exact rational linear algebra.

Every operator here is a column-finite infinite matrix in the divided-power
basis x^[s] = x^s/s!.  Truncating to the first N rows and columns gives an
exact finite model; the window in `consistent` is the set of columns on which
truncation loses nothing, so products of canonical forms can be checked
against literal matrix products.

The matrix entries are computed only from the action of the three generators
on polynomials — never from the rewrite rules — and e-units act through their
defining combination I^s d^t - I^{s+1} d^{t+1}.  That keeps this module an
independent referee for the symbolic engine.  There is one atom action, on
the divided-power basis, for every rank; the monomial-basis matrix is its
change of basis, as x^s = s! x^[s].
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Hashable, Mapping, Optional, Tuple, Union

from .element import Atom, Element1, _index, atom_grade
from .hpoly import exact
from .tensor import ElementN, check_operator, check_rank1

# Largest matrix dimension size**rank a TruncMatrix may have: a dense
# 4096 x 4096 grid of Python ints already takes over 100 MB.
MAX_MATRIX_DIM = 4096


class TruncMatrix:
    """An exact dim x dim rational matrix; dim = size**rank for tensor operators.

    Column s holds the image of the s-th basis vector; for rank n the basis
    index encodes (s_1, ..., s_n) with factor 1 most significant.
    """

    __slots__ = ("size", "rank", "entries")

    def __init__(self, size: int, rank: int = 1):
        size, rank = _index(size, "size"), _index(rank, "rank")
        if size < 1:
            raise ValueError(f"size must be positive, got {size}")
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        dim = size**rank
        if dim > MAX_MATRIX_DIM:
            raise ValueError(
                f"matrix dimension {size}^{rank} = {dim} exceeds the budget {MAX_MATRIX_DIM}"
            )
        self.size = size
        self.rank = rank
        self.entries = [[0] * dim for _ in range(dim)]

    @property
    def dim(self) -> int:
        return self.size**self.rank

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncMatrix):
            return NotImplemented
        return (
            self.size == other.size
            and self.rank == other.rank
            and self.entries == other.entries
        )

    __hash__ = None

    def __matmul__(self, other: "TruncMatrix") -> "TruncMatrix":
        if not isinstance(other, TruncMatrix):
            return NotImplemented
        if self.size != other.size or self.rank != other.rank:
            raise ValueError("matrix shape mismatch")
        dim = self.dim
        out = TruncMatrix(self.size, self.rank)
        for i in range(dim):
            arow = self.entries[i]
            crow = out.entries[i]
            for k in range(dim):
                a = arow[k]
                if a:
                    brow = other.entries[k]
                    for j in range(dim):
                        b = brow[j]
                        if b:
                            crow[j] += a * b
        return out

    def __repr__(self) -> str:
        rows = [" ".join(str(c) for c in row) for row in self.entries]
        return "\n".join(rows)


def _divided_atom_action(atom: Atom, s: int) -> Optional[Tuple[int, int]]:
    # x^[s] -> x^[s-1] under d (0 at s=0), x^[s+1] under I, (s+1)x^[s] under H.
    tag, a, b = atom
    if tag == "v":
        i, t = a, b
        row = s + i
        if row < 0:
            return None
        return ((s + 1) ** t, row)
    # e-unit via its definition: I^u d^v - I^{u+1} d^{v+1}; both terms land on
    # the same row with coefficient 1, so only the s == v column survives.
    u, v = a, b
    total = (1 if s >= v else 0) - (1 if s >= v + 1 else 0)
    if not total:
        return None
    return (total, s - v + u)


def to_matrix(a: Element1, N: int) -> TruncMatrix:
    """Truncated matrix in the divided-power basis; images of degree >= N are dropped."""
    check_rank1(a)
    mat = TruncMatrix(N)
    for (atom,), c in a.terms.items():
        for s in range(N):
            res = _divided_atom_action(atom, s)
            if res is not None and res[1] < N:
                mat.entries[res[1]][s] += c * res[0]
    return mat


def to_matrix_monomial(a: Element1, N: int) -> TruncMatrix:
    """Truncated matrix in the plain monomial basis x^s (secondary convention).

    Since x^s = s! x^[s], entry (r, s) is the divided-power entry times s!/r!."""
    mat = to_matrix(a, N)
    fact = [math.factorial(s) for s in range(N)]
    for r, row in enumerate(mat.entries):
        for s, v in enumerate(row):
            if v:
                row[s] = Fraction(v * fact[s], fact[r])
    return mat


def to_matrix_n(a: ElementN, N: int) -> TruncMatrix:
    """Divided-power matrix of a rank-n operator, size N**n."""
    check_operator(a)
    mat = TruncMatrix(N, rank=a.n)
    for col, multi in enumerate(product(range(N), repeat=a.n)):
        for key, c in a.terms.items():
            row = 0
            for atom, s in zip(key, multi):
                res = _divided_atom_action(atom, s)
                if res is None or res[1] >= N:
                    break
                c *= res[0]
                row = row * N + res[1]
            else:
                mat.entries[row][col] += c
    return mat


def up(a: ElementN) -> int:
    """Largest amount by which a can raise polynomial degree in any factor:
    max(0, positive grades in the support), with e(s,t) counted as grade s - t."""
    check_operator(a)
    return max([0] + [atom_grade(atom) for key in a.terms for atom in key])


def consistent(a, b, N: int) -> bool:
    """Check mul against the literal truncated matrix product on the sound window.

    A column is unaffected by truncation whenever each of its slot indices s
    has s + up(a) + up(b) < N, so on those columns the two matrices must agree
    exactly.  Raises ValueError when the window is empty.
    """
    check_operator(b, "b")  # up(b) would call it a
    N = _index(N, "N")
    ua, ub = up(a), up(b)
    w = N - ua - ub
    if w <= 0:
        raise ValueError(f"empty validity window: N={N} <= up(a)+up(b)={ua + ub}")
    build = to_matrix if a.n == 1 else to_matrix_n  # to_matrix_n is about 2x slower at rank 1
    prod, mm = build(a * b, N), build(a, N) @ build(b, N)
    cols = product(range(N), repeat=a.n)
    window = itemgetter(*(col for col, multi in enumerate(cols) if max(multi) < w))
    return all(window(p) == window(m) for p, m in zip(prod.entries, mm.entries))


class RowReducer:
    """Incremental fraction-free row echelon form over the rationals.

    Each stored row is an integer vector with content 1, filed under its
    leading (smallest) key, and no two stored rows share a leading key.  A
    row with one entry is stored as the marker 1 under its key k: it is the
    unit row e_k, whatever the sign and size of its entry.  add copies a new
    row once (any mapping, or anything dict() accepts), and the same pass
    over its values accepts it when every value is a nonzero plain int; only
    a row with a zero or another type (Fraction, bool, NumPy integers,
    floats) goes through _integer_row, which clears denominators or raises
    TypeError.  Then, while its leading key belongs to a stored row, it
    loses that key when the row there is a marker, and is otherwise
    cross-multiplied against that one row by the two leading entries divided
    by their gcd (never dividing a row); it is stripped of content and
    stored once it leads with a fresh key, or dropped when it vanishes.
    Each intermediate row is a positive multiple of the one that stripping
    after every step would give, so stripping once, at the end, stores the
    same rows, and the same signs on rows with several entries.
    add_unit(k) is add({k: 1}) for the filtration's common row, the unit
    vector at k: it stores the marker at once when k leads no stored row,
    drops the row when k leads a marker, and else takes add's path.  Stored
    rows are not reduced against each other below their leading keys: the
    echelon form is enough for the rank, and every intermediate value stays
    an exact integer.  Insertion order does not affect the final rank.
    Both return what they stored, so that a caller can build on the reduced
    row rather than on its input (the filtration extends it): a row with
    several entries as the reducer's own dict, which callers must not
    mutate, and a marker as its key k, which a caller can hold and move by
    its column (the filtration does).  _rows reads a marker as {k: 1}.  add
    never mutates the row it is given and never stores that object, so a
    caller may pass a row it shares (the filtration passes its memo rows).
    """

    __slots__ = ("_pivots",)

    def __init__(self):
        self._pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def _rows(self):
        """The stored rows, read-only, each marker as {k: 1}; tracing reads
        their entry widths."""
        return ({k: 1} if type(row) is int else row for k, row in self._pivots.items())

    def add(self, row: Mapping) -> Union[dict, Hashable, None]:
        """Reduce a sparse rational row and store it if it enlarged the row space.

        Returns the stored row (the integer echelon row, with several
        entries), its key k when it has one entry and is stored as the
        marker for e_k, or None when the row is dependent.  The stored row
        stays the reducer's own: callers may read and extend it but must not
        mutate it.  The argument is never mutated and never stored itself.
        A row that dict() cannot read, or whose keys cannot be ordered, and a
        one-entry row stored under the key None, raise a one-line
        TypeError."""
        pivots = self._pivots
        try:
            r = dict(row)
        except (TypeError, ValueError) as exc:
            raise TypeError(
                f"row must be a mapping or (key, value) pairs, got {type(row).__name__} ({exc})"
            ) from None
        for v in r.values():
            if type(v) is not int or not v:
                r = _integer_row(r)  # not row: an iterator is read once
                break
        while r:
            try:
                pk = min(r)
            except TypeError as exc:
                raise TypeError(
                    f"row keys must be comparable with each other and with stored keys ({exc})"
                ) from None
            prow = pivots.get(pk)
            if prow is None:
                if len(r) > 1:
                    r = pivots[pk] = _strip_content(r)
                    return r
                if pk is None:
                    raise TypeError("row key must not be None: add returns None for a dependent row")
                pivots[pk] = 1
                return pk
            if type(prow) is int:  # the marker: the stored row is e_pk
                del r[pk]
                continue
            c, p = r[pk], prow[pk]
            g = math.gcd(c, p) if p > 0 else -math.gcd(c, p)
            c, p = c // g, p // g  # p > 0, and on filtration rows almost always 1
            if p != 1:
                r = {k: v * p for k, v in r.items()}
            for k, v in prow.items():
                d = r.get(k, 0) - c * v
                if d:
                    r[k] = d
                else:
                    r.pop(k, None)
        return None

    def add_unit(self, k: Hashable) -> Union[dict, Hashable, None]:
        """add({k: 1}), the unit row at key k.

        When k leads no stored row, the marker is stored at once and k
        itself is returned.  When k leads a marker, the unit row is
        dependent and None is returned.  Only a k that leads a row with
        several entries is handed to add, and add's result is returned.  So
        k must not be None, which raises a one-line TypeError, as does an
        unhashable k."""
        if k is None:
            raise TypeError("k must not be None: add_unit returns None for a dependent row")
        pivots = self._pivots
        try:
            prow = pivots.get(k)
        except TypeError:
            raise TypeError(f"k must be a hashable row key, got {type(k).__name__} {k!r}") from None
        if prow is None:
            pivots[k] = 1
            return k
        return None if type(prow) is int else self.add({k: 1})


def _integer_row(row: Mapping) -> dict:
    out = dict(row)
    if 0 in out.values():
        out = {k: v for k, v in out.items() if v}
    for v in out.values():
        if type(v) is not int:
            vals = {k: exact(v) for k, v in out.items()}
            denom = math.lcm(*(v.denominator for v in vals.values()))
            return {k: int(v * denom) for k, v in vals.items()}
    return out


def _strip_content(row: dict) -> dict:
    g = math.gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}

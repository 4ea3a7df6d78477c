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
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from .element import Atom, Element1, _index, atom_grade
from .hpoly import exact
from .tensor import ElementN, check_operator, check_rank1

Scalar = Union[int, Fraction]

# Largest matrix dimension size**rank a TruncMatrix may have: a dense
# 4096 x 4096 grid of Python ints already takes over 100 MB.
MAX_MATRIX_DIM = 4096


class TruncMatrix:
    """An exact dim x dim rational matrix; dim = size**rank for tensor operators.

    Column s holds the image of the s-th basis vector; for rank n the basis
    index encodes (s_1, ..., s_n) with factor 1 most significant.
    """

    __slots__ = ("size", "rank", "entries")

    def __init__(self, size: int, rank: int = 1, entries=None):
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
        if entries is None:
            self.entries = [[0] * dim for _ in range(dim)]
        else:
            if len(entries) != dim or any(len(row) != dim for row in entries):
                raise ValueError(f"entries must be {dim}x{dim}")
            self.entries = [[exact(c) for c in row] for row in entries]

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

    def __add__(self, other: "TruncMatrix") -> "TruncMatrix":
        if self.size != other.size or self.rank != other.rank:
            raise ValueError("matrix shape mismatch")
        out = TruncMatrix(self.size, self.rank)
        for r in range(self.dim):
            row, a, b = out.entries[r], self.entries[r], other.entries[r]
            for c in range(self.dim):
                row[c] = a[c] + b[c]
        return out

    def scale(self, c: Scalar) -> "TruncMatrix":
        c = exact(c)
        out = TruncMatrix(self.size, self.rank)
        for r in range(self.dim):
            out.entries[r] = [c * v for v in self.entries[r]]
        return out

    def __rmul__(self, c: Scalar) -> "TruncMatrix":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __sub__(self, other: "TruncMatrix") -> "TruncMatrix":
        return self + other.scale(-1)

    def __matmul__(self, other: "TruncMatrix") -> "TruncMatrix":
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

    def transposed(self) -> "TruncMatrix":
        out = TruncMatrix(self.size, self.rank)
        for r in range(self.dim):
            for c in range(self.dim):
                out.entries[c][r] = self.entries[r][c]
        return out

    def column(self, s: int) -> list[Scalar]:
        return [self.entries[r][s] for r in range(self.dim)]

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


def elementary_matrix(i: int, j: int, N: int) -> TruncMatrix:
    mat = TruncMatrix(N)
    if i < N and j < N:
        mat.entries[i][j] = 1
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
    leading (smallest) key, and no two stored rows share a leading key.  A new
    row is copied once, and the same pass over its values accepts it when
    every value is a nonzero plain int; only a row with a zero or another type
    (Fraction, bool, NumPy integers, floats) goes through _integer_row, which
    clears denominators or raises TypeError.  Then, while its leading key
    belongs to a stored row, it is cross-multiplied against that one row by
    the two leading entries divided by their gcd (never dividing a row); it is
    stripped of content and stored once it leads with a fresh key, or dropped
    when it vanishes.  A row stored with one entry v becomes the sign of v,
    +1 or -1, with no gcd taken.  Each intermediate row is a positive
    multiple of the one that stripping after every step would give, so
    stripping once, at the end, stores the same rows with the same signs.
    Stored rows are not reduced against each other below their leading keys:
    the echelon form is enough for the rank, and every intermediate value
    stays an exact integer.  Insertion order does not affect the final rank.  add returns the row it
    stored, so that a caller can build on the reduced row rather than on its
    input (the filtration extends it); the row stays the reducer's, and
    callers must not mutate it.
    """

    __slots__ = ("_pivots",)

    def __init__(self):
        self._pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def _rows(self):
        """The stored rows, read-only; tracing reads their entry widths."""
        return self._pivots.values()

    def add(self, row: Mapping) -> Optional[dict]:
        """Reduce a sparse rational row and store it if it enlarged the row space.

        Returns the stored row (the integer echelon row, never empty) or None
        when the row is dependent.  The stored row stays the reducer's own:
        callers may read and extend it but must not mutate it."""
        r = dict(row)
        for v in r.values():
            if type(v) is not int or not v:
                r = _integer_row(row)
                break
        pivots = self._pivots
        while r:
            pk = min(r)
            prow = pivots.get(pk)
            if prow is None:
                r = pivots[pk] = {pk: 1 if r[pk] > 0 else -1} if len(r) == 1 else _strip_content(r)
                return r
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


def exact_rank(rows: Iterable) -> int:
    """Rank over the rationals of sparse mappings or dense sequences; deterministic."""
    red = RowReducer()
    for row in rows:
        if isinstance(row, Mapping):
            red.add(row)
        elif isinstance(row, Sequence):
            red.add({i: v for i, v in enumerate(row) if v})
        else:
            raise TypeError(f"row must be a mapping or sequence, got {type(row)!r}")
    return red.rank

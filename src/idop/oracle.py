"""Independent truncated-matrix model and exact rational linear algebra.

Every operator here is a column-finite infinite matrix in the divided-power
basis x^[s] = x^s/s!.  Truncating to the first N rows and columns gives an
exact finite model; the window arithmetic in `consistent` identifies the
columns on which truncation loses nothing, so products of canonical forms can
be checked against literal matrix products.

The matrix entries are computed only from the action of the three generators
on polynomials — never from the rewrite rules — and e-units act through their
defining combination I^s d^t - I^{s+1} d^{t+1}.  That keeps this module an
independent referee for the symbolic engine.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from .element import Atom, Element1, _index
from .hpoly import exact
from .tensor import ElementN

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


def _monomial_atom_action(atom: Atom, s: int) -> Optional[Tuple[Fraction, int]]:
    # x^s -> s x^{s-1} under d, x^{s+1}/(s+1) under I, (s+1)x^s under H.
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
    row = s - v + u
    total = 0
    if s >= v:
        total += Fraction(math.factorial(s), math.factorial(row))
    if s >= v + 1:
        total -= Fraction(math.factorial(s), math.factorial(row))
    if not total:
        return None
    return (total, row)


def _fill(mat: TruncMatrix, atoms, N: int, action) -> None:
    for atom, c in atoms:
        for s in range(N):
            res = action(atom, s)
            if res is not None:
                coeff, row = res
                if row < N:
                    mat.entries[row][s] += c * coeff


def to_matrix(a: Element1, N: int) -> TruncMatrix:
    """Truncated matrix in the divided-power basis; images of degree >= N are dropped."""
    mat = TruncMatrix(N)
    _fill(mat, a.atoms(), N, _divided_atom_action)
    return mat


def to_matrix_monomial(a: Element1, N: int) -> TruncMatrix:
    """Truncated matrix in the plain monomial basis x^s (secondary convention)."""
    mat = TruncMatrix(N)
    _fill(mat, a.atoms(), N, _monomial_atom_action)
    return mat


def elementary_matrix(i: int, j: int, N: int) -> TruncMatrix:
    mat = TruncMatrix(N)
    if i < N and j < N:
        mat.entries[i][j] = 1
    return mat


def to_matrix_n(a: ElementN, N: int) -> TruncMatrix:
    """Divided-power matrix of a rank-n operator, size N**n."""
    n = a.n
    mat = TruncMatrix(N, rank=n)
    strides = [N ** (n - 1 - k) for k in range(n)]
    multis = list(_multi_indices(N, n))
    for key, c in a.terms.items():
        for multi in multis:
            coeff = c
            row_multi = []
            dead = False
            for atom, s in zip(key, multi):
                res = _divided_atom_action(atom, s)
                if res is None:
                    dead = True
                    break
                cc, r = res
                if r >= N:
                    dead = True
                    break
                coeff *= cc
                row_multi.append(r)
            if dead:
                continue
            col = sum(s * st for s, st in zip(multi, strides))
            row = sum(r * st for r, st in zip(row_multi, strides))
            mat.entries[row][col] += coeff
    return mat


def _multi_indices(N: int, n: int):
    if n == 1:
        for s in range(N):
            yield (s,)
    else:
        for rest in _multi_indices(N, n - 1):
            for s in range(N):
                yield rest + (s,)


def up(a: Union[Element1, ElementN]) -> int:
    """Largest amount by which a can raise polynomial degree in any factor:
    max(0, positive grades in the support), with e(s,t) counted as grade s - t."""
    bound = 0
    if isinstance(a, Element1):
        atoms = (atom for atom, _ in a.atoms())
    else:
        atoms = (atom for key in a.terms for atom in key)
    for tag, x, y in atoms:
        g = x if tag == "v" else x - y
        if g > bound:
            bound = g
    return bound


def consistent(a, b, N: int) -> bool:
    """Check mul against the literal truncated matrix product on the sound window.

    Column s is unaffected by truncation whenever s + up(a) + up(b) < N, so on
    those columns the two matrices must agree exactly.  Raises ValueError when
    the window is empty.
    """
    ua, ub = up(a), up(b)
    if N <= ua + ub:
        raise ValueError(f"empty validity window: N={N} <= up(a)+up(b)={ua + ub}")
    if isinstance(a, Element1):
        prod = to_matrix(a * b, N)
        mm = to_matrix(a, N) @ to_matrix(b, N)
        dim = N
        window = range(N - ua - ub)
    else:
        prod = to_matrix_n(a * b, N)
        mm = to_matrix_n(a, N) @ to_matrix_n(b, N)
        n = a.n
        strides = [N ** (n - 1 - k) for k in range(n)]
        dim = N**n
        window = [
            sum(s * st for s, st in zip(multi, strides))
            for multi in _multi_indices(N, n)
            if all(s + ua + ub < N for s in multi)
        ]
    for s in window:
        for r in range(dim):
            if prod.entries[r][s] != mm.entries[r][s]:
                return False
    return True


class RowReducer:
    """Incremental fraction-free row echelon form over the rationals.

    Each stored row is an integer vector with content 1, filed under its
    leading (smallest) key, and no two stored rows share a leading key.  A new
    row is cleared to integers and then, while its leading key belongs to a
    stored row, cross-multiplied against that one row by the two leading
    entries divided by their gcd (never dividing a row); it is stripped of
    content and stored once it leads with a fresh key, or dropped when it
    vanishes.  Each intermediate row is a positive multiple of the one that
    stripping after every step would give, so stripping once, at the end,
    stores the same rows with the same signs.  Stored rows are not reduced
    against each other below their leading keys: the echelon form is enough
    for the rank, and every intermediate value stays an exact integer.
    Insertion order does not affect the final rank.
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

    def add(self, row: Mapping) -> bool:
        """Reduce a sparse rational row; returns True if it enlarged the row space."""
        r = _integer_row(row)
        pivots = self._pivots
        while r:
            pk = min(r)
            prow = pivots.get(pk)
            if prow is None:
                pivots[pk] = _strip_content(r)
                return True
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
        return False


def _integer_row(row: Mapping) -> dict:
    out = dict(row)
    if 0 in out.values():
        out = {k: v for k, v in out.items() if v}
    if set(map(type, out.values())) - {int}:
        vals = {k: exact(v) for k, v in out.items()}
        denom = math.lcm(*(v.denominator for v in vals.values()))
        out = {k: int(v * denom) for k, v in vals.items()}
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

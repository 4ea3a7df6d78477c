"""Structural decompositions and the exact dimension engine.

The rank-1 algebra splits as a direct sum of three subspaces:

  A — the span of x^i d^j (the differential-operator subalgebra),
  F — the span of the e-units,
  L — the span of I^s H^t with 0 <= t < s.

In canonical coordinates, a degree-i component I^i b(H) with i > 0 belongs to
A exactly when b is divisible by the monic product H(H+1)...(H+i-1), because
x^i = I^i H(H+1)...(H+i-1); the division remainder is the L-component.
Nonpositive degrees lie entirely in A and the e-part is F.  Tensor factors are
classified independently, which yields the socle level (number of L-labelled
factors) and the census of realized label tuples.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple, Union

from . import hpoly
from .hpoly import Scalar
from .element import Atom, Element1, _index
from .oracle import RowReducer
from .tensor import ElementN, _collect, check_operator, check_rank1

MAX_FILTRATION_INDEX = 16

Label = str  # "A", "F" or "L"
CensusLabel = Tuple[Label, ...]


class SplitTriple(NamedTuple):
    a_part: Element1
    f_part: Element1
    l_part: Element1

    def total(self) -> Element1:
        return self.a_part + self.f_part + self.l_part


def split(a: ElementN) -> SplitTriple:
    """Decompose into differential-operator, e-span and complement components:
    the rank-1 label components of _label_components."""
    check_rank1(a)
    comps = _label_components(a)
    return SplitTriple(*(Element1._make(1, comps.get((label,), {})) for label in "AFL"))


def in_a_span(a: Element1) -> bool:
    """Membership in the span of x^i d^j, checked on canonical support."""
    check_rank1(a)
    if a.fpart:
        return False
    for i, b in a.graded.items():
        if i > 0:
            _, r = hpoly.divmod_monic(b, hpoly.rising_factorial(i))
            if r:
                return False
    return True


def in_f_span(a: Element1) -> bool:
    check_rank1(a)
    return not a.graded


def in_l_span(a: Element1) -> bool:
    check_rank1(a)
    if a.fpart:
        return False
    return all(i > 0 and hpoly.degree(b) < i for i, b in a.graded.items())


def _atom_label_parts(atom: Atom) -> list[Tuple[Tuple[Label, Atom], int]]:
    """Split a basis atom into ((label, atom), coefficient) pairs.  I^i H^t with
    i > 0 lies in L when t < i; else H^t = q R + r with R = H(H+1)...(H+i-1)
    and deg r < i, and its A-part I^i q R is I^i (H^t - r), its L-part I^i r."""
    tag, i, t = atom
    if tag == "e":
        return [(("F", atom), 1)]
    if i <= 0:
        return [(("A", atom), 1)]
    if t < i:
        return [(("L", atom), 1)]
    _, r = hpoly.divmod_monic((0,) * t + (1,), hpoly.rising_factorial(i))
    rest = [(("v", i, m), c) for m, c in enumerate(r) if c]
    a_part = [(("A", atom), 1)] + [(("A", b), -c) for b, c in rest]
    return a_part + [(("L", b), c) for b, c in rest]


def _label_components(a: ElementN) -> dict[CensusLabel, dict[Tuple[Atom, ...], Scalar]]:
    check_operator(a)
    parts: dict[Tuple[Tuple[Label, Atom], ...], Scalar] = {}
    for key, c in a.terms.items():
        _collect(parts, c, [_atom_label_parts(atom) for atom in key])
    comps: dict[CensusLabel, dict[Tuple[Atom, ...], Scalar]] = {}
    for key, c in parts.items():
        labels, atoms = zip(*key)
        comps.setdefault(labels, {})[atoms] = c
    return comps


def census(a: ElementN) -> set[CensusLabel]:
    """The set of label tuples with a nonzero component in the factor-wise
    A/F/L decomposition; always a subset of {A,F,L}^n."""
    return set(_label_components(a))


def socle_level(a: ElementN) -> int:
    """The number of L-labelled factors needed to cover the support, in 0..n."""
    comps = _label_components(a)
    if not comps:
        raise ValueError("the socle level of the zero element is undefined")
    return max(labels.count("L") for labels in comps)


Row = dict[int, Scalar]  # the support vector of an operator, over column ids

# The filtration's columns: ("e", s, t) is e(s,t) and ("v", i, t) is v_i P_{i,t}(H),
# P_{i,t}(H) = (H+i-1)...(H+i-t), with the moves stated in bimodule_filtration_dims.
# A column's id is -(2 pi(t, z) + [tag == "e"]), z = 2i for i >= 0 and -2i-1 for
# i < 0, pi(t, z) = (t+z)(t+z+1)/2 + z the Cantor pairing; _atom inverts it.  So
# RowReducer's pivot, a row's smallest id, is a column with the largest t + z.
# Two memos of move m on a column, each filled where it is read and never
# mutated: _MOVE_TABLES[m] holds the exact image row, which _move sums, and
# _UNIT_TABLES[m] the image that the level loop moves a unit row to (a bare
# column, under which the reducer holds a marker), as _held gives it: the
# column id itself when the image has one column (its coefficient dropped),
# for RowReducer.add_unit, else the row, handed to RowReducer.add itself.  A
# call clears every memo first once one of them holds COLUMN_CAP columns.
COLUMN_CAP = 16384

_MOVE_TABLES: Tuple[dict[int, Row], ...] = ({}, {}, {}, {})
_UNIT_TABLES: Tuple[dict[int, Union[int, Row]], ...] = ({}, {}, {}, {})


def _column(atom: Atom) -> int:
    tag, i, t = atom
    w = t + (2 * i if i >= 0 else -2 * i - 1)
    return -(w * (w + 1) + 2 * (w - t) + (tag == "e"))


def _atom(column: int) -> Atom:
    p, e = divmod(-column, 2)
    w = (math.isqrt(8 * p + 1) - 1) // 2
    z = p - w * (w + 1) // 2
    return ("e" if e else "v", z // 2 if z % 2 == 0 else -(z + 1) // 2, w - z)


def _row(g: ElementN) -> Row:
    """The row of a rank-1 operator: each atom v_i H^t is rewritten over the
    columns v_i P_{i,s}(H) by H P_{i,s} = P_{i,s+1} - (i-1-s) P_{i,s}."""
    check_rank1(g)
    out: Row = {}
    for ((tag, i, t),), c in g.terms.items():
        q = [c]  # c H^u over P_{i,0}, ..., P_{i,u}, for u = 0, ..., t
        for _ in range(t if tag == "v" else 0):
            q = [a - (i - 1 - s) * b for s, (a, b) in enumerate(zip([0] + q, q + [0]))]
        for s, cs in enumerate(q, 0 if tag == "v" else t):  # an e-unit keeps its atom
            col = _column((tag, i, s))
            out[col] = out.get(col, 0) + cs
    return {col: c for col, c in out.items() if c}


def _held(row: Row) -> Union[int, Row]:
    """An image row as the unit memo keeps it: its column id when it has one
    entry, with the coefficient dropped, and else itself."""
    return next(iter(row)) if len(row) == 1 else row


def _move_terms(m: int, column: int) -> Row:
    """The image row of move m on a column, from its closed form."""
    tag, i, t = _atom(column)
    if tag == "v":
        terms = (
            [(("v", i + 1, t + 1), 1)],
            [(("v", i - 1, t), 1), (("v", i - 1, t - 1), t)],
            [(("v", i - 1, t), 1), (("e", i - 1, 0), -math.perm(i - 1, t) if i > 0 else 0)],
            [(("v", i + 1, t + 1), 1), (("v", i + 1, t), t - i)],
        )[m]
    else:  # the e-unit rules of element._block_mul
        terms = [
            (("e", i + 1, t), i + 1), (("e", i - 1, t), 1 if i else 0),
            (("e", i, t + 1), 1), (("e", i, t - 1), t),
        ][m : m + 1]
    return {_column(b): p for b, p in terms if p}


def _move(row: Row, m: int) -> Row:
    """The row of move m applied to the operator whose row is given: a new
    row, summed over the memo rows of its columns."""
    table = _MOVE_TABLES[m]
    out: Row = {}
    get = out.get
    for a, c in row.items():
        image = table.get(a)
        if image is None:
            image = table[a] = _move_terms(m, a)
        for b, p in image.items():
            out[b] = get(b, 0) + c * p
    return {b: v for b, v in out.items() if v} if 0 in out.values() else out


def bimodule_filtration_dims(generators: Iterable[ElementN], i_max: int) -> list[int]:
    """Dimensions of V_i = span{x^a d^b g x^c d^e : g in generators, a+b+c+e <= i}.

    Computed by the recurrence V_0 = span(generators) and
    V_i = V_{i-1} + x V_{i-1} + d V_{i-1} + V_{i-1} x + V_{i-1} d.  It holds
    because a word of degree i is x w, d w, w x or w d for a word w of degree
    i-1, while d x^a d^b = x^a d^{b+1} + a x^{a-1} d^b and
    x^c d^e x = x^{c+1} d^e + e x^c d^{e-1} keep every side product of a word
    in the next level.

    Only the elements kept at level i-1 are multiplied, and only by the moves
    that keep a word x^a d^b g x^c d^e normal.  The moves are numbered
    0 = x k, 1 = d k, 2 = k d, 3 = k x; each kept element is tagged with the
    move that made it (generators with 3) and is extended only by moves <= its
    tag.  A kept element is what the RowReducer returned for it: the row it
    stored, or the column of a one-entry row, which it stores as a marker;
    not the candidate row it was handed, so its extensions do not bring back
    the pivots already cleared from it.

    Within a level the moves run in the order 0, 1, 2, 3 over all kept
    elements, so that the elements allowing the fewest extensions are kept
    first.  A level's kept elements are held in four groups by tag; as they
    are kept in move order, move m reads the groups m, ..., 3 in turn, which
    is the order in which they were kept, and tests no tag.  So a candidate
    made at level i-1 by move t is reduced only against rows of V_{i-2} and
    rows stored earlier at its level by moves s <= t, and
    every row stored with tag t lies in W_t = V_{i-2} + the sum over s <= t of
    move_s(V_{i-2}): it is a nonzero multiple of its candidate minus a
    combination of such rows.  Let S_i be V_{i-1} plus the span of the extensions.  As
    {x, d} V_{i-2} and V_{i-2} {x, d} lie in V_{i-1}, and a kept k with tag t
    lies in W_t, S_i = V_i follows move by move, each line using the ones
    above it (k' in V_{i-2}):

      x V_{i-1} lies in S_i, as move 0 is always allowed;
      d V_{i-1}, as d (x k') = x (d k') + k';
      V_{i-1} d, as (d k') d = d (k' d) and (x k') d = x (k' d);
      V_{i-1} x, as (k' d) x = (k' x) d + k', (d k') x = d (k' x) and
      (x k') x = x (k' x).

    The same lines show that extending stored rows keeps every decision that
    extending the candidates themselves would make.  A kept row r is a
    nonzero multiple of its candidate c minus a combination of rows held
    before c: rows of V_{i-2} and rows kept before r at level i-1.  When move m reaches r,
    the reducer already spans move m of each of them: of V_{i-2} within
    V_{i-1}; of a row with a tag >= m as a candidate made just before; of a
    row with a tag < m, by the lines above, within V_{i-1} and the images of
    the moves < m.  So move m of r is a nonzero multiple of move m of c plus
    an element already spanned, and the same candidates are kept: the rows
    added stay the same.  The multiple may be negative, as the loop drops
    the sign and scale of unit rows (below); whether a row depends on the
    rows held does not depend on its scale.

    Each dimension is an exact rational rank; the result is nondecreasing and
    independent of generator order.  Kept elements are held as rows over
    integer ids, each fixed by its column alone.  A column is an e-unit e(s,t) or
    v_i P_{i,t}(H), with the falling factorial P_{i,t}(H) = (H+i-1)...(H+i-t),
    and _row rewrites each generator atom v_i H^t over them once.  In this
    basis each move has at most two terms:

      x k: (i,t) -> (i+1,t+1)       d k: (i,t) -> (i-1,t) + t (i-1,t-1)
      k d: (i,t) -> (i-1,t) - [i > 0] (i-1)(i-2)...(i-t) e(i-1,0)
      k x: (i,t) -> (i+1,t+1) - (i-t) (i+1,t)

    For i > 0 the columns with t >= i span the A-part of grade i (P_{i,t} is
    then divisible by H(H+1)...(H+i-1)) and those with t < i the L-part.  Each
    move's memos hold each column's image.  Almost every kept row has one
    entry, and the RowReducer stores it as a marker for the unit row e_a and
    returns its column a, which the loop holds and moves: an image with one
    entry p e_b is memoized as the column b and added as e_b by
    RowReducer.add_unit, which returns b itself when it stores the marker on
    a fresh pivot.  Any other image is handed to RowReducer.add as the memo
    row itself, without a copy (add never mutates or stores its argument),
    and add returns the row it stored, or the column of a one-entry row.  A
    stored row with several entries is kept as that row and summed over the
    exact memo rows of its columns by _move.  Dropping the signs and the
    scale p changes no decision, so the rows added stay the same, in the
    same order.
    A row's pivot in the RowReducer is a column with the largest t + z (see
    _column), whatever ran before, and calls may run concurrently.
    """
    try:
        it = iter(generators)
    except TypeError:
        raise TypeError(
            f"generators must be an iterable of operators, got {type(generators).__name__} "
            f"{generators!r}"
        ) from None
    generators = tuple(it)
    if not generators:
        raise ValueError("at least one generator is required")
    for g in generators:
        check_operator(g, "generators")
        if g.is_zero():
            raise ValueError("generators must be nonzero")
    i_max = _index(i_max, "i_max")
    if i_max < 0:
        raise ValueError(f"i_max must be nonnegative, got {i_max}")
    if i_max > MAX_FILTRATION_INDEX:
        raise ValueError(
            f"i_max={i_max} exceeds the desk-scale budget ({MAX_FILTRATION_INDEX})"
        )
    memos = _MOVE_TABLES + _UNIT_TABLES
    if max(map(len, memos)) >= COLUMN_CAP:
        for table in memos:
            table.clear()
    red = RowReducer()
    add, add_unit = red.add, red.add_unit
    groups = ([], [], [], [row for g in generators if (row := add(_row(g))) is not None])
    dims = [red.rank]
    for _ in range(i_max):
        fresh = ([], [], [], [])
        for m in range(4):
            keep = fresh[m].append
            units = _UNIT_TABLES[m]
            for group in groups[m:]:
                for k in group:
                    if type(k) is not dict:  # a unit row, held as the column of its marker
                        image = units.get(k)
                        if image is None:
                            image = units[k] = _held(_move_terms(m, k))
                        row = add_unit(image) if type(image) is not dict else add(image)
                    else:
                        row = add(_move(k, m))
                    if row is not None:  # not a truth test: column 0 is kept too
                        keep(row)
        groups = fresh
        dims.append(red.rank)
    return dims


class MultiplicityReport(NamedTuple):
    """Growth-degree fit from finite differences of a dimension sequence.

    `second_difference` is the stabilized second difference; for quadratic
    growth dim ~ (e/2) i^2 it equals the multiplicity e.
    """

    degree: int
    second_difference: int
    stable_from: int


STABLE_WINDOW = 4  # consecutive equal differences required to accept a degree


def _diff(seq: Sequence[int]) -> list[int]:
    return [seq[k + 1] - seq[k] for k in range(len(seq) - 1)]


def _stable_tail(seq: Sequence[int]) -> Optional[int]:
    """Start index of the maximal constant suffix, if it has length >= STABLE_WINDOW."""
    if len(seq) < STABLE_WINDOW:
        return None
    idx = len(seq) - 1
    while idx > 0 and seq[idx - 1] == seq[-1]:
        idx -= 1
    if len(seq) - idx >= STABLE_WINDOW:
        return idx
    return None


def multiplicity_report(dims: Sequence[int]) -> Optional[MultiplicityReport]:
    """Detect polynomial growth degree; None when nothing stabilizes in range."""
    if not isinstance(dims, Iterable):
        raise TypeError(f"dims must be a sequence of integers, got {type(dims).__name__} {dims!r}")
    seq = dims = [_index(d, "an entry of dims") for d in dims]
    for deg in range(len(seq)):
        start = _stable_tail(seq)
        if start is not None:
            second = _diff(_diff(dims))
            return MultiplicityReport(
                degree=deg,
                second_difference=second[-1] if second else 0,
                stable_from=start,
            )
        seq = _diff(seq)
    return None

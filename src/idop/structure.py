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

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence, Tuple

from . import hpoly
from .hpoly import Scalar
from .element import D_ATOM, X_ATOM, Atom, Element1, _generator_product, _index
from .oracle import RowReducer
from .tensor import ElementN

MAX_FILTRATION_INDEX = 16

Label = str  # "A", "F" or "L"
CensusLabel = Tuple[Label, ...]


@dataclass
class SplitTriple:
    a_part: Element1
    f_part: Element1
    l_part: Element1

    def total(self) -> Element1:
        return self.a_part + self.f_part + self.l_part


def split(a: Element1) -> SplitTriple:
    """Decompose into differential-operator, e-span and complement components."""
    a_graded: dict[int, hpoly.HPoly] = {}
    l_graded: dict[int, hpoly.HPoly] = {}
    for i, b in a.graded.items():
        if i <= 0:
            a_graded[i] = b
            continue
        q, r = hpoly.divmod_monic(b, hpoly.rising_factorial(i))
        if q:
            a_graded[i] = hpoly.mul(hpoly.rising_factorial(i), q)
        if r:
            l_graded[i] = r
    return SplitTriple(
        a_part=Element1(a_graded),
        f_part=Element1(fpart=a.fpart),
        l_part=Element1(l_graded),
    )


def in_a_span(e: Element1) -> bool:
    """Membership in the span of x^i d^j, checked on canonical support."""
    if e.fpart:
        return False
    for i, b in e.graded.items():
        if i > 0:
            _, r = hpoly.divmod_monic(b, hpoly.rising_factorial(i))
            if r:
                return False
    return True


def in_f_span(e: Element1) -> bool:
    return not e.graded


def in_l_span(e: Element1) -> bool:
    if e.fpart:
        return False
    return all(i > 0 and hpoly.degree(b) < i for i, b in e.graded.items())


def _atom_label_parts(atom: Atom) -> list[Tuple[Label, Atom, int]]:
    """Classify a single basis atom, expanding across the three subspaces."""
    tag, a, b = atom
    if tag == "e":
        return [("F", atom, 1)]
    i, t = a, b
    if i <= 0:
        return [("A", atom, 1)]
    mono = (0,) * t + (1,)
    q, r = hpoly.divmod_monic(mono, hpoly.rising_factorial(i))
    out: list[Tuple[Label, Atom, int]] = []
    if q:
        prod_poly = hpoly.mul(hpoly.rising_factorial(i), q)
        out.extend(("A", ("v", i, m), c) for m, c in enumerate(prod_poly) if c)
    out.extend(("L", ("v", i, m), c) for m, c in enumerate(r) if c)
    return out


def _label_components(a: ElementN) -> dict[CensusLabel, dict[Tuple[Atom, ...], Scalar]]:
    comps: dict[CensusLabel, dict[Tuple[Atom, ...], Scalar]] = {}
    for key, c in a.terms.items():
        factor_parts = [_atom_label_parts(atom) for atom in key]
        for combo in product(*factor_parts):
            labels = tuple(lbl for lbl, _, _ in combo)
            atoms = tuple(at for _, at, _ in combo)
            coeff = c
            for _, _, cc in combo:
                coeff *= cc
            acc = comps.setdefault(labels, {})
            d = acc.get(atoms, 0) + coeff
            if d:
                acc[atoms] = d
            else:
                acc.pop(atoms, None)
    return {labels: acc for labels, acc in comps.items() if acc}


def census(a: ElementN) -> set[CensusLabel]:
    """The set of label tuples with a nonzero component in the factor-wise
    A/F/L decomposition; always a subset of {A,F,L}^n."""
    return set(_label_components(a))


def socle_level(a: ElementN) -> int:
    """The number of L-labelled factors needed to cover the support, in 0..n."""
    if a.is_zero():
        raise ValueError("the socle level of the zero element is undefined")
    return max(sum(1 for lbl in labels if lbl == "L") for labels in _label_components(a))


def socle_member(a: ElementN, m: int) -> bool:
    if a.is_zero():
        return True
    return socle_level(a) <= m


def q_dims(i_max: int) -> list[int]:
    """Dimensions of the nested L-spans {I^j H^t : 1 <= j <= i+1, 0 <= t < j},
    computed by enumeration and exact rank."""
    red = RowReducer()
    dims = []
    for i in range(i_max + 1):
        j = i + 1
        for t in range(j):
            red.add(Element1({j: [0] * t + [1]}).support_vector())
        dims.append(red.rank)
    return dims


def kernel_witness_check(i: int, j: int, k: int, jprime: int) -> Tuple[bool, bool]:
    """Right multiplication of e(i,j)(x)e(k,*) by H_1 - H_2 in rank 2:
    the first flag is whether e(i,j)(x)e(k,j) annihilates it, the second whether
    e(i,j)(x)e(k,j') does not (expected for j != j')."""
    h_diff = ElementN(
        2,
        {
            (("v", 0, 1), ("v", 0, 0)): 1,
            (("v", 0, 0), ("v", 0, 1)): -1,
        },
    )
    same = ElementN(2, {(("e", i, j), ("e", k, j)): 1})
    other = ElementN(2, {(("e", i, j), ("e", k, jprime)): 1})
    return ((same * h_diff).is_zero(), not (other * h_diff).is_zero())


Row = dict[int, Scalar]  # the support vector of an operator, over column ids

# The filtration's columns, shared by every call in the process.  Each atom
# gets a smaller id than every atom registered before it, so a row's smallest
# id (RowReducer's pivot) is its newest atom.  _MOVE_TABLES[m] maps a column
# to the (column, coefficient) terms of move m applied to its atom.  The
# registry is cleared at the start of a call once it holds COLUMN_CAP columns.
COLUMN_CAP = 16384

_COLUMNS: dict[Atom, int] = {}
_ATOMS: list[Atom] = []  # _ATOMS[-c] is the atom of column c
_MOVE_TABLES: Tuple[dict[int, Tuple[Tuple[int, Scalar], ...]], ...] = ({}, {}, {}, {})

# The filtration moves: 0 = x k, 1 = d k, 2 = k d, 3 = k x.
_MOVE_FACTORS = ((X_ATOM, True), (D_ATOM, True), (D_ATOM, False), (X_ATOM, False))


def _column(atom: Atom) -> int:
    c = _COLUMNS.get(atom)
    if c is None:
        c = _COLUMNS[atom] = -len(_ATOMS)
        _ATOMS.append(atom)
    return c


def _reset_columns() -> None:
    _COLUMNS.clear()
    _ATOMS.clear()
    for table in _MOVE_TABLES:
        table.clear()


def _row(e: Element1) -> Row:
    return {_column(a): c for a, c in e.atoms()}


def _move_terms(m: int, column: int) -> Tuple[Tuple[int, Scalar], ...]:
    g, on_left = _MOVE_FACTORS[m]
    atom = _ATOMS[-column]
    terms = _generator_product(g, atom) if on_left else _generator_product(atom, g)
    terms = tuple((_column(b), p) for b, p in terms)
    _MOVE_TABLES[m][column] = terms
    return terms


def _move(row: Row, m: int) -> Row:
    """The row of move m applied to the operator whose row is given."""
    table = _MOVE_TABLES[m]
    out: Row = {}
    get = out.get
    for a, c in row.items():
        terms = table.get(a)
        if terms is None:
            terms = _move_terms(m, a)
        for b, p in terms:
            out[b] = get(b, 0) + c * p
    return {b: v for b, v in out.items() if v}


def bimodule_filtration_dims(generators: Sequence[Element1], i_max: int) -> list[int]:
    """Dimensions of V_i = span{x^a d^b g x^c d^e : g in generators, a+b+c+e <= i}.

    Computed by the recurrence V_0 = span(generators) and
    V_i = V_{i-1} + x V_{i-1} + d V_{i-1} + V_{i-1} x + V_{i-1} d.  It holds
    because a word of degree i is x w, d w, w x or w d for a word w of degree
    i-1, while d x^a d^b = x^a d^{b+1} + a x^{a-1} d^b and
    x^c d^e x = x^{c+1} d^e + e x^c d^{e-1} keep every side product of a word
    in the next level.

    Only the elements k whose rows were kept at level i-1 are multiplied, and
    only by the moves that keep a word x^a d^b g x^c d^e normal.  The moves are
    numbered 0 = x k, 1 = d k, 2 = k d, 3 = k x; each kept element is tagged
    with the move that made it (generators with 3) and is extended only by
    moves <= its tag.  Let S_i be V_{i-1} plus the span of these extensions.
    As {x, d} V_{i-2} and V_{i-2} {x, d} lie in V_{i-1}, and a kept k with
    tag t is move t of some k' in V_{i-2}, S_i = V_i follows move by move,
    each line using the ones above it:

      x V_{i-1} lies in S_i, as move 0 is always allowed;
      d V_{i-1}, as d (x k') = x (d k') + k';
      V_{i-1} d, as (d k') d = d (k' d) and (x k') d = x (k' d);
      V_{i-1} x, as (k' d) x = (k' x) d + k', (d k') x = d (k' x) and
      (x k') x = x (k' x).

    Within a level the moves run in the order 0, 1, 2, 3 over all fresh
    elements, so that the elements allowing the fewest extensions are kept
    first; any order gives the same spans.  Each dimension is an exact
    rational rank over the union of support atoms; the result is
    nondecreasing and independent of generator order.  Kept elements are held
    as support rows over the process-wide column ids (_COLUMNS), and each move
    is a sparse sum over that move's column table, filled in closed form by
    element._generator_product.  The newest atom of a row leads it in the
    RowReducer.  As the tables are shared, calls must not run concurrently.
    """
    if not generators:
        raise ValueError("at least one generator is required")
    if any(g.is_zero() for g in generators):
        raise ValueError("generators must be nonzero")
    i_max = _index(i_max, "i_max")
    if i_max < 0:
        raise ValueError(f"i_max must be nonnegative, got {i_max}")
    if i_max > MAX_FILTRATION_INDEX:
        raise ValueError(
            f"i_max={i_max} exceeds the desk-scale budget ({MAX_FILTRATION_INDEX})"
        )
    if len(_ATOMS) >= COLUMN_CAP:
        _reset_columns()
    red = RowReducer()
    rows = (_row(g) for g in generators)
    fresh = [(row, 3) for row in rows if red.add(row)]
    dims = [red.rank]
    for _ in range(i_max):
        candidates = (
            (_move(k, m), m) for m in range(4) for k, tag in fresh if m <= tag
        )
        fresh = [(c, m) for c, m in candidates if red.add(c)]
        dims.append(red.rank)
    return dims


@dataclass
class MultiplicityReport:
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
    seq = list(dims)
    for deg in range(len(seq)):
        start = _stable_tail(seq)
        if start is not None:
            second = list(dims)
            for _ in range(2):
                second = _diff(second)
            return MultiplicityReport(
                degree=deg,
                second_difference=second[-1] if second else 0,
                stable_from=start,
            )
        seq = _diff(seq)
    return None

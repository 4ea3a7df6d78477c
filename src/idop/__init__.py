"""Exact arithmetic, canonical forms and structural decompositions for
polynomial integro-differential operators, with a truncated-matrix oracle and
an exact rational dimension engine."""

from fractions import Fraction as Rational

from .element import (
    Atom,
    Element1,
    atom_mul,
    eunit_atom,
    from_atoms,
    graded_atom,
)
from .expr import ExprSyntaxError, parse_element, parse_poly
from .oracle import (
    RowReducer,
    TruncMatrix,
    consistent,
    to_matrix,
    to_matrix_monomial,
    to_matrix_n,
    up,
)
from .structure import (
    CensusLabel,
    MultiplicityReport,
    SplitTriple,
    bimodule_filtration_dims,
    census,
    multiplicity_report,
    socle_level,
    split,
)
from .tensor import (
    BnElement,
    ElementN,
    apply_n,
    lift,
    project_bn,
    to_element1,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BnElement",
    "CensusLabel",
    "Element1",
    "ElementN",
    "ExprSyntaxError",
    "MultiplicityReport",
    "Rational",
    "RowReducer",
    "SplitTriple",
    "TruncMatrix",
    "apply_n",
    "atom_mul",
    "bimodule_filtration_dims",
    "census",
    "consistent",
    "eunit_atom",
    "from_atoms",
    "graded_atom",
    "lift",
    "multiplicity_report",
    "parse_element",
    "parse_poly",
    "project_bn",
    "socle_level",
    "split",
    "to_element1",
    "to_matrix",
    "to_matrix_monomial",
    "to_matrix_n",
    "up",
]

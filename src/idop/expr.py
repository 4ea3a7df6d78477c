"""Surface syntax: the expression grammar, its evaluator and JSON encoders.

Grammar (whitespace insensitive):

    list : expr (',' expr)*
    expr : ('+'|'-')? term (('+'|'-') term)*
    term : pow ('*' pow)*
    pow  : atom ('^' nat)?
    atom : 'x' idx? | 'd' idx? | 'I' idx? | 'H' idx? | 'e(' nat ',' nat ')' idx?
         | rational | '(' expr ')'
    idx  : '_'? positive-integer   (underscore required for e-units)

A generator list (`idop dims --gen`) is a list, with no empty item; every
other input is one expr.  Juxtaposition is not multiplication; products need
an explicit '*'.  The factor index defaults to 1 when the rank is 1 and is
required otherwise.  Polynomials for the `apply` command use the variables
x1..xn (bare `x` is accepted at rank 1) and go through the same evaluator.
Parentheses nest at most MAX_NESTING (100) levels deep, and the exponents on
any path through the parse tree multiply to at most MAX_EXPONENT (60).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Tuple

from .element import Element1, Scalar, atom_sort_key, format_terms
from .tensor import (
    MAX_EXPONENT,
    BnElement,
    ElementN,
    _collect,
    _Terms,
    check_rank,
    lift,
    to_element1,
)
from .oracle import TruncMatrix


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# -- tokenizer ---------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # "num", "gen", "index", "end" or the operator character itself
    value: object  # the integer of a num or index, the letter of a gen
    index: Optional[int]  # a gen's factor index, if written
    pos: int


# One token after optional whitespace (\s skips what str.lstrip strips).  Digits
# are ASCII only: str.isdigit also accepts '²', which int() rejects, and '٣',
# which it reads as 3.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<gen>[xdIH])(?:_?(?P<gen_index>[0-9]+))?|(?P<e>e)"
    r"|_(?P<index>[0-9]+)|(?P<op>[-+*^(),/]))"
)


def _tokenize(text: str) -> list[_Token]:
    if not isinstance(text, str):
        raise TypeError(f"text must be a string, got {type(text).__name__} {text!r}")
    tokens: list[_Token] = []
    i = 0
    while m := _TOKEN.match(text, i):
        i = m.end()
        pos = i - len(m[0].lstrip())  # where the token starts; an index starts at its '_'
        num, gen, gen_index, e, index, op = m.groups()
        if op:
            tokens.append(_Token(op, None, None, pos))
        elif num:
            tokens.append(_Token("num", int(num), None, pos))
        elif index:
            tokens.append(_Token("index", int(index), None, pos))
        else:
            tokens.append(_Token("gen", gen or e, int(gen_index) if gen_index else None, pos))
    rest = text[i:].lstrip()
    if rest:
        pos = len(text) - len(rest)
        if rest[0] == "_":
            raise ExprSyntaxError("expected digits after '_'", pos)
        raise ExprSyntaxError(f"unexpected character {rest[0]!r}", pos)
    tokens.append(_Token("end", None, None, len(text)))
    return tokens


# -- parse trees ---------------------------------------------------------------

# Nodes: ("num", Fraction), ("gen", name, index, pos), ("eunit", s, t, index, pos),
#        ("sum", ((sign, term), ...)), ("prod", (factor, ...)),
#        ("pow", base, k, exponent product of the node).
# Sums and products are n-ary and evaluated left to right, so a long flat input
# never builds a deep tree; only parentheses nest, up to MAX_NESTING levels.
Node = tuple

MAX_NESTING = 100  # parenthesis depth; keeps parsing and evaluation off the recursion limit


def _exponent_product(node: Node) -> int:
    """The largest product of exponents on a path from node down to a leaf.

    A power node stores its own product, so no subtree is walked twice.
    """
    kind = node[0]
    if kind == "pow":
        return node[3]
    if kind == "sum":
        return max(_exponent_product(term) for _, term in node[1])
    if kind == "prod":
        return max(_exponent_product(factor) for factor in node[1])
    return 1


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok.kind!r}", tok.pos)
        return self.next()

    def parse(self, many: bool = False) -> list[Node]:
        """The whole input: one expr, or with many a list."""
        nodes = [self.expr()]
        while many and self.peek().kind == ",":
            self.next()
            nodes.append(self.expr())
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.kind!r}", tok.pos)
        return nodes

    def expr(self) -> Node:
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.next().kind == "-" else 1
        terms = [(sign, self.term())]
        while self.peek().kind in "+-":
            sign = -1 if self.next().kind == "-" else 1
            terms.append((sign, self.term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return ("sum", tuple(terms))

    def term(self) -> Node:
        factors = [self.pow()]
        while self.peek().kind == "*":
            self.next()
            factors.append(self.pow())
        if len(factors) == 1:
            return factors[0]
        return ("prod", tuple(factors))

    def pow(self) -> Node:
        node = self.atom()
        if self.peek().kind == "^":
            self.next()
            tok = self.expect("num")
            # an exponent 0 counts as 1: its base is still evaluated, and an
            # exponent around it still loops over the result
            total = max(tok.value, 1) * _exponent_product(node)
            if total > MAX_EXPONENT:
                raise ExprSyntaxError(
                    f"exponent product {total} exceeds the budget {MAX_EXPONENT}", tok.pos
                )
            node = ("pow", node, tok.value, total)
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            value = Fraction(tok.value)
            if self.peek().kind == "/":
                self.next()
                den = self.expect("num")
                if den.value == 0:
                    raise ExprSyntaxError("zero denominator", den.pos)
                value /= den.value
            return ("num", value)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", tok.pos
                )
            self.next()
            self.depth += 1
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if tok.kind == "gen":
            self.next()
            if tok.value == "e":
                self.expect("(")
                s = self.expect("num").value
                self.expect(",")
                t = self.expect("num").value
                self.expect(")")
                index = None
                if self.peek().kind == "index":
                    index = self.next().value
                return ("eunit", s, t, index, tok.pos)
            return ("gen", tok.value, tok.index, tok.pos)
        raise ExprSyntaxError(f"unexpected {tok.kind!r}", tok.pos)


def _resolve_index(index: Optional[int], n: int, pos: int) -> int:
    if index is None:
        if n == 1:
            return 1
        raise ExprSyntaxError(f"factor index required at rank {n}", pos)
    if not 1 <= index <= n:
        raise ExprSyntaxError(f"factor index {index} out of range 1..{n}", pos)
    return index


class _Poly(_Terms):
    """A polynomial in x_1..x_n while it is evaluated: exponent tuple -> coefficient."""

    __slots__ = ()

    _check_key = staticmethod(tuple)  # keys are built by _poly_leaf

    def __mul__(self, other: "_Poly") -> "_Poly":
        out: dict[tuple, Scalar] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _collect(out, c1 * c2, [[(a + b, 1)] for a, b in zip(k1, k2)])
        return self._make(self.n, out)

    def power(self, k: int) -> "_Poly":
        """self^k for k >= 0, the k-fold product from the constant 1; a
        one-term self and k >= 1 take one step, its exponents times k and its
        coefficient to the k, as the k-fold product gives."""
        if k and len(self.terms) == 1:
            ((key, c),) = self.terms.items()
            return self._make(self.n, {tuple(e * k for e in key): c**k})
        out = self._make(self.n, {(0,) * self.n: 1})
        for _ in range(k):
            out = out * self
        return out


_Poly._family = _Poly


def _element_leaf(node: Node, n: int) -> ElementN:
    kind = node[0]
    if kind == "num":
        return ElementN.one(n).scale(node[1])
    if kind == "gen":
        _, name, index, pos = node
        return lift(_resolve_index(index, n, pos), Element1.from_generator(name), n)
    _, s, t, index, pos = node
    return lift(_resolve_index(index, n, pos), Element1(fpart={(s, t): 1}), n)


def _poly_leaf(node: Node, n: int) -> _Poly:
    kind = node[0]
    if kind == "num":
        return _Poly(n, {(0,) * n: node[1]})
    if kind == "eunit":
        raise ExprSyntaxError("e-units are not allowed in polynomials", node[4])
    _, name, index, pos = node
    if name != "x":
        raise ExprSyntaxError(f"only x variables are allowed in polynomials, found {name!r}", pos)
    k = _resolve_index(index, n, pos)
    return _Poly(n, {tuple(int(f == k) for f in range(1, n + 1)): 1})


def _evaluate(node: Node, leaf: Callable[[Node, int], object], n: int):
    """The value of a parse tree at rank n: leaf(node, n) for a number,
    generator or e-unit, and the values' own +, -, * and power above them."""
    kind = node[0]
    if kind == "sum":
        (sign, first), *rest = node[1]
        acc = _evaluate(first, leaf, n)
        if sign < 0:
            acc = -acc
        for sign, term in rest:
            value = _evaluate(term, leaf, n)
            acc = acc + value if sign > 0 else acc - value
        return acc
    if kind == "prod":
        first, *rest = node[1]
        acc = _evaluate(first, leaf, n)
        for factor in rest:
            acc = acc * _evaluate(factor, leaf, n)
        return acc
    if kind == "pow":
        return _evaluate(node[1], leaf, n).power(node[2])
    return leaf(node, n)


def parse_element(text: str, n: int = 1) -> ElementN:
    """Parse an operator expression at the given tensor rank (at most MAX_RANK)."""
    n = check_rank(n)
    (node,) = _Parser(_tokenize(text)).parse()
    return _evaluate(node, _element_leaf, n)


def parse_element_list(text: str, n: int = 1) -> list[ElementN]:
    """Parse a comma-separated list of operator expressions (the list production)."""
    n = check_rank(n)
    nodes = _Parser(_tokenize(text)).parse(many=True)
    return [_evaluate(node, _element_leaf, n) for node in nodes]


def parse_poly(text: str, n: int = 1) -> dict[tuple, Scalar]:
    """Parse a polynomial in x1..xn as a sparse exponent-vector map."""
    n = check_rank(n)
    (node,) = _Parser(_tokenize(text)).parse()
    return _evaluate(node, _poly_leaf, n).terms


def format_poly(p: dict, n: int) -> str:
    terms: list[Tuple[Fraction, str]] = []
    for exps in sorted(p, key=lambda k: (sum(k), k)):
        parts = []
        for f, s in enumerate(exps, start=1):
            if s == 0:
                continue
            var = "x" if n == 1 else f"x{f}"
            parts.append(var if s == 1 else f"{var}^{s}")
        terms.append((Fraction(p[exps]), "*".join(parts)))
    return format_terms(terms)


# -- JSON encoders -------------------------------------------------------------


def element1_to_json(e: Element1) -> dict:
    graded, fpart = e.graded, e.fpart
    return {
        "rank": 1,
        "graded": [[i, [str(c) for c in graded[i]]] for i in sorted(graded)],
        "fpart": [[s, t, str(fpart[(s, t)])] for s, t in sorted(fpart)],
    }


def elementn_to_json(a: ElementN) -> dict:
    if a.n == 1:
        return element1_to_json(to_element1(a))
    graded = []
    fpart = []
    for key in sorted(a.terms, key=lambda k: tuple(atom_sort_key(at) for at in k)):
        entry = [[list(atom) for atom in key], str(a.terms[key])]
        if any(atom[0] == "e" for atom in key):
            fpart.append(entry)
        else:
            graded.append(entry)
    return {"rank": a.n, "graded": graded, "fpart": fpart}


def poly_to_json(p: dict, n: int) -> dict:
    return {
        "rank": n,
        "terms": [[list(k), str(Fraction(p[k]))] for k in sorted(p, key=lambda k: (sum(k), k))],
    }


def bn_to_json(b: BnElement) -> dict:
    return {
        "rank": b.n,
        "terms": [[[list(pair) for pair in key], str(b.terms[key])] for key in sorted(b.terms)],
    }


def matrix_to_json(m: TruncMatrix) -> dict:
    return {
        "size": m.size,
        "rank": m.rank,
        "rows": [[str(c) for c in row] for row in m.entries],
    }

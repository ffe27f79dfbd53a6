"""Rational expressions in noncommuting variables.

The surface syntax accepts sums, products, postfix adjoint ' on any factor,
inv(...) for inversion, variables x1, x2, ... and Gaussian rational literals
like 3/2, 2i or 1-1/2i.  Standard precedence: adjoint and inv bind tightest,
then unary minus, then products, then sums.  A unary minus directly in front
of a literal folds into the literal, so -2+3i reads as (-2)+3i.

unparse produces a canonical string with enough parentheses that
parse(unparse(e)) rebuilds e node for node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .errors import InputError, OutOfDomain
from .ncpoly import NcPoly
from .scalars import GaussianRational


class RatExpr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(RatExpr):
    value: GaussianRational


@dataclass(frozen=True)
class Var(RatExpr):
    index: int


@dataclass(frozen=True)
class Adjoint(RatExpr):
    child: RatExpr


@dataclass(frozen=True)
class Neg(RatExpr):
    child: RatExpr


@dataclass(frozen=True)
class Inv(RatExpr):
    child: RatExpr


@dataclass(frozen=True)
class Add(RatExpr):
    left: RatExpr
    right: RatExpr


@dataclass(frozen=True)
class Mul(RatExpr):
    left: RatExpr
    right: RatExpr


class ExprSyntaxError(InputError):
    """Unparseable expression text, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<inv>inv\b)
  | (?P<var>x\d+)
  | (?P<imag>\d+(?:/\d+)?i)
  | (?P<rat>\d+(?:/\d+)?)
  | (?P<op>[+\-*'()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str, int]], n_vars: Optional[int]):
        self.tokens = tokens
        self.pos = 0
        self.n_vars = n_vars

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, at = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", at)
        self.advance()

    def at_op(self, op: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text == op

    def parse_expr(self) -> RatExpr:
        node = self.parse_term()
        while True:
            if self.at_op("+"):
                self.advance()
                node = Add(node, self.parse_term())
            elif self.at_op("-"):
                self.advance()
                node = Add(node, Neg(self.parse_term()))
            else:
                return node

    def parse_term(self) -> RatExpr:
        node = self.parse_sfactor()
        while self.at_op("*"):
            self.advance()
            node = Mul(node, self.parse_sfactor())
        return node

    def parse_sfactor(self) -> RatExpr:
        if self.at_op("-"):
            self.advance()
            kind, _, _ = self.peek()
            if kind in ("rat", "imag"):
                return self.parse_factor(negate_literal=True)
            return Neg(self.parse_factor())
        return self.parse_factor()

    def parse_factor(self, negate_literal: bool = False) -> RatExpr:
        node = self.parse_atom(negate_literal)
        while self.at_op("'"):
            self.advance()
            node = Adjoint(node)
        return node

    def parse_atom(self, negate_literal: bool = False) -> RatExpr:
        kind, text, at = self.peek()
        if kind == "var":
            self.advance()
            index = int(text[1:])
            if index < 1:
                raise ExprSyntaxError("variable indices start at 1", at)
            if self.n_vars is not None and index > self.n_vars:
                raise ExprSyntaxError(
                    f"variable x{index} exceeds declared count {self.n_vars}", at
                )
            return Var(index)
        if kind in ("rat", "imag"):
            return Const(self.parse_literal(negate_literal))
        if kind == "inv":
            self.advance()
            self.expect_op("(")
            inner = self.parse_expr()
            self.expect_op(")")
            return Inv(inner)
        if kind == "op" and text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(f"unexpected token {text!r}", at)

    def parse_literal(self, negate_first: bool) -> GaussianRational:
        kind, text, _ = self.advance()
        if kind == "imag":
            value = GaussianRational(0, Fraction(text[:-1]))
            return -value if negate_first else value
        value = GaussianRational(Fraction(text))
        if negate_first:
            value = -value
        # lookahead for the imaginary tail of a mixed literal
        if self.at_op("+") or self.at_op("-"):
            sign = 1 if self.tokens[self.pos][1] == "+" else -1
            nk, nt, _ = self.tokens[self.pos + 1]
            if nk == "imag":
                self.advance()
                self.advance()
                return value + GaussianRational(0, sign * Fraction(nt[:-1]))
        return value


def parse(text: str, n_vars: Optional[int] = None) -> RatExpr:
    """Parse expression text into an AST."""
    parser = _Parser(_tokenize(text), n_vars)
    node = parser.parse_expr()
    kind, tok, at = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {tok!r}", at)
    return node


def max_var_index(e: RatExpr) -> int:
    if isinstance(e, Var):
        return e.index
    if isinstance(e, (Adjoint, Neg, Inv)):
        return max_var_index(e.child)
    if isinstance(e, (Add, Mul)):
        return max(max_var_index(e.left), max_var_index(e.right))
    return 0


def unparse(e: RatExpr) -> str:
    """Canonical text such that parse(unparse(e)) == e."""
    if isinstance(e, Const):
        s = str(e.value)
        mixed = e.value.re != 0 and e.value.im != 0
        if mixed or s.startswith("-"):
            return f"({s})"
        return s
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Adjoint):
        inner = unparse(e.child)
        if isinstance(e.child, (Var, Const, Inv, Adjoint)):
            return inner + "'"
        return f"({inner})'"
    if isinstance(e, Neg):
        inner = unparse(e.child)
        # a bare product or sum would capture only its first factor, and a
        # trailing prime would pull the minus sign into a numeric literal
        if isinstance(e.child, (Add, Mul, Adjoint)):
            return f"(-({inner}))"
        return f"(-{inner})"
    if isinstance(e, Inv):
        return f"inv({unparse(e.child)})"
    if isinstance(e, Add):
        right = unparse(e.right)
        if isinstance(e.right, Add):
            right = f"({right})"
        return f"{unparse(e.left)} + {right}"
    if isinstance(e, Mul):
        left = unparse(e.left)
        if isinstance(e.left, Add):
            left = f"({left})"
        right = unparse(e.right)
        if isinstance(e.right, (Add, Mul)):
            right = f"({right})"
        return f"{left}*{right}"
    raise TypeError(f"not an expression node: {e!r}")


def expr_adjoint(e: RatExpr) -> RatExpr:
    """Formal adjoint; applying it twice gives back the original tree."""
    if isinstance(e, Const):
        return Const(e.value.conjugate())
    if isinstance(e, Var):
        return Adjoint(e)
    if isinstance(e, Adjoint):
        return e.child
    if isinstance(e, Neg):
        return Neg(expr_adjoint(e.child))
    if isinstance(e, Inv):
        return Inv(expr_adjoint(e.child))
    if isinstance(e, Add):
        return Add(expr_adjoint(e.left), expr_adjoint(e.right))
    if isinstance(e, Mul):
        return Mul(expr_adjoint(e.right), expr_adjoint(e.left))
    raise TypeError(f"not an expression node: {e!r}")


def is_polynomial(e: RatExpr, n_vars: int) -> Optional[NcPoly]:
    """Expand inversion-free expressions into an NcPoly; None if inv occurs."""
    if isinstance(e, Const):
        return NcPoly.const(e.value, n_vars)
    if isinstance(e, Var):
        return NcPoly.var(e.index, n_vars)
    if isinstance(e, Adjoint):
        inner = is_polynomial(e.child, n_vars)
        return None if inner is None else inner.adjoint()
    if isinstance(e, Neg):
        inner = is_polynomial(e.child, n_vars)
        return None if inner is None else -inner
    if isinstance(e, Inv):
        return None
    if isinstance(e, (Add, Mul)):
        left = is_polynomial(e.left, n_vars)
        if left is None:
            return None
        right = is_polynomial(e.right, n_vars)
        if right is None:
            return None
        return left + right if isinstance(e, Add) else left * right
    raise TypeError(f"not an expression node: {e!r}")


INV_TOL_FACTOR = 100.0


def eval_numeric(e: RatExpr, model) -> np.ndarray:
    """Evaluate the AST directly at a matrix tuple.

    Inversion is by linear solve with a singularity guard; a nearly singular
    argument raises OutOfDomain.
    """
    d = model.d
    if isinstance(e, Const):
        return complex(e.value) * np.eye(d, dtype=complex)
    if isinstance(e, Var):
        return np.array(model.matrices[e.index - 1], dtype=complex)
    if isinstance(e, Adjoint):
        return eval_numeric(e.child, model).conj().T
    if isinstance(e, Neg):
        return -eval_numeric(e.child, model)
    if isinstance(e, Inv):
        value = eval_numeric(e.child, model)
        sigmas = np.linalg.svd(value, compute_uv=False)
        cutoff = INV_TOL_FACTOR * d * np.finfo(float).eps * (sigmas[0] if len(sigmas) else 0.0)
        if len(sigmas) == 0 or sigmas[-1] <= cutoff:
            raise OutOfDomain(
                "inner inverse does not exist at this point",
                float(sigmas[-1]) if len(sigmas) else 0.0,
            )
        return np.linalg.solve(value, np.eye(d, dtype=complex))
    if isinstance(e, Add):
        return eval_numeric(e.left, model) + eval_numeric(e.right, model)
    if isinstance(e, Mul):
        return eval_numeric(e.left, model) @ eval_numeric(e.right, model)
    raise TypeError(f"not an expression node: {e!r}")


_ADJ_STAR = re.compile(r"(x\d+)\*(?![0-9x(])")


def poly_from_string(text: str, n_vars: Optional[int] = None) -> NcPoly:
    """Parse the canonical polynomial form, where a trailing star marks adjoints.

    A star directly after a variable that is not followed by another factor
    is an adjoint marker; every other star is a product.  The result must be
    inversion free.
    """
    rewritten = _ADJ_STAR.sub(r"\1'", text)
    expr = parse(rewritten, n_vars)
    if n_vars is None:
        n_vars = max_var_index(expr)
    poly = is_polynomial(expr, n_vars)
    if poly is None:
        raise InputError("polynomial text must not contain inv()")
    return poly

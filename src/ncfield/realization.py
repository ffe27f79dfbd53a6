"""Linear representations of rational expressions.

A representation of a rational function r is a triple (u, A, v) with a row u,
a full square linear pencil A over the doubled alphabet x1..xn, x1*..xn*, and
a column v, such that r = u A^{-1} v wherever A is invertible.  The
constructors below compose representations along the expression tree:

* a polynomial subexpression p comes from its shared-prefix linearization
  L = [[L00, L0B], [LB0, B]] of [[p]] (``ncrank.linearize_matrix``), as
  [[1, L0B, -L00], [0, B, -LB0], [0, 0, 1]] with u = e_first and
  v = e_last, of size 2 + border; this pencil is invertible at every point;
* the inverse of an affine subexpression collapses to the 1x1 pencil [l];
* sums take direct sums; products couple the blocks through -v1 u2, and
  when a factor comes from its expansion, its unit pivot next to the
  coupling is eliminated exactly, so the product is one smaller than the
  sum of sizes;
* a general inverse borders the pencil so that the new Schur complement is
  -r, and the adjoint swaps u and v against the adjoint pencil.

Each constructor writes pencil cells only: its blocks' cells at their
offsets and the cells of its coupling (``LinearPencil.from_cells``).

A polynomial subexpression comes from its expansion only while no product
in it copies letters, so (x1 + x2)*(x1 + x2) is a product of two pencils of
size 2, not the expansion of four words.  The expansion then has at most as
many letters as the subexpression has variable leaves, and its border is
at most that count less one; so the size is at most twice the leaf count plus
the number of inversions.

Only the evaluation identity is guaranteed; representations of equal
functions need not match entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import OutOfDomain
from .ncpoly import LinearPencil, NcMatrix, NcPoly
from .ncrank import linearize_matrix
from .ratexpr import Add, Adjoint, Const, Inv, Mul, Neg, RatExpr, Var, is_polynomial, max_var_index
from .scalars import GaussianRational

Row = Tuple[GaussianRational, ...]


@dataclass(frozen=True)
class LinearRepresentation:
    u: Row
    pencil: LinearPencil
    v: Row

    @property
    def k(self) -> int:
        return self.pencil.rows

    @property
    def n_vars(self) -> int:
        return self.pencil.n_vars


def _zeros(k: int) -> Row:
    return tuple(GaussianRational(0) for _ in range(k))


def _offset(cells: dict, rows: int, cols: int) -> dict:
    """The cells moved down by ``rows`` and right by ``cols``."""
    return {(k, rows + i, cols + j): c for (k, i, j), c in cells.items()}


def _square(cells: dict, k: int, n_vars: int) -> LinearPencil:
    """The k x k pencil over the doubled alphabet with these cells."""
    return LinearPencil.from_cells(cells, k, k, n_vars, star_letters=True)


def _rep_poly(poly: NcPoly, n_vars: int) -> LinearRepresentation:
    """[[1, L0B, -L00], [0, B, -LB0], [0, 0, 1]] from L = linearize_matrix([[p]]).

    With L = [[L00, L0B], [LB0, B]], the (first, last) entry of the inverse
    is L00 - L0B B^{-1} LB0 = p, so u = e_first and v = e_last.  The pencil
    is block triangular with diagonal 1, B, 1, hence invertible at every
    point.
    """
    lin, border = linearize_matrix(NcMatrix([[poly]], n_vars))
    size = border + 2
    one = GaussianRational(1)
    # L's column 0, the column of p, moves to the last column, negated
    cells = {(k, i, j or size - 1): c if j else -c for (k, i, j), c in lin.cells.items()}
    cells[0, 0, 0] = cells[0, size - 1, size - 1] = one
    return LinearRepresentation(
        (one,) + _zeros(size - 1), _square(cells, size, n_vars), _zeros(size - 1) + (one,)
    )


def _rep_inv_affine(poly: NcPoly, n_vars: int) -> LinearRepresentation:
    """1x1 pencil [l] representing the inverse of an affine polynomial."""
    pencil = NcMatrix([[poly]], n_vars).to_pencil().widen_alphabet()
    one = GaussianRational(1)
    return LinearRepresentation((one,), pencil, (one,))


def _rep_add(r1: LinearRepresentation, r2: LinearRepresentation) -> LinearRepresentation:
    return LinearRepresentation(
        r1.u + r2.u, r1.pencil.direct_sum(r2.pencil), r1.v + r2.v
    )


def _upper(c1: dict, k1: int, c2: dict, k2: int, coupling: dict, n_vars: int) -> LinearPencil:
    """[[A1, C], [0, A2]] from the cells of A1 (k1 x k1), A2 (k2 x k2) and C."""
    return _square({**c1, **_offset(c2, k1, k1), **_offset(coupling, 0, k1)}, k1 + k2, n_vars)


def _rep_mul(r1: LinearRepresentation, r2: LinearRepresentation) -> LinearRepresentation:
    """Couple the blocks through -v1 u2 in the constant slot."""
    coupling = {(0, i, j): -(a * b) for i, a in enumerate(r1.v) if a
                for j, b in enumerate(r2.u) if b}
    pencil = _upper(r1.pencil.cells, r1.k, r2.pencil.cells, r2.k, coupling, r1.n_vars)
    return LinearRepresentation(r1.u + _zeros(r2.k), pencil, _zeros(r1.k) + r2.v)


def _rep_mul_poly(r: LinearRepresentation, p: LinearRepresentation) -> LinearRepresentation:
    """r * p for a polynomial p (``_rep_poly``), less p's first node.

    The product's coupling -v_r e_first meets p's unit pivot, whose column
    is otherwise zero; eliminating it couples v_r to the rest of p's first
    row instead.
    """
    cells = p.pencil.cells.items()
    first = {(k, i - 1, j - 1): c for (k, i, j), c in cells if i and j}
    coupling = {(k, a, j - 1): x * c for (k, i, j), c in cells if not i and j
                for a, x in enumerate(r.v) if x}
    pencil = _upper(r.pencil.cells, r.k, first, p.k - 1, coupling, r.n_vars)
    return LinearRepresentation(r.u + _zeros(p.k - 1), pencil, _zeros(r.k) + p.v[1:])


def _poly_mul_rep(p: LinearRepresentation, r: LinearRepresentation) -> LinearRepresentation:
    """p * r for a polynomial p (``_rep_poly``), less p's last node.

    The product's coupling -e_last u_r meets p's unit pivot, whose row is
    otherwise zero; eliminating it couples the rest of p's last column to
    u_r instead.
    """
    last = p.k - 1
    cells = p.pencil.cells.items()
    kept = {key: c for key, c in cells if key[1] < last and key[2] < last}
    coupling = {(k, i, b): c * x for (k, i, j), c in cells if i < last and j == last
                for b, x in enumerate(r.u) if x}
    pencil = _upper(kept, last, r.pencil.cells, r.k, coupling, r.n_vars)
    return LinearRepresentation(p.u[:last] + _zeros(r.k), pencil, _zeros(last) + r.v)


def _rep_inv(r: LinearRepresentation) -> LinearRepresentation:
    """Border the pencil; the new (1,1) slot of the inverse is -1/r."""
    cells = _offset(r.pencil.cells, 1, 1)
    cells.update(((0, 0, 1 + j), x) for j, x in enumerate(r.u))
    cells.update(((0, 1 + i, 0), x) for i, x in enumerate(r.v))
    one = GaussianRational(1)
    pencil = _square(cells, r.k + 1, r.n_vars)
    return LinearRepresentation((one,) + _zeros(r.k), pencil, (-one,) + _zeros(r.k))


def _rep_adjoint(r: LinearRepresentation) -> LinearRepresentation:
    u = tuple(x.conjugate() for x in r.v)
    v = tuple(x.conjugate() for x in r.u)
    return LinearRepresentation(u, r.pencil.adjoint(), v)


def _rep_neg(r: LinearRepresentation) -> LinearRepresentation:
    return LinearRepresentation(tuple(-x for x in r.u), r.pencil, r.v)


def _letters(poly: NcPoly) -> int:
    return sum(len(word) for word, _ in poly.terms())


def realize(e: RatExpr, n_vars: Optional[int] = None) -> LinearRepresentation:
    """Build a linear representation of the expression.

    An inversion-free subexpression whose products copy no letter (each
    product's expansion has no more letters than its factors' together) is
    realized from its expansion p, at size 2 + the border of
    ``linearize_matrix([[p]])``.  A product whose expansion would copy
    letters is realized factor by factor instead, so factored powers stay
    linear in size.  An inverse of an affine polynomial has size 1, sums add
    sizes, a product adds them less one when a factor is realized from its
    expansion, and any other inverse adds one.  The size is at most twice
    the leaf count plus the number of inversions.
    """
    if n_vars is None:
        n_vars = max(max_var_index(e), 1)

    def rep_of(built) -> LinearRepresentation:
        rep, poly = built
        return _rep_poly(poly, n_vars) if rep is None else rep

    def build(node: RatExpr) -> Tuple[Optional[LinearRepresentation], Optional[NcPoly]]:
        """(None, p) for a node realized from its expansion p, else (rep, None)."""
        if isinstance(node, (Const, Var)):
            return None, is_polynomial(node, n_vars)
        if isinstance(node, Inv):
            child = build(node.child)
            if child[1] is not None and child[1].degree <= 1:
                return _rep_inv_affine(child[1], n_vars), None
            return _rep_inv(rep_of(child)), None
        if isinstance(node, Neg):
            rep, poly = build(node.child)
            return (None, -poly) if rep is None else (_rep_neg(rep), None)
        if isinstance(node, Adjoint):
            rep, poly = build(node.child)
            return (None, poly.adjoint()) if rep is None else (_rep_adjoint(rep), None)
        if not isinstance(node, (Add, Mul)):
            raise TypeError(f"not an expression node: {node!r}")
        left, right = build(node.left), build(node.right)
        if isinstance(node, Add):
            if left[0] is None and right[0] is None:
                return None, left[1] + right[1]
            return _rep_add(rep_of(left), rep_of(right)), None
        if left[0] is None and right[0] is None:
            product = left[1] * right[1]
            if _letters(product) <= _letters(left[1]) + _letters(right[1]):
                return None, product
        if right[0] is None:
            return _rep_mul_poly(rep_of(left), rep_of(right)), None
        if left[0] is None:
            return _poly_mul_rep(rep_of(left), rep_of(right)), None
        return _rep_mul(rep_of(left), rep_of(right)), None

    return rep_of(build(e))


@dataclass(frozen=True)
class DomainReport:
    ok: bool
    sigma_min: float
    threshold: float
    size: int


def _pencil_at(
    rep: LinearRepresentation, model, tol_factor: float
) -> Tuple[DomainReport, np.ndarray]:
    """The evaluated pencil and its domain report, from one SVD."""
    value = rep.pencil.evaluate(model)
    sigmas = np.linalg.svd(value, compute_uv=False)
    sigma_max = float(sigmas[0]) if len(sigmas) else 0.0
    sigma_min = float(sigmas[-1]) if len(sigmas) else 0.0
    threshold = tol_factor * rep.k * model.d * np.finfo(float).eps * sigma_max
    report = DomainReport(sigma_min > threshold, sigma_min, threshold, value.shape[0])
    return report, value


def domain_check(
    rep: LinearRepresentation, model, tol_factor: float = 1.0
) -> DomainReport:
    """Invertibility of the defining pencil at a point.

    The cutoff is tol_factor * k * d * machine epsilon * the largest singular
    value of the evaluated pencil.
    """
    return _pencil_at(rep, model, tol_factor)[0]


def eval_and_check(
    rep: LinearRepresentation, model, tol_factor: float = 1.0
) -> Tuple[DomainReport, np.ndarray]:
    """Domain report and value u A(X)^{-1} v, from one SVD and one solve.

    Raises OutOfDomain when the report finds the pencil singular.
    """
    report, value = _pencil_at(rep, model, tol_factor)
    if not report.ok:
        raise OutOfDomain("pencil is singular at the sampled point", report.sigma_min)
    eye = np.eye(value.shape[0] // rep.k, dtype=complex)
    u_row = np.array([[complex(x) for x in rep.u]], dtype=complex)
    v_col = np.array([[complex(x)] for x in rep.v], dtype=complex)
    return report, np.kron(u_row, eye) @ np.linalg.solve(value, np.kron(v_col, eye))


def eval_rep(
    rep: LinearRepresentation, model, tol_factor: float = 1.0
) -> np.ndarray:
    """Value u A(X)^{-1} v of the represented function at a matrix tuple."""
    return eval_and_check(rep, model, tol_factor)[1]

"""Linear representations of rational expressions.

A representation of a rational function r is a triple (u, A, v) with a row u,
a full square linear pencil A over the doubled alphabet x1..xn, x1*..xn*, and
a column v, such that r = u A^{-1} v wherever A is invertible.  The
constructors below compose representations along the expression tree:

* affine subexpressions c0 + sum ci xi (stars allowed) get a 2x2 block
  [[l, 1], [1, 0]] with u = (0, 1), v = (0, -1);
* the inverse of an affine subexpression collapses to the 1x1 pencil [l];
* sums take direct sums, products couple the blocks through -v1 u2, a general
  inverse borders the pencil so that the new Schur complement is -r, and the
  adjoint swaps u and v against the adjoint pencil.

Only the evaluation identity is guaranteed; representations of equal
functions need not match entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import OutOfDomain
from .ncpoly import LinearPencil, NcPoly, letter_slot, zero_matrix
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

    def evaluate(self, model, tol_factor: float = 1.0) -> np.ndarray:
        return eval_rep(self, model, tol_factor)


def _pencil(slots: List[List[List[GaussianRational]]], n_vars: int) -> LinearPencil:
    return LinearPencil(slots, n_vars, star_letters=True)


def _affine_poly(e: RatExpr, n_vars: int) -> Optional[NcPoly]:
    poly = is_polynomial(e, n_vars)
    if poly is not None and poly.degree <= 1:
        return poly
    return None


def _affine_slots(poly: NcPoly, n_vars: int, size: int):
    """size x size coefficient slots holding the affine polynomial at (0, 0)."""
    slots = [zero_matrix(size, size) for _ in range(1 + 2 * n_vars)]
    for word, coeff in poly.terms():
        slots[letter_slot(word[0], n_vars) if word else 0][0][0] = coeff
    return slots


def _rep_affine(poly: NcPoly, n_vars: int) -> LinearRepresentation:
    """2x2 block [[l, 1], [1, 0]] representing an affine polynomial l."""
    slots = _affine_slots(poly, n_vars, 2)
    slots[0][0][1] = GaussianRational(1)
    slots[0][1][0] = GaussianRational(1)
    zero, one = GaussianRational(0), GaussianRational(1)
    return LinearRepresentation(
        (zero, one), _pencil(slots, n_vars), (zero, -one)
    )


def _rep_inv_affine(poly: NcPoly, n_vars: int) -> LinearRepresentation:
    """1x1 pencil [l] representing the inverse of an affine polynomial."""
    slots = _affine_slots(poly, n_vars, 1)
    one = GaussianRational(1)
    return LinearRepresentation((one,), _pencil(slots, n_vars), (one,))


def _rep_add(r1: LinearRepresentation, r2: LinearRepresentation) -> LinearRepresentation:
    return LinearRepresentation(
        r1.u + r2.u, r1.pencil.direct_sum(r2.pencil), r1.v + r2.v
    )


def _rep_mul(r1: LinearRepresentation, r2: LinearRepresentation) -> LinearRepresentation:
    k1, k2 = r1.k, r2.k
    n_vars = r1.n_vars
    slots = []
    for pos, (a1, a2) in enumerate(zip(r1.pencil.coeffs, r2.pencil.coeffs)):
        block = zero_matrix(k1 + k2, k1 + k2)
        for i in range(k1):
            for j in range(k1):
                block[i][j] = a1[i][j]
        for i in range(k2):
            for j in range(k2):
                block[k1 + i][k1 + j] = a2[i][j]
        if pos == 0:
            for i in range(k1):
                for j in range(k2):
                    block[i][k1 + j] = -(r1.v[i] * r2.u[j])
        slots.append(block)
    zero = GaussianRational(0)
    u = r1.u + tuple(zero for _ in range(k2))
    v = tuple(zero for _ in range(k1)) + r2.v
    return LinearRepresentation(u, _pencil(slots, n_vars), v)


def _rep_inv(r: LinearRepresentation) -> LinearRepresentation:
    """Border the pencil; the new (1,1) slot of the inverse is -1/r."""
    k = r.k
    n_vars = r.n_vars
    slots = []
    for pos, a in enumerate(r.pencil.coeffs):
        block = zero_matrix(k + 1, k + 1)
        for i in range(k):
            for j in range(k):
                block[1 + i][1 + j] = a[i][j]
        if pos == 0:
            for j in range(k):
                block[0][1 + j] = r.u[j]
            for i in range(k):
                block[1 + i][0] = r.v[i]
        slots.append(block)
    zero, one = GaussianRational(0), GaussianRational(1)
    u = (one,) + tuple(zero for _ in range(k))
    v = (-one,) + tuple(zero for _ in range(k))
    return LinearRepresentation(u, _pencil(slots, n_vars), v)


def _rep_adjoint(r: LinearRepresentation) -> LinearRepresentation:
    u = tuple(x.conjugate() for x in r.v)
    v = tuple(x.conjugate() for x in r.u)
    return LinearRepresentation(u, r.pencil.adjoint(), v)


def _rep_neg(r: LinearRepresentation) -> LinearRepresentation:
    return LinearRepresentation(tuple(-x for x in r.u), r.pencil, r.v)


def realize(e: RatExpr, n_vars: Optional[int] = None) -> LinearRepresentation:
    """Build a linear representation of the expression.

    The pencil size is at most twice the leaf count plus the number of
    inversions.
    """
    if n_vars is None:
        n_vars = max(max_var_index(e), 1)

    def build(node: RatExpr) -> LinearRepresentation:
        affine = _affine_poly(node, n_vars)
        if affine is not None:
            return _rep_affine(affine, n_vars)
        if isinstance(node, Inv):
            inner_affine = _affine_poly(node.child, n_vars)
            if inner_affine is not None:
                return _rep_inv_affine(inner_affine, n_vars)
            return _rep_inv(build(node.child))
        if isinstance(node, Add):
            return _rep_add(build(node.left), build(node.right))
        if isinstance(node, Mul):
            return _rep_mul(build(node.left), build(node.right))
        if isinstance(node, Neg):
            return _rep_neg(build(node.child))
        if isinstance(node, Adjoint):
            return _rep_adjoint(build(node.child))
        raise TypeError(f"not an expression node: {node!r}")

    return build(e)


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


def _solve(rep: LinearRepresentation, value: np.ndarray) -> np.ndarray:
    """u A^{-1} v from the evaluated pencil A, known to be invertible."""
    eye = np.eye(value.shape[0] // rep.k, dtype=complex)
    u_row = np.array([[complex(x) for x in rep.u]], dtype=complex)
    v_col = np.array([[complex(x)] for x in rep.v], dtype=complex)
    return np.kron(u_row, eye) @ np.linalg.solve(value, np.kron(v_col, eye))


def domain_check(
    rep: LinearRepresentation, model, tol_factor: float = 1.0
) -> DomainReport:
    """Invertibility of the defining pencil at a point.

    The cutoff is tol_factor * k * d * machine epsilon * the largest singular
    value of the evaluated pencil.
    """
    return _pencil_at(rep, model, tol_factor)[0]


def eval_rep(
    rep: LinearRepresentation, model, tol_factor: float = 1.0
) -> np.ndarray:
    """Value u A(X)^{-1} v of the represented function at a matrix tuple."""
    report, value = _pencil_at(rep, model, tol_factor)
    if not report.ok:
        raise OutOfDomain(
            f"pencil is singular at this point (sigma_min={report.sigma_min:.3e})",
            report.sigma_min,
        )
    return _solve(rep, value)

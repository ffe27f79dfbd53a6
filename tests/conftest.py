"""Shared builders for the test suite.

Everything here is deterministic given a seed.  The hollow builders return
matrices that are nonfull by construction (they contain an r x s zero block
with r + s exceeding the matrix size), which gives the rank engines a supply
of inputs with a known verdict.  The conjugated variant hides the zero block
behind exact invertible scalar matrices so that the zero-pattern shortcut
cannot fire and the iterative machinery has to do real work.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ncfield import GaussianRational, NcMatrix, NcPoly


def random_linear_entry(rng: random.Random, n_vars: int) -> NcPoly:
    """A nonzero homogeneous linear polynomial with small integer coefficients."""
    while True:
        poly = NcPoly.zero(n_vars)
        for i in range(1, n_vars + 1):
            c = rng.randint(-2, 2)
            if c:
                poly = poly + NcPoly.var(i, n_vars) * NcPoly.const(c, n_vars)
        if not poly.is_zero():
            return poly


def hollow_matrix(size: int, n_vars: int, seed: int) -> NcMatrix:
    """A size x size matrix with a zero block of shape r x s, r + s = size + 1."""
    rng = random.Random(seed)
    r = rng.randint(1, size - 1) if size > 1 else 1
    s = size + 1 - r
    entries = []
    for i in range(size):
        row = []
        for j in range(size):
            if i < r and j < s:
                row.append(NcPoly.zero(n_vars))
            else:
                row.append(random_linear_entry(rng, n_vars))
        entries.append(row)
    return NcMatrix(entries, n_vars)


def invertible_scalar_matrix(size: int, rng: random.Random, n_vars: int) -> NcMatrix:
    """Product of elementary row operations, so exactly invertible."""
    rows = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for _ in range(3 * size):
        i = rng.randrange(size)
        j = rng.randrange(size)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    if rng.random() < 0.5:
        i = rng.randrange(size)
        rows[i] = [-a for a in rows[i]]
    return NcMatrix.from_scalars(rows, n_vars)


def conjugated_hollow_matrix(size: int, n_vars: int, seed: int) -> NcMatrix:
    """A nonfull homogeneous matrix with no visible zero pattern."""
    rng = random.Random(seed ^ 0x5EED)
    base = hollow_matrix(size, n_vars, seed)
    left = invertible_scalar_matrix(size, rng, n_vars)
    right = invertible_scalar_matrix(size, rng, n_vars)
    return left @ base @ right


def exact_rref(rows: list):
    """Reduced row echelon form over Q(i): the exact oracle for the F_p kernel.

    Returns (matrix, pivot columns); the input is copied, never mutated.
    """
    mat = [[GaussianRational.coerce(x) for x in row] for row in rows]
    pivots: list = []
    n_cols = len(mat[0]) if mat else 0
    for col in range(n_cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col].inverse()
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat, pivots

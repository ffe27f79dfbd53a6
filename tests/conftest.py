"""Shared builders for the test suite.

Everything here is deterministic given a seed.  The hollow builders return
matrices that are nonfull by construction (they contain an r x s zero block
with r + s exceeding the matrix size), which gives the rank engines a supply
of inputs with a known verdict.  The conjugated variant hides the zero block
behind exact invertible scalar matrices so that the zero-pattern shortcut
cannot fire and the iterative machinery has to do real work.

Every exact certificate a test obtains from ``fullness_scaling`` must also
pass ``verify_certificate``; an autouse fixture checks this after each test.
"""

from __future__ import annotations

import functools
import importlib
import random
from fractions import Fraction

import pytest

import ncfield
from ncfield import GaussianRational, NcMatrix, NcPoly, verify_certificate

# Every certificate a test obtains from fullness_scaling, directly or through
# ncrank, is recorded here and re-checked by verify_certificate when the test
# ends.  The wrapper is installed before any test module imports the name.
_certificates: list = []
_ncrank_module = importlib.import_module("ncfield.ncrank")


def _recording(fullness_scaling):
    @functools.wraps(fullness_scaling)
    def recorded(pencil, *args, **kwargs):
        cert = fullness_scaling(pencil, *args, **kwargs)
        _certificates.append((pencil, cert))
        return cert

    return recorded


ncfield.fullness_scaling = _ncrank_module.fullness_scaling = _recording(
    _ncrank_module.fullness_scaling
)


@pytest.fixture(autouse=True)
def every_exact_certificate_verifies():
    """Teardown check, after any monkeypatch of the test is undone."""
    _certificates.clear()
    yield
    rejected = [
        (cert.verdict, cert.detail) for pencil, cert in _certificates
        if not verify_certificate(pencil, cert)
    ]
    _certificates.clear()
    assert not rejected, rejected


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

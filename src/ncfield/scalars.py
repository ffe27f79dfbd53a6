"""Exact scalars for the symbolic layer.

Every symbolic object in this package (polynomials, pencils, linear
representations) carries coefficients in Q(i), the field of complex numbers
with rational real and imaginary parts.  A scalar is stored as a pair of
``fractions.Fraction`` values, so arithmetic is exact and hashable, and the
text form ``a/b+c/di`` round-trips without loss.

Floats enter only at evaluation time, via :func:`GaussianRational.__complex__`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

import numpy as np

Rationalish = Union[int, Fraction]
Scalarish = Union["GaussianRational", int, Fraction]

_RAT = r"[+-]?\d+(?:/\d+)?"
_PURE_RE = re.compile(rf"^({_RAT})$")
_PURE_IM = re.compile(r"^([+-]?(?:\d+(?:/\d+)?)?)i$")
_MIXED = re.compile(rf"^({_RAT})([+-](?:\d+(?:/\d+)?)?)i$")


def _im_fraction(text: str) -> Fraction:
    """The coefficient in front of i; a bare sign means 1 or -1."""
    if text in ("", "+"):
        return Fraction(1)
    if text == "-":
        return Fraction(-1)
    return Fraction(text)


class GaussianRational:
    """A complex number a + b*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(value: Scalarish) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot interpret {value!r} as an exact scalar")

    @classmethod
    def from_string(cls, text: str) -> "GaussianRational":
        """Parse the canonical form: '3/2', '-2', 'i', '1/2i', '3/2-1/2i'."""
        s = text.strip().replace(" ", "")
        m = _PURE_RE.match(s)
        if m:
            return cls(Fraction(m.group(1)))
        m = _PURE_IM.match(s)
        if m:
            return cls(0, _im_fraction(m.group(1)))
        m = _MIXED.match(s)
        if m:
            return cls(Fraction(m.group(1)), _im_fraction(m.group(2)))
        raise ValueError(f"not a valid exact scalar: {text!r}")

    # arithmetic

    def __add__(self, other: Scalarish) -> "GaussianRational":
        o = self.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        o = self.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Scalarish) -> "GaussianRational":
        return self.coerce(other) - self

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        o = self.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        o = self.coerce(other)
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("division by zero scalar")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
        )

    def __rtruediv__(self, other: Scalarish) -> "GaussianRational":
        return self.coerce(other) / self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        return GaussianRational(1) / self

    # predicates and conversions

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            o = self.coerce(other)
            return self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return abs(complex(self))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def snap_to_gaussian_rational(z: complex, max_den: int = 64, tol: float = 1e-3):
    """Round a complex number to a nearby Gaussian rational.

    Returns the snapped GaussianRational if both parts admit an approximation
    with denominator at most ``max_den`` within ``tol``, else None.
    """
    re = Fraction(z.real).limit_denominator(max_den)
    im = Fraction(z.imag).limit_denominator(max_den)
    if abs(float(re) - z.real) <= tol and abs(float(im) - z.imag) <= tol:
        return GaussianRational(re, im)
    return None


def rref_exact(rows: list):
    """Reduced row echelon form over Q(i).

    Returns (matrix, pivot column indices).  The input is copied and
    coerced, never mutated.
    """
    mat = [[GaussianRational.coerce(x) for x in row] for row in rows]
    pivots: list = []
    if not mat or not mat[0]:
        return mat, pivots
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if not mat[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col].inverse()
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(n_rows):
            if r != rank and not mat[r][col].is_zero():
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == n_rows:
            break
    return mat, pivots


def kernel_exact(rows: list) -> list:
    """Basis of the exact right kernel, as a list of column vectors."""
    if not rows or not rows[0]:
        return []
    mat, pivots = rref_exact(rows)
    n_cols = len(rows[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [ZERO] * n_cols
        vec[free] = ONE
        for r, p in enumerate(pivots):
            vec[p] = -mat[r][free]
        basis.append(vec)
    return basis


def colspace_exact(rows: list) -> list:
    """Exact basis of the column space: the pivot columns, as column vectors."""
    if not rows or not rows[0]:
        return []
    _, pivots = rref_exact(rows)
    return [[GaussianRational.coerce(row[c]) for row in rows] for c in pivots]


# A prime with p = 1 (mod 4), so -1 has the square root _IOTA in F_p and
# i reduces entrywise.  p < 2^31 keeps every product of residues below 2^62.
_P = 2147483629
_IOTA = 1518275076


def residues_mod_p(rows: list):
    """Entrywise reduction of a Q(i) matrix into F_p, as an int64 array.

    Reduction mod p is a ring homomorphism on the Gaussian rationals whose
    denominators are prime to p (i maps to a square root of -1), so every
    minor maps to the reduced minor.  Returns None for a ragged input or a
    denominator divisible by p, where the homomorphism is not defined.
    """
    if not rows:
        return np.zeros((0, 0), dtype=np.int64)
    n_cols = len(rows[0])
    flat = []
    for row in rows:
        if len(row) != n_cols:
            return None
        for x in row:
            x = GaussianRational.coerce(x)
            re, im = x.re, x.im
            if re.denominator % _P == 0 or im.denominator % _P == 0:
                return None
            flat.append(
                (re.numerator * pow(re.denominator, -1, _P)
                 + _IOTA * im.numerator * pow(im.denominator, -1, _P)) % _P
            )
    return np.array(flat, dtype=np.int64).reshape(len(rows), n_cols)


def rank_mod_p(m: np.ndarray) -> int:
    """Rank over F_p of a residue matrix, by int64 elimination on a copy.

    Reduction never raises rank, so this is a lower bound on the rank over
    Q(i) of any matrix that reduces to ``m``, and it certifies full rank
    when it reads min(rows, cols).
    """
    m = np.array(m, dtype=np.int64)
    n_rows, n_cols = m.shape
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        nonzero = np.flatnonzero(m[rank:, col])
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        row = m[rank, col:] * pow(int(m[rank, col]), -1, _P) % _P
        below = m[rank + 1:, col:]
        below -= np.outer(below[:, 0], row)
        below %= _P
        rank += 1
    return rank

"""Exact scalars for the symbolic layer.

Every symbolic object in this package (polynomials, pencils, linear
representations) carries coefficients in Q(i), the field of complex numbers
with rational real and imaginary parts.  A scalar is stored as a pair of
``fractions.Fraction`` values, so arithmetic is exact and hashable, and the
text form ``a/b+c/di`` round-trips without loss.

Floats enter only at evaluation time, via :func:`GaussianRational.__complex__`.
Linear algebra on these scalars runs on int64 residues mod a prime p, and
small results come back to Q(i) by rational reconstruction.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import List, Optional, Tuple, Union

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


_FRACTION_ZERO = Fraction(0)


class GaussianRational:
    """A complex number a + b*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rationalish = _FRACTION_ZERO, im: Rationalish = _FRACTION_ZERO):
        # A Fraction is immutable, so a part that already is one is stored as
        # it is; Fraction() on it would only build a copy.
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

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
        return not (self.re or self.im)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

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
        re, im = self.re, self.im
        return complex(re.numerator / re.denominator, im.numerator / im.denominator)

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


def echelon_mod_p(m: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Row echelon form over F_p with unit pivots, by int64 elimination.

    Works on a copy.  Returns the nonzero echelon rows and their pivot
    columns; every rank and kernel mod p is read from these.
    """
    m = np.array(m, dtype=np.int64)
    n_rows, n_cols = m.shape
    pivots: List[int] = []
    for col in range(n_cols):
        rank = len(pivots)
        if rank == n_rows:
            break
        nonzero = np.flatnonzero(m[rank:, col])
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        m[rank, col:] = row = m[rank, col:] * pow(int(m[rank, col]), -1, _P) % _P
        below = m[rank + 1:, col:]
        below -= np.outer(below[:, 0], row)
        below %= _P
        pivots.append(col)
    return m[:len(pivots)], pivots


def rank_mod_p(m: np.ndarray) -> int:
    """Rank over F_p of a residue matrix; the input is left alone.

    Reduction never raises rank, so this is a lower bound on the rank over
    Q(i) of any matrix that reduces to ``m``, and it certifies full rank
    when it reads min(rows, cols).
    """
    return len(echelon_mod_p(m)[1])


def kernel_mod_p(m: np.ndarray) -> np.ndarray:
    """Right kernel over F_p, one column per free column of ``m``.

    Column f is 1 at f and 0 at the other free columns, so the basis is a
    function of the kernel alone and lifts entry by entry.
    """
    rows, pivots = echelon_mod_p(m)
    for r in range(len(pivots) - 1, 0, -1):  # back-substitute to reduced form
        rows[:r] = (rows[:r] - np.outer(rows[:r, pivots[r]], rows[r])) % _P
    free = [c for c in range(m.shape[1]) if c not in pivots]
    basis = np.eye(m.shape[1], dtype=np.int64)[:, free]
    basis[pivots] = -rows[:, free] % _P
    return basis


def matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int = _P) -> np.ndarray:
    """a @ b mod a prime p < 2^31 for residue matrices, with no int64 overflow.

    A plain ``a @ b`` overflows once a row sums two products near 2^62.
    Splitting b at 2^16 keeps each product below 2^47, so the sums are exact
    for inner dimensions below 2^15.  Stacks of matrices broadcast as in @.
    """
    return ((a @ (b >> 16) % p << 16) + a @ (b & 0xFFFF)) % p


def moduli_above(bound: int) -> List[int]:
    """Primes below 2^31, p first and then downward, whose product exceeds ``bound``.

    There is always at least one.  An integer of absolute value at most
    bound / 2 that vanishes modulo each of them is zero.  Primality is read
    by Miller-Rabin at the bases 2, 3, 5 and 7, which is deterministic below
    3.2 * 10^9.
    """
    moduli, product, q = [_P], _P, _P
    while product <= bound:
        q -= 2
        if _is_prime(q):
            moduli.append(q)
            product *= q
    return moduli


def _is_prime(q: int) -> bool:
    """Miller-Rabin for an odd q above 7 and below 3.2 * 10^9."""
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def reconstruct(r: int) -> Optional[Fraction]:
    """The fraction a/b with |a|, |b| <= sqrt(p/2) and a = b*r mod p, or None.

    Wang's half extended Euclid; the fraction is unique when it exists.
    """
    half = math.isqrt(_P // 2)
    r0, r1, t0, t1 = _P, int(r) % _P, 0, 1
    while r1 > half:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > half or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def lift_mod_p(plus: np.ndarray, minus: np.ndarray) -> Optional[list]:
    """Q(i) matrix from its reductions at i = iota (plus) and i = -iota (minus).

    Returns its rows, or None when a real or imaginary part of an entry has
    no small reconstruction.
    """
    re = (plus + minus) % _P * pow(2, -1, _P) % _P
    im = (plus - minus) % _P * pow(2 * _IOTA, -1, _P) % _P
    parts = [[(reconstruct(a), reconstruct(b)) for a, b in zip(*rows)]
             for rows in zip(re.tolist(), im.tolist())]
    if any(None in pair for row in parts for pair in row):
        return None
    return [[GaussianRational(*pair) for pair in row] for row in parts]



# Polynomials over the Gaussian integers Z[i], for characteristic
# polynomials and their gcds.  A Gaussian integer is an (re, im) pair of
# Python ints.  A polynomial is the list of its coefficients from the
# leading one down to the constant, with no leading zero; [] is the zero
# polynomial.  Results are defined up to a nonzero scalar factor, which the
# gcd and the quotient drop to keep coefficients small (the gcd comes back
# monic where it can, else ``_primitive``): callers need a polynomial only
# for its roots.

GaussInt = Tuple[int, int]


def _gdot(xs, ys) -> GaussInt:
    """sum of x*y over the pairs, in Z[i]."""
    re = im = 0
    for (a, b), (c, d) in zip(xs, ys):
        re += a * c - b * d
        im += a * d + b * c
    return (re, im)


def charpoly_zi(rows: List[List[GaussInt]]) -> List[GaussInt]:
    """det(t - M) for a square Gaussian-integer matrix M, by Berkowitz.

    Division free: the characteristic polynomial of the leading k x k block
    M_k goes to size k + 1 through a lower triangular Toeplitz matrix whose
    first column is 1, -a, -RC, -R M_k C, ..., -R M_k^(k-1) C, with R, C
    and a the new row, column and corner.  That product is the leading
    k + 2 coefficients of the polynomial product with this column.
    """
    poly: List[GaussInt] = [(1, 0)]
    for k in range(len(rows)):
        lead = [row[:k] for row in rows[:k]]
        col = [rows[i][k] for i in range(k)]
        vec = [(1, 0), (-rows[k][k][0], -rows[k][k][1])]
        for _ in range(k):
            re, im = _gdot(rows[k][:k], col)
            vec.append((-re, -im))
            col = [_gdot(row, col) for row in lead]
        poly = mul_zi(vec, poly)[: k + 2]
    return poly


def _strip(f: List[GaussInt]) -> List[GaussInt]:
    k = 0
    while k < len(f) and f[k] == (0, 0):
        k += 1
    return f[k:]


def _primitive(f: List[GaussInt]) -> List[GaussInt]:
    """f divided by the integer gcd of all its parts."""
    g = 0
    for re, im in f:
        g = math.gcd(g, re, im)
    return [(re // g, im // g) for re, im in f] if g > 1 else f


def pseudo_divmod_zi(a: List[GaussInt], b: List[GaussInt]):
    """(q, r) with lc(b)^(deg a - deg b + 1) * a = q*b + r and deg r < deg b.

    For a monic b this is plain division.
    """
    c, d = b[0]
    tail = b[1:]
    q, r = [], list(a)
    for _ in range(len(a) - len(b) + 1):
        # q <- lc*q*t + lead and r <- lc*r - lead*b*t^k, whose top term vanishes
        (x, y), r = r[0], r[1:]
        q = [(c * u - d * v, c * v + d * u) for u, v in q] + [(x, y)]
        head = [(c * u - d * v - x * e + y * f, c * v + d * u - x * f - y * e)
                for (u, v), (e, f) in zip(r, tail)]
        r = head + [(c * u - d * v, c * v + d * u) for u, v in r[len(tail):]]
    return q, _strip(r)


def gcd_zi(a: List[GaussInt], b: List[GaussInt]) -> List[GaussInt]:
    """A gcd of two polynomials in Q(i)[t], with Gaussian-integer coefficients.

    The subresultant PRS (Collins, JACM 1967; Brown and Traub, JACM 1971):
    each pseudo-remainder, taken at exactly lc^(delta + 1), is divided
    exactly by g*h^delta, which keeps the coefficients of polynomial size
    where a primitive PRS grows them exponentially.  A remainder of degree
    0 ends it with the gcd 1.  The last subresultant comes back monic when
    it is a Z[i] multiple of a monic polynomial, as a gcd of monic
    polynomials over Z[i] always is, and primitive otherwise.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _normalized(a)
    a, b = _primitive(a), _primitive(b)
    g = h = (1, 0)
    while True:
        delta = len(a) - len(b)
        r = pseudo_divmod_zi(a, b)[1]
        if not r:
            return _normalized(b)
        if len(r) == 1:
            return [(1, 0)]
        divisor = _gdot([g], [_gpow(h, delta)])
        a, b = b, [_gdiv(x, divisor) for x in r]
        g = a[0]
        if delta:
            h = _gdiv(_gpow(g, delta), _gpow(h, delta - 1))


def _gpow(x: GaussInt, e: int) -> GaussInt:
    out = (1, 0)
    for _ in range(e):
        out = _gdot([out], [x])
    return out


def _gdiv(x: GaussInt, y: GaussInt) -> GaussInt:
    """x / y in Z[i], for a y that divides x."""
    (a, b), (c, d) = x, y
    norm = c * c + d * d
    return ((a * c + b * d) // norm, (b * c - a * d) // norm)


def _normalized(f: List[GaussInt]) -> List[GaussInt]:
    """f / lc(f) when that lies in Z[i][t], else the primitive f."""
    if not f:
        return f
    c, d = f[0]
    norm = c * c + d * d
    if all((a * c + b * d) % norm == 0 == (b * c - a * d) % norm for a, b in f):
        return [_gdiv(x, f[0]) for x in f]
    return _primitive(f)


def mul_zi(a: List[GaussInt], b: List[GaussInt]) -> List[GaussInt]:
    """The product of two polynomials."""
    if not a or not b:
        return []
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            re, im = _gdot([x], [y])
            out[i + j] = (out[i + j][0] + re, out[i + j][1] + im)
    return out


def squarefree_zi(f: List[GaussInt]) -> List[GaussInt]:
    """The squarefree part f / gcd(f, f'): each root of f once."""
    deg = len(f) - 1
    if deg < 1:
        return f
    derivative = [((deg - k) * re, (deg - k) * im) for k, (re, im) in enumerate(f[:-1])]
    return _primitive(pseudo_divmod_zi(f, gcd_zi(f, derivative))[0])


def eval_zi(f: List[GaussInt], w: GaussInt) -> GaussInt:
    """f(w) in Z[i], by Horner's rule."""
    acc = (0, 0)
    for re, im in f:
        acc = _gdot([acc], [w])
        acc = (acc[0] + re, acc[1] + im)
    return acc


# Primes for irreducible_zi: _P first, then this fixed number of further ones.
IRREDUCIBILITY_PRIMES = 32


@functools.cache
def _split_moduli() -> List[Tuple[int, int]]:
    """(q, a square root of -1 mod q) for _P, then for the next primes q = 1 (mod 4) below it."""
    out, q = [(_P, _IOTA)], _P
    while len(out) <= IRREDUCIBILITY_PRIMES:
        q -= 4
        if _is_prime(q):
            # c^((q-1)/4) squares to -1 once c is a non-residue mod q
            roots = (pow(c, (q - 1) // 4, q) for c in range(2, q))
            out.append((q, next(r for r in roots if r * r % q == q - 1)))
    return out


def irreducible_zi(f: List[GaussInt]) -> bool:
    """True when a monic f in Z[i][t] is proved irreducible over Q(i).

    Modulo a prime q = 1 (mod 4), with i sent to a square root of -1, Z[i]
    maps onto F_q and the monic f keeps its degree k.  A factorization over
    Q(i), which Gauss's lemma puts in Z[i][t], would map to one over F_q.
    So f is irreducible once f mod q has no factor of degree j <= k/2, which
    distinct-degree factorization reads as gcd(f, t^(q^j) - t) = 1 for each
    such j; a repeated factor has such a j too, so f mod q is then also
    squarefree.  _P is tried first, then IRREDUCIBILITY_PRIMES more.  False
    only means "not proved": some irreducible f, such as t^4 - 10 t^2 + 1,
    split modulo every prime.
    """
    if f[0] != (1, 0):
        raise ValueError("irreducible_zi needs a monic polynomial")
    for q, iota in _split_moduli():
        low = [(re + iota * im) % q for re, im in reversed(f)]  # constant term first
        power = [0, 1]  # t^(q^j) mod f, from j = 0
        for _ in range((len(f) - 1) // 2):
            power = _powmod(power, q, low, q)
            if not _coprime_mod(low, [c - (j == 1) for j, c in enumerate(power)], q):
                break
        else:
            return True
    return False


def _powmod(a: List[int], e: int, f: List[int], q: int) -> List[int]:
    """a^e mod (f, q) by square and multiply, constant terms first; f monic."""
    out = [1]
    while e:
        if e & 1:
            out = _mulmod(out, a, f, q)
        a, e = _mulmod(a, a, f, q), e >> 1
    return out


def _mulmod(a: List[int], b: List[int], f: List[int], q: int) -> List[int]:
    """a * b mod (f, q), constant terms first, as k coefficients for f monic of degree k."""
    k = len(f) - 1
    prod = [0] * max(len(a) + len(b) - 1, k)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top] % q
        for j in range(k):
            prod[top - k + j] -= c * f[j]
    return [x % q for x in prod[:k]]


def _coprime_mod(a: List[int], b: List[int], q: int) -> bool:
    """gcd(a, b) = 1 over F_q, constant terms first."""
    a, b = _trim(a, q), _trim(b, q)
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % q, len(a) - len(b)
            a = _trim([x - c * b[j - shift] if j >= shift else x for j, x in enumerate(a)], q)
        a, b = b, a
    return len(a) == 1


def _trim(a: List[int], q: int) -> List[int]:
    """a mod q, without zero coefficients at the top."""
    a = [x % q for x in a]
    while a and not a[-1]:
        a.pop()
    return a

"""Noncommutative polynomials, matrices over them, and linear pencils.

A polynomial in the free algebra over x1..xn (and their formal adjoints) is
stored as a map from words to exact scalars; the zero polynomial is the empty
map.  A word is a tuple of letters, a letter is (variable index, star flag).
Words are ordered by length first and then lexicographically, which fixes a
canonical text form such as ``(3/2+1/2i)*x1*x2* + 1``.

A linear pencil A0 + A1*x1 + ... keeps its nonzero exact cells, a map from
(slot, row, column) to the coefficient of slot 0 (the constant) or of one
letter; every pencil operation reads and writes cells, and ``coeffs`` is a
dense view for callers that want the matrices.  Pencils may live over the
plain alphabet x1..xn or over the doubled alphabet x1..xn, x1*..xn*; the
doubled form is what linear representations of rational expressions use.
Its coefficient order is that of the plain letters
x1..x2n, with xi* in slot n + i (``letter_slot``), so the exact engine reads
a doubled pencil as a plain one in 2n letters.  Evaluation substitutes
concrete matrices for the letters, sends scalars to multiples of the
identity, and returns a complex numpy block matrix; every ``evaluate``
calls the one kernel ``evaluate_form`` on a float form.  Matrices and
pencils list their nonzero cells to one builder (``_float_form``), so a
pencil's float form is its matrix's and a pencil need not become a matrix
to be evaluated or ranked.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegreeTooHigh,
    InputError,
    NonSquareError,
    ShapeMismatch,
    VariableMismatch,
)
from .scalars import GaussianRational, GaussInt, Scalarish


class Letter(NamedTuple):
    index: int
    star: bool = False

    def adjoint(self) -> "Letter":
        return Letter(self.index, not self.star)

    def render(self) -> str:
        return f"x{self.index}" + ("*" if self.star else "")


Word = Tuple[Letter, ...]

EMPTY_WORD: Word = ()

# Balancing skips rows within 2^8 of 1: rows within 2^16 of each other clear the SVD threshold
ROW_EXPONENT_SLACK = 8


def letter_slot(letter: Letter, n_vars: int) -> int:
    """Coefficient slot of a letter: i for xi, n + i for xi*."""
    return letter.index + n_vars if letter.star else letter.index


def word_adjoint(word: Word) -> Word:
    return tuple(letter.adjoint() for letter in reversed(word))


class NcPoly:
    """Polynomial in noncommuting variables with exact coefficients."""

    __slots__ = ("n_vars", "_terms")

    def __init__(self, terms: Dict[Word, Scalarish], n_vars: int):
        if n_vars < 0:
            raise ValueError("n_vars must be nonnegative")
        clean: Dict[Word, GaussianRational] = {}
        for word, coeff in terms.items():
            c = GaussianRational.coerce(coeff)
            if c.is_zero():
                continue
            for letter in word:
                if not 1 <= letter.index <= n_vars:
                    raise VariableMismatch(
                        f"letter x{letter.index} outside 1..{n_vars}"
                    )
            clean[tuple(word)] = c
        self.n_vars = n_vars
        self._terms = clean

    # constructors

    @classmethod
    def zero(cls, n_vars: int) -> "NcPoly":
        return cls({}, n_vars)

    @classmethod
    def one(cls, n_vars: int) -> "NcPoly":
        return cls({EMPTY_WORD: GaussianRational(1)}, n_vars)

    @classmethod
    def const(cls, value: Scalarish, n_vars: int) -> "NcPoly":
        return cls({EMPTY_WORD: GaussianRational.coerce(value)}, n_vars)

    @classmethod
    def var(cls, index: int, n_vars: int, star: bool = False) -> "NcPoly":
        return cls({(Letter(index, star),): GaussianRational(1)}, n_vars)

    @classmethod
    def monomial(cls, word: Word, coeff: Scalarish, n_vars: int) -> "NcPoly":
        return cls({tuple(word): GaussianRational.coerce(coeff)}, n_vars)

    # inspection

    def terms(self) -> List[Tuple[Word, GaussianRational]]:
        """Terms sorted by descending degree, then lexicographically."""
        return sorted(self._terms.items(), key=lambda kv: (-len(kv[0]), kv[0]))

    def coefficients(self) -> Iterable[GaussianRational]:
        """The nonzero coefficients, unsorted (cheaper than ``terms``)."""
        return self._terms.values()

    def widen(self, n_vars: int) -> "NcPoly":
        """The same polynomial viewed over a larger variable set."""
        if n_vars < self.n_vars:
            raise VariableMismatch(
                f"cannot narrow from {self.n_vars} to {n_vars} variables"
            )
        if n_vars == self.n_vars:
            return self
        return NcPoly(dict(self._terms), n_vars)

    def coefficient(self, word: Word) -> GaussianRational:
        return self._terms.get(tuple(word), GaussianRational(0))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        if not self._terms:
            return -1
        return max(len(w) for w in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def has_star(self) -> bool:
        return any(letter.star for word in self._terms for letter in word)

    def constant_term(self) -> GaussianRational:
        return self.coefficient(EMPTY_WORD)

    # arithmetic

    def _check_vars(self, other: "NcPoly"):
        if self.n_vars != other.n_vars:
            raise VariableMismatch(
                f"operands over {self.n_vars} and {other.n_vars} variables"
            )

    def __add__(self, other) -> "NcPoly":
        other = self._coerce_operand(other)
        self._check_vars(other)
        terms = dict(self._terms)
        for word, coeff in other._terms.items():
            acc = terms.get(word, GaussianRational(0)) + coeff
            if acc.is_zero():
                terms.pop(word, None)
            else:
                terms[word] = acc
        return NcPoly(terms, self.n_vars)

    __radd__ = __add__

    def __sub__(self, other) -> "NcPoly":
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other) -> "NcPoly":
        return self._coerce_operand(other) - self

    def __neg__(self) -> "NcPoly":
        return NcPoly({w: -c for w, c in self._terms.items()}, self.n_vars)

    def __mul__(self, other) -> "NcPoly":
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.coerce(other)
            return NcPoly({w: k * c for w, k in self._terms.items()}, self.n_vars)
        other = self._coerce_operand(other)
        self._check_vars(other)
        terms: Dict[Word, GaussianRational] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                word = w1 + w2
                acc = terms.get(word, GaussianRational(0)) + c1 * c2
                if acc.is_zero():
                    terms.pop(word, None)
                else:
                    terms[word] = acc
        return NcPoly(terms, self.n_vars)

    def __rmul__(self, other) -> "NcPoly":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * other
        return self._coerce_operand(other) * self

    def _coerce_operand(self, other) -> "NcPoly":
        if isinstance(other, NcPoly):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return NcPoly.const(other, self.n_vars)
        raise TypeError(f"cannot combine NcPoly with {type(other).__name__}")

    def adjoint(self) -> "NcPoly":
        """Conjugate coefficients, reverse words, star every letter."""
        return NcPoly(
            {word_adjoint(w): c.conjugate() for w, c in self._terms.items()},
            self.n_vars,
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = NcPoly.const(other, self.n_vars)
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.n_vars == other.n_vars and self._terms == other._terms

    def __hash__(self):
        return hash((self.n_vars, frozenset(self._terms.items())))

    # text form

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: List[str] = []
        for word, coeff in self.terms():
            negative = coeff.re < 0 or (coeff.re == 0 and coeff.im < 0)
            c = -coeff if negative else coeff
            letters = "*".join(letter.render() for letter in word)
            if not word:
                body = _render_scalar_factor(c)
            elif c == 1:
                body = letters
            else:
                body = _render_scalar_factor(c) + "*" + letters
            if not chunks:
                chunks.append("-" + body if negative else body)
            else:
                chunks.append(("- " if negative else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"NcPoly({str(self)!r}, n_vars={self.n_vars})"

    # evaluation

    def evaluate(self, model, cache: Optional[dict] = None) -> np.ndarray:
        """Value at a tuple of matrices; scalars become multiples of identity."""
        return NcMatrix([[self]], self.n_vars).evaluate(model, cache=cache)


def _render_scalar_factor(c: GaussianRational) -> str:
    text = str(c)
    if c.im != 0 and c.re != 0:
        return f"({text})"
    return text


def evaluate_form(words: Sequence[Word], coeffs: np.ndarray, models, cache=None) -> np.ndarray:
    """The (T, rows * d, cols * d) stack of sum_k coeffs[k] (x) words[k](X).

    X runs over T models of one size d; each word's (T, d, d) value is kept
    in ``cache``.  Terms are added in word order into the output blocks, so
    an entry's value does not depend on the other entries or models.
    """
    t, d = len(models), models[0].d
    _, rows, cols = coeffs.shape
    out = np.zeros((t, rows * d, cols * d), dtype=complex)
    blocks = out.reshape(t, rows, d, cols, d)
    cache = {} if cache is None else cache
    step = max(1, 2**16 // (t * d * d * max(cols, 1)))  # rows per 2^16-entry temporary
    for word, c in zip(words, coeffs):
        if not word:  # einsum returns the block diagonals as a writable view
            np.einsum("tirjr->tijr", blocks)[...] += c[:, :, None]
            continue
        value = _word_value(word, models, cache)[:, None, :, None, :]
        for i in range(0, rows, step):
            part = c[None, i : i + step, None, :, None]
            if step >= rows or part.any():  # a single chunk is never all zero
                blocks[:, i : i + step] += part * value
    return out


def _word_value(word: Word, models, cache: dict) -> np.ndarray:
    """The (T, d, d) stack of values of a nonempty word, built from its prefix."""
    if word not in cache:
        if len(word) == 1:
            cache[word] = np.array([m.letter_value(word[0]) for m in models])
        else:
            prefix = _word_value(word[:-1], models, cache)
            cache[word] = prefix @ _word_value(word[-1:], models, cache)
    return cache[word]


class NcMatrix:
    """Rectangular matrix with NcPoly entries."""

    __slots__ = ("rows", "cols", "n_vars", "entries")

    def __init__(self, entries: Sequence[Sequence[NcPoly]], n_vars: Optional[int] = None):
        rows = len(entries)
        if rows == 0:
            raise ValueError("matrix needs at least one row")
        cols = len(entries[0])
        if any(len(r) != cols for r in entries):
            raise ShapeMismatch("ragged rows")
        if n_vars is None:
            n_vars = max(
                (p.n_vars for row in entries for p in row if isinstance(p, NcPoly)),
                default=0,
            )
        grid = []
        for row in entries:
            new_row = []
            for p in row:
                if not isinstance(p, NcPoly):
                    p = NcPoly.const(p, n_vars)
                new_row.append(p.widen(n_vars))
            grid.append(tuple(new_row))
        self.rows = rows
        self.cols = cols
        self.n_vars = n_vars
        self.entries = tuple(grid)

    # constructors

    @classmethod
    def zero(cls, rows: int, cols: int, n_vars: int) -> "NcMatrix":
        z = NcPoly.zero(n_vars)
        return cls([[z] * cols for _ in range(rows)], n_vars)

    @classmethod
    def identity(cls, size: int, n_vars: int) -> "NcMatrix":
        one = NcPoly.one(n_vars)
        z = NcPoly.zero(n_vars)
        return cls(
            [[one if i == j else z for j in range(size)] for i in range(size)],
            n_vars,
        )

    @classmethod
    def from_scalars(cls, rows: Sequence[Sequence[Scalarish]], n_vars: int) -> "NcMatrix":
        return cls(
            [[NcPoly.const(x, n_vars) for x in row] for row in rows], n_vars
        )

    @classmethod
    def diag(cls, polys: Sequence[NcPoly]) -> "NcMatrix":
        n_vars = max(p.n_vars for p in polys)
        z = NcPoly.zero(n_vars)
        size = len(polys)
        return cls(
            [[polys[i] if i == j else z for j in range(size)] for i in range(size)],
            n_vars,
        )

    def __getitem__(self, key) -> NcPoly:
        i, j = key
        return self.entries[i][j]

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def degree(self) -> int:
        return max(p.degree for row in self.entries for p in row)

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def has_star(self) -> bool:
        return any(p.has_star() for row in self.entries for p in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # arithmetic

    def __add__(self, other: "NcMatrix") -> "NcMatrix":
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} + {other.shape}")
        return NcMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
            self.n_vars,
        )

    def __sub__(self, other: "NcMatrix") -> "NcMatrix":
        return self + (-other)

    def __neg__(self) -> "NcMatrix":
        return NcMatrix(
            [[-p for p in row] for row in self.entries], self.n_vars
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, NcPoly)):
            return NcMatrix(
                [[p * other for p in row] for row in self.entries], self.n_vars
            )
        if not isinstance(other, NcMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        out = []
        for i in range(self.rows):
            out_row = []
            for j in range(other.cols):
                acc = NcPoly.zero(self.n_vars)
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                out_row.append(acc)
            out.append(out_row)
        return NcMatrix(out, self.n_vars)

    __matmul__ = __mul__

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, NcPoly)):
            return NcMatrix(
                [[other * p for p in row] for row in self.entries], self.n_vars
            )
        return NotImplemented

    def adjoint(self) -> "NcMatrix":
        return NcMatrix(
            [
                [self.entries[j][i].adjoint() for j in range(self.rows)]
                for i in range(self.cols)
            ],
            self.n_vars,
        )

    def shift(self, lam: Scalarish) -> "NcMatrix":
        """Subtract lam times the identity."""
        if not self.is_square():
            raise NonSquareError("shift needs a square matrix")
        lam = GaussianRational.coerce(lam)
        out = [list(row) for row in self.entries]
        for i in range(self.rows):
            out[i][i] = out[i][i] - NcPoly.const(lam, self.n_vars)
        return NcMatrix(out, self.n_vars)

    def companion(self, f: Sequence[Scalarish]) -> "NcMatrix":
        """The companion blow-up P (x) I_k - I_N (x) C_f of a polynomial f.

        ``f`` lists the coefficients of f(t) from the leading one down.  With
        f / lead = t^k + c_(k-1) t^(k-1) + ... + c_0, C_f has ones below the
        diagonal and -c_0, ..., -c_(k-1) down its last column, so entry
        (i k + a, j k + b) is P_ij [a = b] - [i = j] C_f[a][b].  For a
        squarefree f the inner rank is the sum of rho(P - mu) over the roots
        mu of f: C_f diagonalizes over the algebraic closure, and inner rank
        does not change under extension of scalars.  So the exact engine
        decides P at irrational mu with Q(i) coefficients alone.
        """
        if not self.is_square():
            raise NonSquareError("a companion blow-up needs a square matrix")
        lead, *rest = (GaussianRational.coerce(c) for c in f)
        if lead.is_zero() or not rest:
            raise InputError("a companion blow-up needs f of degree at least one")
        k, n_vars = len(rest), self.n_vars
        cf = [[GaussianRational(int(a == b + 1)) for b in range(k)] for a in range(k)]
        for a, c in enumerate(reversed(rest)):
            cf[a][k - 1] = -c / lead
        z = NcPoly.zero(n_vars)
        out = [[z] * (self.rows * k) for _ in range(self.rows * k)]
        for i, row in enumerate(self.entries):
            for j, p in enumerate(row):
                for a in range(k):
                    out[i * k + a][j * k + a] = p
            for a in range(k):
                for b in range(k):
                    out[i * k + a][i * k + b] -= NcPoly.const(cf[a][b], n_vars)
        return NcMatrix(out, n_vars)

    def direct_sum(self, other: "NcMatrix") -> "NcMatrix":
        if self.n_vars != other.n_vars:
            raise VariableMismatch("direct sum across variable counts")
        z = NcPoly.zero(self.n_vars)
        top = [list(row) + [z] * other.cols for row in self.entries]
        bottom = [[z] * self.cols + list(row) for row in other.entries]
        return NcMatrix(top + bottom, self.n_vars)

    def pad_to_square(self) -> "NcMatrix":
        """Pad with zero rows or columns; inner rank is unchanged."""
        if self.rows == self.cols:
            return self
        size = max(self.rows, self.cols)
        z = NcPoly.zero(self.n_vars)
        grid = [list(row) + [z] * (size - self.cols) for row in self.entries]
        for _ in range(size - self.rows):
            grid.append([z] * size)
        return NcMatrix(grid, self.n_vars)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.n_vars == other.n_vars
            and self.entries == other.entries
        )

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(str(p) for p in row) for row in self.entries
        ) + "]"

    def __repr__(self) -> str:
        return f"NcMatrix({self.rows}x{self.cols}, n_vars={self.n_vars})"

    # evaluation and structure

    def evaluate(self, model, cache: Optional[dict] = None) -> np.ndarray:
        """Block evaluation at a matrix tuple.

        ``cache`` maps words to their values at ``model``; pass one dict to
        share word products between several evaluations at the same model.
        """
        return evaluate_form(*self.float_form(), [model], cache=cache)[0]

    def float_form(self, balance_rows: bool = False) -> Tuple[Tuple[Word, ...], np.ndarray]:
        """The float form of the entries' terms (``_float_form``)."""
        cells = [(w, i, j, c) for i, row in enumerate(self.entries)
                 for j, p in enumerate(row) for w, c in p._terms.items()]
        return _float_form(cells, self.rows, self.cols, self.n_vars, balance_rows)

    def denominator(self) -> int:
        """The lcm of the denominators of every coefficient's two parts."""
        den = 1
        for row in self.entries:
            for p in row:
                for c in p.coefficients():
                    den = math.lcm(den, c.re.denominator, c.im.denominator)
        return den

    def scaled_value(
        self, point: Sequence[GaussInt], scale: int
    ) -> List[List[GaussInt]]:
        """scale times the value at a scalar point, as Gaussian-integer pairs.

        ``point[s]`` is the Gaussian integer (re, im) taken by the letter in
        plain slot s >= 1 (``letter_slot``), so xi and xi* are independent.
        ``scale`` must be a multiple of ``denominator()``; then every entry
        of scale * P(point) is a Gaussian integer, computed exactly.
        """
        n = self.n_vars
        out = []
        for row in self.entries:
            out_row = []
            for p in row:
                re = im = 0
                for word, c in p._terms.items():
                    a = c.re.numerator * (scale // c.re.denominator)
                    b = c.im.numerator * (scale // c.im.denominator)
                    for letter in word:
                        x, y = point[letter_slot(letter, n)]
                        a, b = a * x - b * y, a * y + b * x
                    re += a
                    im += b
                out_row.append((re, im))
            out.append(out_row)
        return out

    def principal(self, indices: Sequence[int]) -> "NcMatrix":
        """The principal submatrix on the given 0-based indices, in that order."""
        return NcMatrix(
            [[self.entries[i][j] for j in indices] for i in indices], self.n_vars
        )

    def diagonal_blocks(self) -> List[Tuple[int, ...]]:
        """0-based index sets of the diagonal blocks, ordered by least index.

        The blocks are the connected components of the symmetric nonzero
        pattern: i and j are joined when entry (i, j) or (j, i) is nonzero.
        Every entry outside the blocks is zero, so the matrix is, up to one
        simultaneous row and column permutation, the direct sum of the
        principal submatrices on the blocks.
        """
        if not self.is_square():
            raise NonSquareError("diagonal blocks are defined for square matrices")
        n = self.rows
        adj: List[List[int]] = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if not (self.entries[i][j].is_zero() and self.entries[j][i].is_zero()):
                    adj[i].append(j)
                    adj[j].append(i)
        seen = [False] * n
        blocks = []
        for start in range(n):
            if seen[start]:
                continue
            seen[start] = True
            block, queue = [start], [start]
            while queue:
                for j in adj[queue.pop()]:
                    if not seen[j]:
                        seen[j] = True
                        block.append(j)
                        queue.append(j)
            blocks.append(tuple(sorted(block)))
        return blocks

    def to_pencil(self) -> "LinearPencil":
        """Coefficient extraction for matrices of degree at most one.

        A matrix with an adjoint letter gives a pencil over the doubled
        alphabet.
        """
        if self.degree > 1:
            raise DegreeTooHigh(f"degree {self.degree} matrix is not a pencil")
        n, star = self.n_vars, self.has_star()
        cells = {(letter_slot(word[0], n) if word else 0, i, j): c
                 for i, row in enumerate(self.entries) for j, p in enumerate(row)
                 for word, c in p._terms.items()}
        return LinearPencil.from_cells(cells, self.rows, self.cols, n, star_letters=star)


def _float_form(cells, rows: int, cols: int, n_vars: int, balance_rows: bool):
    """The float form of a rows x cols matrix given by its nonzero cells (w, i, j, c).

    Returns the distinct words, by length and then by letter slots
    (``letter_slot``), and the stack C with C[k][i][j] the coefficient of
    word k in entry (i, j), each converted to complex once.  With
    ``balance_rows``, row i is first scaled exactly by 2^e_i, which keeps
    the inner rank: e_i is minus the binary exponent of its largest
    coefficient unless that is within ROW_EXPONENT_SLACK of 0.
    """
    exponents = [0] * rows
    if balance_rows:
        by_row: List[list] = [[] for _ in range(rows)]
        for cell in cells:
            by_row[cell[1]].append(cell[3])
        exponents = [_balance_exponent(cs) for cs in by_row]
    words = sorted({cell[0] for cell in cells}, key=lambda w: (len(w), [letter_slot(x, n_vars) for x in w]))
    position = {w: k for k, w in enumerate(words)}
    coeffs = np.zeros((len(words), rows, cols), dtype=complex)
    for w, i, j, c in cells:
        e = exponents[i]
        coeffs[position[w], i, j] = complex(c * Fraction(2) ** e if e else c)
    return tuple(words), coeffs


def _balance_exponent(scalars) -> int:
    """e_i of ``_float_form`` for these scalars; bit lengths give it within one."""
    top = max((x.numerator.bit_length() - x.denominator.bit_length()
               for c in scalars for x in (c.re, c.im) if x), default=0)
    return -top if abs(top) > ROW_EXPONENT_SLACK else 0


def _max_bipartite_matching(n: int, adj: List[List[int]]):
    """Augmenting-path maximum matching of rows to columns."""
    match_row = [-1] * n
    match_col = [-1] * n

    def try_augment(i: int, seen: List[bool]) -> bool:
        for j in adj[i]:
            if seen[j]:
                continue
            seen[j] = True
            if match_col[j] == -1 or try_augment(match_col[j], seen):
                match_row[i] = j
                match_col[j] = i
                return True
        return False

    size = 0
    for i in range(n):
        if try_augment(i, [False] * n):
            size += 1
    return match_row, match_col, size


def _zero_block(
    nonzero: List[List[bool]],
) -> Optional[Tuple[List[int], List[int]]]:
    """0-based rows and columns of a zero block with more than N of them.

    ``nonzero`` is the N x N pattern.  Such a block exists exactly when the
    pattern has no perfect matching.  Then the alternating search from the
    unmatched rows of a maximum matching visits rows and columns whose
    complement is a minimum vertex cover (Koenig), so the visited rows and
    the unvisited columns span the block.
    """
    n = len(nonzero)
    adj = [[j for j in range(n) if nonzero[i][j]] for i in range(n)]
    match_row, match_col, size = _max_bipartite_matching(n, adj)
    if size == n:
        return None
    visited_rows = set(i for i in range(n) if match_row[i] == -1)
    visited_cols: set = set()
    queue = list(visited_rows)
    while queue:
        i = queue.pop()
        for j in adj[i]:
            if j in visited_cols:
                continue
            visited_cols.add(j)
            k = match_col[j]
            if k != -1 and k not in visited_rows:
                visited_rows.add(k)
                queue.append(k)
    return sorted(visited_rows), [j for j in range(n) if j not in visited_cols]


class LinearPencil:
    """A0 + sum of Ai*xi, stored as its nonzero exact cells.

    ``cells`` maps (slot, i, j) to the nonzero coefficient of entry (i, j)
    in slot 0, the constant, or in the slot of a letter (``letter``).  With
    ``star_letters`` set, the alphabet is doubled and the slots are A0,
    A1..An for x1..xn, then B1..Bn for x1*..xn*.  Every operation reads and
    writes the cells; ``coeffs`` is a dense view, built on each read.
    """

    __slots__ = ("cells", "rows", "cols", "n_vars", "star_letters")

    def __init__(self, coeffs: Sequence, n_vars: int, star_letters: bool = False):
        """The pencil of the dense coefficient matrices A0, A1, ..."""
        expected = 1 + (2 * n_vars if star_letters else n_vars)
        if len(coeffs) != expected:
            raise VariableMismatch(
                f"expected {expected} coefficient matrices, got {len(coeffs)}"
            )
        rows = len(coeffs[0])
        cols = len(coeffs[0][0]) if rows else 0
        cells = {}
        for k, mat in enumerate(coeffs):
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ShapeMismatch("coefficient matrices differ in shape")
            for i, row in enumerate(mat):
                for j, x in enumerate(row):
                    cells[k, i, j] = GaussianRational.coerce(x)
        self._set(cells, rows, cols, n_vars, star_letters)

    @classmethod
    def from_cells(cls, cells: Dict[Tuple[int, int, int], GaussianRational], rows: int,
                   cols: int, n_vars: int, star_letters: bool = False) -> "LinearPencil":
        """The rows x cols pencil with these (slot, i, j) cells; zero cells are dropped."""
        pencil = cls.__new__(cls)
        pencil._set(cells, rows, cols, n_vars, star_letters)
        return pencil

    def _set(self, cells, rows, cols, n_vars, star_letters):
        self.cells = {key: c for key, c in cells.items() if c}
        self.rows = rows
        self.cols = cols
        self.n_vars = n_vars
        self.star_letters = star_letters

    def _reissue(self, cells, **changes) -> "LinearPencil":
        """A pencil with these cells, and this one's shape and alphabet but for ``changes``."""
        fields = dict(rows=self.rows, cols=self.cols, n_vars=self.n_vars,
                      star_letters=self.star_letters)
        return LinearPencil.from_cells(cells, **{**fields, **changes})

    @property
    def coeffs(self) -> Tuple[Tuple[Tuple[GaussianRational, ...], ...], ...]:
        """The dense coefficient matrices A0, A1, ..., as tuples of rows."""
        zero = GaussianRational(0)
        grid = [[[zero] * self.cols for _ in range(self.rows)] for _ in range(1 + self.n_letters)]
        for (k, i, j), c in self.cells.items():
            grid[k][i][j] = c
        return tuple(tuple(tuple(row) for row in a) for a in grid)

    @property
    def n_letters(self) -> int:
        return 2 * self.n_vars if self.star_letters else self.n_vars

    def letter(self, pos: int) -> Letter:
        """Letter for coefficient slot pos (1-based; 0 is the constant)."""
        if pos <= self.n_vars:
            return Letter(pos, False)
        return Letter(pos - self.n_vars, True)

    def _words(self) -> List[Word]:
        """The word of each slot: the empty word, then one letter each."""
        return [EMPTY_WORD] + [(self.letter(k),) for k in range(1, 1 + self.n_letters)]

    def plain(self) -> "LinearPencil":
        """The same pencil over the plain letters x1..x(n_letters)."""
        if not self.star_letters:
            return self
        return self._reissue(self.cells, n_vars=self.n_letters, star_letters=False)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_homogeneous(self) -> bool:
        return all(k for k, _, _ in self.cells)

    def is_zero(self) -> bool:
        return not self.cells

    def to_matrix(self) -> NcMatrix:
        words = self._words()
        grid: List[List[dict]] = [[{} for _ in range(self.cols)] for _ in range(self.rows)]
        for (k, i, j), c in self.cells.items():
            grid[i][j][words[k]] = c
        n = self.n_vars
        return NcMatrix([[NcPoly(terms, n) for terms in row] for row in grid], n)

    def adjoint(self) -> "LinearPencil":
        """Entrywise adjoint over the doubled alphabet; x and x* coefficient roles swap."""
        n = self.n_vars
        cells = {((k + n if k <= n else k - n) if k else 0, j, i): c.conjugate()
                 for (k, i, j), c in self.cells.items()}
        return self._reissue(cells, rows=self.cols, cols=self.rows, star_letters=True)

    def widen_alphabet(self) -> "LinearPencil":
        """Reissue over the doubled alphabet with zero starred coefficients."""
        return self if self.star_letters else self._reissue(self.cells, star_letters=True)

    def homogeneous_part(self) -> "LinearPencil":
        return self._reissue({key: c for key, c in self.cells.items() if key[0]})

    def direct_sum(self, other: "LinearPencil") -> "LinearPencil":
        if self.n_vars != other.n_vars or self.star_letters != other.star_letters:
            raise VariableMismatch("pencil alphabets differ")
        cells = dict(self.cells)
        cells.update(((k, self.rows + i, self.cols + j), c) for (k, i, j), c in other.cells.items())
        return self._reissue(cells, rows=self.rows + other.rows, cols=self.cols + other.cols)

    def narrow_alphabet(self) -> "LinearPencil":
        """Reissue over the plain alphabet when every starred coefficient is zero."""
        if self.star_letters and all(k <= self.n_vars for k, _, _ in self.cells):
            return self._reissue(self.cells, star_letters=False)
        return self

    def pad_to_square(self) -> "LinearPencil":
        """Pad with zero rows or columns; inner rank is unchanged."""
        size = max(self.rows, self.cols)
        return self if self.rows == self.cols else self._reissue(self.cells, rows=size, cols=size)

    def shift(self, lam: Scalarish) -> "LinearPencil":
        """A0 - lam * I, the pencil of ``to_matrix().shift(lam)``."""
        if not self.is_square():
            raise NonSquareError("shift needs a square matrix")
        lam, zero = GaussianRational.coerce(lam), GaussianRational(0)
        cells = dict(self.cells)
        for i in range(self.rows):
            cells[0, i, i] = cells.get((0, i, i), zero) - lam
        return self._reissue(cells)

    def float_form(self, balance_rows: bool = False) -> Tuple[Tuple[Word, ...], np.ndarray]:
        """The float form of the cells, ``to_matrix().float_form()`` (``_float_form``)."""
        words = self._words()
        cells = [(words[k], i, j, c) for (k, i, j), c in self.cells.items()]
        return _float_form(cells, self.rows, self.cols, self.n_vars, balance_rows)

    def evaluate(self, model) -> np.ndarray:
        """Value at a matrix tuple, by the kernel ``evaluate_form`` on ``float_form``."""
        return evaluate_form(*self.float_form(), [model])[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearPencil):
            return NotImplemented
        return (
            (self.rows, self.cols, self.n_vars, self.star_letters)
            == (other.rows, other.cols, other.n_vars, other.star_letters)
            and self.cells == other.cells
        )

    def __repr__(self) -> str:
        kind = "doubled" if self.star_letters else "plain"
        return (
            f"LinearPencil({self.rows}x{self.cols}, n_vars={self.n_vars}, {kind})"
        )


def random_pencil(
    n_vars: int,
    size: int,
    seed: int,
    homogeneous: bool = False,
    coeff_range: int = 2,
    density: float = 0.75,
    complex_coeffs: bool = False,
) -> LinearPencil:
    """Seeded random square pencil with small integer coefficients."""
    rng = random.Random(seed)

    def scalar() -> GaussianRational:
        if rng.random() > density:
            return GaussianRational(0)
        re = rng.randint(-coeff_range, coeff_range)
        im = rng.randint(-coeff_range, coeff_range) if complex_coeffs else 0
        return GaussianRational(re, im)

    def mat():
        return tuple(
            tuple(scalar() for _ in range(size)) for _ in range(size)
        )

    coeffs = [[[0] * size] * size if homogeneous else mat()]
    coeffs.extend(mat() for _ in range(n_vars))
    return LinearPencil(coeffs, n_vars)


def random_poly_matrix(
    n_vars: int,
    rows: int,
    cols: int,
    degree: int,
    seed: int,
    terms_per_entry: int = 3,
    coeff_range: int = 2,
    allow_star: bool = False,
    complex_coeffs: bool = False,
) -> NcMatrix:
    """Seeded random polynomial matrix with small integer coefficients."""
    rng = random.Random(seed)

    def letter() -> Letter:
        star = allow_star and rng.random() < 0.5
        return Letter(rng.randint(1, n_vars), star)

    def poly() -> NcPoly:
        terms: Dict[Word, GaussianRational] = {}
        for _ in range(rng.randint(1, max(1, terms_per_entry))):
            deg = rng.randint(0, degree)
            word = tuple(letter() for _ in range(deg))
            re = rng.randint(-coeff_range, coeff_range)
            im = rng.randint(-coeff_range, coeff_range) if complex_coeffs else 0
            coeff = GaussianRational(re, im)
            if coeff.is_zero():
                continue
            terms[word] = terms.get(word, GaussianRational(0)) + coeff
        return NcPoly(terms, n_vars)

    grid = [[poly() for _ in range(cols)] for _ in range(rows)]
    return NcMatrix(grid, n_vars)

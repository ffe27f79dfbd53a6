"""Inner rank of matrices over the free skew field, by two engines.

The substitution engine evaluates a polynomial matrix at random matrix tuples
of growing size and reads the rank off a thresholded SVD, whose threshold
``tol_factor`` scales (``randmat.empirical_ranks``); the normalized rank
rank/d stabilizes at the inner rank, and estimates across dimensions and
trials must agree on one integer or the result is NoConsensus.  Star-free
matrices use GUE tuples; matrices with adjoint letters use Ginibre tuples,
whose limits generate the same free field in the doubled letters.

The fullness engine decides whether a homogeneous square pencil over Q(i)
is full, by exact certificates only.  The nonzero cells are read once, into
the nonzero Gaussian integers of D A1..D Am (``IntegerParts``), D the lcm
of the denominators; every step reads those, their zero pattern, or their
dense residues mod p (``IntegerParts.mod``), and no floating point runs.
A blow-up A1 (x) X1 + ... of full rank mod p proves fullness; it is read
at d = 1 first, and at d = 2, 4, ..., N - 1 last.  In between, a hollow
zero pattern, then the exact second Wong sequence on the tuple and on its
transpose, prove nonfullness by a pair (U, V) with
U^T Ai V = 0, checked exactly before the verdict is issued.  When none
decides, the result is Inconclusive.  An exact certificate carries its
data, the pair or the (d, seed, prime) of the blow-up, and
``verify_certificate`` re-checks it.
An exact shift P - lambda goes through ``NcMatrix.shift``, and an
algebraic one through the companion blow-up ``NcMatrix.companion``, whose
coefficients stay in Q(i); so every verdict is an exact one.

Both engines take a pencil as it is, so ``ncrank`` on a pencil builds no
matrix; affine pencils are homogenized first, and matrices of higher degree
are rewritten as enlarged pencils with a known rank offset.  Adjoint letters
need no second path: x1..xn, x1*..xn* generate the free field on 2n
letters, so a pencil over the doubled alphabet is decided as a pencil in 2n
plain letters, with xi* as letter n + i.  The two engines cross-check each
other and disagreement is a hard error.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from numbers import Integral
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    Inconclusive,
    InputError,
    MethodDisagreement,
    NoConsensus,
    NonSquareError,
    ZeroPencilError,
)
from .ncpoly import LinearPencil, NcMatrix, _zero_block, evaluate_form, letter_slot
from .randmat import empirical_ranks, sample
from .scalars import (
    _IOTA,
    _P,
    GaussianRational,
    kernel_mod_p,
    lift_mod_p,
    matmul_mod_p,
    moduli_above,
    rank_mod_p,
)


def homogenize(pencil: LinearPencil) -> LinearPencil:
    """Move the constant term onto a fresh variable.

    The result is a homogeneous pencil in n+1 plain letters (2n+1 for a
    doubled alphabet) with the same inner rank, hence the same fullness.
    """
    pencil = pencil.plain()
    fresh = pencil.n_vars + 1
    cells = {(k or fresh, i, j): c for (k, i, j), c in pencil.cells.items()}
    return LinearPencil.from_cells(cells, pencil.rows, pencil.cols, fresh)


# substitution engine


@dataclass
class RankResult:
    rho: int
    rows: int
    cols: int
    method: str
    estimates: List[dict] = field(default_factory=list)
    kind: str = "gue"
    seed: int = 0
    cross: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "rows": self.rows,
            "cols": self.cols,
            "method": self.method,
            "kind": self.kind,
            "seed": self.seed,
            "estimates": self.estimates,
            "cross": self.cross,
        }


Source = Union[NcMatrix, LinearPencil]


def rank_by_substitution(
    matrix: Source,
    dims: Optional[Sequence[int]] = None,
    trials: int = 2,
    seed: int = 0,
    tol_factor: float = 1.0,
) -> RankResult:
    """Inner rank via random matrix substitution, of a matrix or a pencil.

    Every (dimension, trial) pair gets its own derived seed; the trials at
    one dimension are evaluated as one stack of the input's float form,
    built once, and their ranks are read from one stacked SVD
    (``empirical_ranks``).  A pencil's float form is its matrix's, so both
    give the same estimates.  The models are Ginibre when an adjoint letter
    occurs and GUE otherwise.  All estimates must agree on round(rank/d)
    and pass the singular value gap test.  Each row is first scaled by an
    exact power of two (``float_form``), so exact coefficients outside the
    float range still reach the SVD; a row whose own entries differ by more
    than the float range is out of reach and may underflow.  The input is
    exact: P - lambda is shifted before the call (``shift``, at a Gaussian
    rational near an irrational lambda), so its diagonal is scaled with its
    rows.
    """
    if dims is None:
        base = max(matrix.rows, matrix.cols) + 1
        dims = (base, 2 * base)
    if len(dims) == 0:
        raise InputError("need at least one dimension")
    if trials < 1:
        raise InputError("need at least one trial")
    words, coeffs = matrix.float_form(balance_rows=True)
    kind = "ginibre" if any(x.star for w in words for x in w) else "gue"
    estimates = []
    for k, d in enumerate(dims):
        seeds = range(seed + k * trials, seed + (k + 1) * trials)
        models = [sample(kind, d, matrix.n_vars, s) for s in seeds]
        reports = empirical_ranks(evaluate_form(words, coeffs, models), tol_factor)
        for t, (s, report) in enumerate(zip(seeds, reports)):
            ratio = report.rank / d
            estimates.append(
                {"d": d, "trial": t, "seed": s, "rank": report.rank, "rank_over_d": ratio,
                 "rho_hat": int(math.floor(ratio + 0.5)), "gap": report.gap, "clean": report.clean}
            )

    unclean = [e for e in estimates if not e["clean"]]
    if unclean:
        raise NoConsensus(
            "singular value gap too small to trust the rank", estimates
        )
    votes = {e["rho_hat"] for e in estimates}
    if len(votes) != 1:
        raise NoConsensus(f"estimates disagree: {sorted(votes)}", estimates)
    rho = votes.pop()
    return RankResult(
        rho=rho,
        rows=matrix.rows,
        cols=matrix.cols,
        method="substitution",
        estimates=estimates,
        kind=kind,
        seed=seed,
    )


# fullness engine


@dataclass
class FullnessCertificate:
    verdict: str  # 'full' or 'nonfull'
    method: str  # 'hollow' (zero pattern) or 'exact' (Wong pair or blow-up rank mod p)
    size: int
    defect: float = math.inf  # no scaling runs: always inf
    iterations: int = 0  # no scaling runs: always 0
    # what decided: "blow-up rank mod p at d = 1" (or at the larger d that
    # proved it), "zero pattern", "exact Wong" or "exact Wong (adjoint)"
    detail: str = ""
    # nonfull: the pair (U, V), bases as rows of Q(i) scalars with
    # U^T Ai V = 0 for every i and rank U + rank V > N (coordinate bases for
    # a zero pattern), which ``verify_nonfull_witness`` checks; full: None
    witness: Optional[Tuple[list, list]] = field(default=None, repr=False)
    # full: (d, seed, prime) of the blow-up whose rank mod prime is N * d
    blowup: Optional[Tuple[int, int, int]] = None


def fullness_scaling(pencil: LinearPencil, seed: int = 0) -> FullnessCertificate:
    """Decide fullness of a homogeneous square pencil by exact certificates.

    No scaling and no floating point run on exact coefficients.  A full rank
    mod p of the blow-up proves fullness; a hollow zero pattern, or the exact
    second Wong sequence on the tuple or on its transpose, proves
    nonfullness.  The blow-up is read at d = 1 first, which proves most full
    pencils at one N x N matrix, and only after Wong at d = 2, 4, ... below
    N - 1, then at N - 1 (at 2 when N <= 2), stopping at the first full
    reading, so a nonfull pencil never builds a large one.  ``detail`` names
    the step that decided.
    The exact coefficients are read once, into Gaussian integers D Ai
    (``_integer_parts``), and every step reads those or their residues mod
    p.  When nothing decides, or p divides a denominator, the result is
    Inconclusive.  The certificate carries its exact data, the pair (U, V)
    of a nonfull verdict as ``witness`` or the (d, seed, prime) of a full
    one as ``blowup``, which ``verify_certificate`` re-checks.  A doubled
    pencil is read over its 2n plain letters.
    """
    pencil = _exact_pencil(pencil)
    n = pencil.rows
    ints = _integer_parts(pencil)
    forms = _residue_forms(ints)
    if _confirm_full_exact(forms[0], seed, d=1):
        return _full_by_blowup(n, 1, seed)
    pattern = np.zeros((n, n), dtype=bool)
    pattern[ints.index[1:]] = True
    block = _zero_block(pattern.tolist())
    if block is not None:
        pair = tuple(_coordinate_basis(n, index) for index in block)
        return FullnessCertificate("nonfull", "hollow", n, detail="zero pattern", witness=pair)
    for flip, detail in ((False, "exact Wong"), (True, "exact Wong (adjoint)")):
        pair = _exact_hollow_block(forms, ints, seed + (303 if flip else 101), flip)
        if pair is not None:
            return FullnessCertificate("nonfull", "exact", n, detail=detail, witness=pair)
    for d in _blowup_degrees(n):
        if _confirm_full_exact(forms[0], seed, d=d):
            return _full_by_blowup(n, d, seed)
    raise Inconclusive("no exact certificate of fullness or nonfullness", {"size": n})


def verify_certificate(pencil: LinearPencil, cert: FullnessCertificate) -> bool:
    """Re-check an exact fullness verdict from its certificate alone.

    A nonfull certificate passes when ``verify_nonfull_witness`` accepts its
    witness.  A full one passes when its ``blowup`` is a tuple of integers
    (d, seed, prime), not bools, and the blow-up drawn for it has rank N * d
    mod prime, read from D Ai mod p as the engine reads it; p is the one
    prime this module reduces modulo, and d lies in 1..max(N - 1, 2), the
    degrees ``fullness_scaling`` reads, so a forged d builds no outsized
    matrix.  Anything else does not pass.
    """
    pencil = _exact_pencil(pencil)
    n = pencil.rows
    if cert.size != n:
        return False
    if cert.verdict == "nonfull":
        return verify_nonfull_witness(pencil, cert.witness)
    blowup = cert.blowup
    if (cert.verdict == "full" and isinstance(blowup, tuple) and len(blowup) == 3
            and all(isinstance(x, Integral) and not isinstance(x, bool) for x in blowup)):
        d, seed, prime = blowup
        if prime != _P or not 1 <= d <= max(n - 1, 2):
            return False
        ints = _integer_parts(pencil)
        return ints.denominator % _P != 0 and _confirm_full_exact(_residue_forms(ints)[0], seed, d)
    return False


def verify_nonfull_witness(pencil: LinearPencil, witness) -> bool:
    """Re-check a nonfull witness (U, V) of a homogeneous square pencil exactly.

    It passes when U and V are N-row bases of full column rank whose ranks
    sum past N and U^T Ai V = 0 for every i (``_holds_exactly``), which
    proves the pencil nonfull.  The entries are read as exact scalars
    (``GaussianRational.coerce``); anything that is not two N-row lists of
    equal-width rows of such scalars does not pass.
    """
    pencil = _exact_pencil(pencil)
    n = pencil.rows
    try:
        u, v = ([[GaussianRational.coerce(x) for x in row] for row in basis] for basis in witness)
    except (TypeError, ValueError):
        return False
    if not all(len(b) == n and len({len(row) for row in b}) == 1 for b in (u, v)):
        return False
    return _holds_exactly(_integer_parts(pencil), u, v)


def _exact_pencil(pencil: LinearPencil) -> LinearPencil:
    """The pencil over its plain letters, checked square, homogeneous and nonzero."""
    pencil = pencil.plain()
    if not pencil.is_square():
        raise NonSquareError("fullness is defined for square pencils")
    if not pencil.is_homogeneous():
        raise InputError("fullness needs a homogeneous pencil; homogenize first")
    if pencil.is_zero():
        raise ZeroPencilError("the zero pencil is nowhere full")
    return pencil


def _coordinate_basis(n: int, index) -> list:
    """The coordinate vectors e_j for j in ``index``, as the rows of an N x k basis."""
    return [[GaussianRational(int(i == j)) for j in index] for i in range(n)]


def _residue_forms(ints: IntegerParts) -> List[np.ndarray]:
    """The D Ai mod p at i = iota, then at i = -iota unless the tuple is real.

    Each form is one m x N x N array.  D is a unit mod p, so D Ai has the
    ranks and the canonical kernel bases of Ai mod p.  Inconclusive when p
    divides a denominator, where reduction is undefined; that is exactly
    when p divides their lcm D.
    """
    if ints.denominator % _P == 0:
        raise Inconclusive("p divides a denominator", {"size": ints.shape[-1], "prime": _P})
    re, im = ints.mod(_P)
    if not im.any():
        return [re]
    # each product of residues is below 2^62, so adding one residue fits int64
    return [(re + _IOTA * im) % _P, (re + (_P - _IOTA) * im) % _P]


def _blowup_degrees(n: int) -> List[int]:
    """d = 2, 4, 8, ... below N - 1, then N - 1, or 2 to redraw a small N.

    d = 1 is read before Wong, so for N <= 2 a full pencil whose d = 1 draw
    is singular mod p gets a second draw at d = 2.
    """
    degrees = []
    d = 2
    while d < n - 1:
        degrees.append(d)
        d *= 2
    return degrees + [max(n - 1, 2)]


def _full_by_blowup(n: int, d: int, seed: int) -> FullnessCertificate:
    return FullnessCertificate(
        "full", "exact", n, detail=f"blow-up rank mod p at d = {d}", blowup=(d, seed, _P)
    )


def _confirm_full_exact(residues, seed: int, d: int) -> bool:
    """Blow-up rank check over F_p of the residues A1..Am; True certifies fullness.

    For any d x d substitution the evaluated rank is at most rho * d: an
    inner factorization through rho columns evaluates to a factorization
    through rho * d columns.  A substitution of full rank n * d therefore
    proves rho = n at every d.  d = n - 1 is large enough for some
    substitution to reach that rank whenever the pencil is full
    (Derksen-Makam); d = 1 already does when some scalar point does.

    Each Xi is one d x d matrix drawn uniformly from F_p, lifted to the
    integer matrix of its residues.  Over Q(i) the lifted blow-up
    sum Ai (x) Xi reduces entrywise to the int64 blow-up built here, and
    reduction mod p is a ring homomorphism (i maps to a square root of -1),
    so every minor maps to the reduced minor and rank mod p never exceeds
    the rank of the lifted substitution.  Rank n * d mod p therefore proves
    fullness.  When det of the blow-up is nonzero as a polynomial mod p, of
    degree n * d in the entries of the Xi, one uniform draw misses it with
    probability at most n * d / p (Schwartz-Zippel).  False (a miss or an
    unlucky prime) only means "not confirmed", never nonfullness.  At d = 1
    the blow-up is the point sum xi Ai itself.
    """
    n = len(residues[0])
    subs = _blowup_draws(seed, d, len(residues))
    if d == 1:
        return rank_mod_p(_point_mod_p(residues, [x[0, 0] for x in subs])) == n
    return rank_mod_p(_blowup_mod_p(residues, subs)) == n * d


def _blowup_draws(seed: int, d: int, count: int) -> np.ndarray:
    """The d x d residue matrices X1..X(count) that ``seed`` draws for the blow-up.

    One draw of shape (count, d, d) is the stream of count (d, d) draws.
    """
    rng = np.random.default_rng(((seed << 8) ^ 0x5CA1E) % 2**64)
    return rng.integers(0, _P, size=(count, d, d))


def _blowup_mod_p(residues, subs) -> np.ndarray:
    """sum Ai (x) Xi mod p, with ``subs[k]`` the residue matrix for A(k+1)."""
    big = 0
    for a, x in zip(residues, subs):
        # a product of residues is below 2^62, so adding one residue fits int64
        big = (big + np.kron(a, x)) % _P
    return big


def _exact_hollow_block(forms, ints, seed, transpose=False):
    """Exact hollow block of a Q(i) tuple, found threshold-free: (U, V) or None.

    ``forms`` and ``ints`` are the tuple as ``_residue_forms`` and as
    ``_integer_parts``.  U^T Ai V = 0 for every i with rank U + rank V > N
    proves nonfullness.  The second Wong sequence runs mod p at sum wi Ai, wi
    uniform in F_p and read as real integers, and the kernel bases of U and V
    are lifted entry by entry by rational reconstruction.  A Gaussian tuple
    runs it on both forms with the same weights, which splits each entry
    into its real and imaginary parts.  Each basis comes back as rows of
    scalars, and only after the exact check; a failed lift or check tries
    one more point.  With ``transpose`` the sequence runs on the transposed
    residues and the pair comes back swapped, so it is a block of the Ai.
    """
    if transpose:
        forms = [form.swapaxes(1, 2) for form in forms]
    rng = random.Random(seed)
    for _ in range(2):
        weights = [rng.randrange(_P) for _ in forms[0]]
        found = _wong_mod_p(forms[0], weights)
        if found is None:
            return None
        other = found if len(forms) == 1 else _wong_mod_p(forms[1], weights)
        if other is None or [m.shape for m in found] != [m.shape for m in other]:
            continue
        pair = [lift_mod_p(f, o) for f, o in zip(found, other)]
        u, v = pair[::-1] if transpose else pair
        if u is not None and v is not None and _holds_exactly(ints, u, v):
            return u, v
    return None


def _wong_mod_p(residues, weights):
    """Second Wong sequence over F_p at P = sum wi Ai: (U, V) or None.

    W starts at zero; V = P^-1(W) is the kernel of U^T P, where U spans the
    kernel of W^T = [A1 V, ..., Am V]^T, so dim W = N - cols(U).  Dimensions
    grow until W repeats; then U^T Ai V = 0 for every i, and dim V > dim W
    means rank U + rank V > N.  The bases are the canonical ones of
    ``kernel_mod_p``, so they lift entry by entry.
    """
    point = _point_mod_p(residues, weights)
    n = len(point)
    u = np.eye(n, dtype=np.int64)
    for _ in range(n + 1):
        v = kernel_mod_p(matmul_mod_p(u.T, point))
        if v.shape[1] == 0:
            return None
        u_next = kernel_mod_p(np.hstack([matmul_mod_p(a, v) for a in residues]).T)
        if u_next.shape[1] == u.shape[1]:
            return (u, v) if u.shape[1] + v.shape[1] > n else None
        u = u_next
    return None


def _point_mod_p(residues, weights) -> np.ndarray:
    """sum wi Ai mod p for weights in F_p; each product stays below 2^62."""
    return sum(w * a % _P for w, a in zip(weights, residues)) % _P


def _holds_exactly(ints, u, v) -> bool:
    """U^T Ai V = 0 for every i and rank U + rank V > N, in int64 arithmetic.

    ``ints`` holds the Ai as ``_integer_parts``, and U and V are scaled to
    Gaussian integers the same way.  Full column rank mod p is exact, since
    reduction never raises rank.  A real or imaginary part of U^T Ai V is a
    sum of N^2 products of three Gaussian integers, so its absolute value is
    at most 4 N^2 hU hA hV, with h the largest absolute part.  It is zero
    once it vanishes modulo primes whose product exceeds twice that bound;
    real and imaginary parts are checked apart, so no square root of -1 is
    needed.  The products run on the side of the smaller basis first.
    """
    n, k, l = len(u), len(u[0]), len(v[0])
    if min(k, l) == 0 or k + l <= n:
        return False
    uu, vv = _basis_integers(u), _basis_integers(v)
    for basis in (uu, vv):
        re, im = basis.mod(_P)[:, 0]
        if rank_mod_p((re + _IOTA * im) % _P) != basis.shape[2]:
            return False
    transpose = k > l
    if transpose:  # V^T Ai^T U = 0 says the same
        uu, vv, k = vv, uu, l
    for q in moduli_above(8 * n * n * ints.height * uu.height * vv.height):
        parts = ints.mod(q)
        ar, ai = parts.swapaxes(2, 3) if transpose else parts
        (ur, ui), (vr, vi) = uu.mod(q)[:, 0], vv.mod(q)[:, 0]
        # U^T Ai stacked as [re; im], then U^T Ai V as [re; im] from its real form
        left = matmul_mod_p(_real_form(ur.T, ui.T, q), np.concatenate([ar, ai], -2), q)
        right = np.concatenate([vr, vi])
        if matmul_mod_p(_real_form(left[:, :k], left[:, k:], q), right, q).any():
            return False
    return True


def _real_form(re, im, q: int) -> np.ndarray:
    """[[re, -im], [im, re]] mod q, the real form of re + i im; stacks broadcast."""
    return np.concatenate(
        [np.concatenate([re, -im % q], -1), np.concatenate([im, re], -1)], -2
    )


class IntegerParts(NamedTuple):
    """The nonzero entries of a stack of m Q(i) matrices times the lcm D of their denominators.

    ``index`` holds their positions (k, i, j) as three int64 arrays,
    ``values`` their real and imaginary parts as Python ints (shape
    2 x nnz), ``shape`` the stack's (m, rows, cols), ``height`` the largest
    absolute part and ``denominator`` the lcm D.
    """

    index: Tuple[np.ndarray, np.ndarray, np.ndarray]
    values: np.ndarray
    shape: Tuple[int, int, int]
    height: int
    denominator: int

    def mod(self, q: int) -> np.ndarray:
        """The parts reduced mod q, real parts first: dense int64, 2 x m x rows x cols."""
        out = np.zeros((2,) + self.shape, dtype=np.int64)
        out[(slice(None),) + self.index] = self.values % q
        return out


def _read_integers(cells: dict, shape: Tuple[int, int, int]) -> IntegerParts:
    """The ``IntegerParts`` of a stack of ``shape`` with nonzero cells[k, i, j] in Q(i)."""
    parts = [x for c in cells.values() for x in (c.re, c.im)]
    den = math.lcm(*{x.denominator for x in parts})
    flat = [x.numerator * (den // x.denominator) for x in parts]
    index = np.fromiter(itertools.chain.from_iterable(cells), np.int64, 3 * len(cells))
    values = np.array(flat, dtype=object).reshape(-1, 2).T
    height = max(map(abs, flat), default=0)
    return IntegerParts(tuple(index.reshape(-1, 3).T), values, shape, height, den)


def _integer_parts(pencil: LinearPencil) -> IntegerParts:
    """The ``IntegerParts`` of a homogeneous plain pencil, from its nonzero cells alone.

    Cell (k, i, j) of the pencil is entry (i, j) of A(k), at index k - 1.
    """
    cells = {(k - 1, i, j): c for (k, i, j), c in pencil.cells.items()}
    return _read_integers(cells, (pencil.n_vars, pencil.rows, pencil.cols))


def _basis_integers(rows) -> IntegerParts:
    """The ``IntegerParts`` of a dense Q(i) basis, given as its rows, as a stack of one."""
    cells = {(0, i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x}
    return _read_integers(cells, (1, len(rows), len(rows[0])))


# degree reduction


def linearize_matrix(matrix: NcMatrix) -> Tuple[LinearPencil, int]:
    """Enlarged pencil whose inner rank exceeds the matrix's by the border size.

    Higman's trick with shared prefixes.  Each row i gets one border node
    per distinct proper prefix u (|u| >= 1) of its words of degree two or
    more.  Row i carries letter a at node (a); node u carries -1 on its
    diagonal, letter a at its child ua, and c*a at column j for each word
    u*a with coefficient c in entry (i, j).  Terms of degree at most one
    stay in the top left block.  The border is -1 plus a nilpotent part, so
    it is invertible at every point, and its Schur complement is the matrix:
    rank(pencil) = rank(matrix) + border size.  Adjoint letters stay
    letters, so a matrix with any gives a pencil over the doubled alphabet.
    """
    n_vars, n, m = matrix.n_vars, matrix.rows, matrix.cols
    nodes: dict = {}  # (row, proper prefix) -> border index, parents first
    for i, row in enumerate(matrix.entries):
        for p in row:
            for word, _ in p.terms():
                for g in range(1, len(word)):
                    nodes.setdefault((i, word[:g]), len(nodes))
    border = len(nodes)
    cells = {}
    one = GaussianRational(1)
    for (i, u), t in nodes.items():
        parent = i if len(u) == 1 else n + nodes[i, u[:-1]]
        cells[letter_slot(u[-1], n_vars), parent, m + t] = one
        cells[0, n + t, m + t] = -one
    for i, row in enumerate(matrix.entries):
        for j, p in enumerate(row):
            for word, coeff in p.terms():
                at = i if len(word) <= 1 else n + nodes[i, word[:-1]]
                cells[letter_slot(word[-1], n_vars) if word else 0, at, j] = coeff
    return LinearPencil.from_cells(cells, n + border, m + border, n_vars, matrix.has_star()), border


# orchestrated rank


def ncrank(
    matrix: Source,
    dims: Optional[Sequence[int]] = None,
    trials: int = 2,
    seed: int = 0,
    tol_factor: float = 1.0,
) -> RankResult:
    """Inner rank of a matrix or a pencil, cross-validated between the engines.

    Rectangular input is padded square.  The substitution engine supplies the
    value; the fullness engine independently decides fullness by exact
    certificates (``_decide_exactly``), over 2n plain letters when adjoint
    letters occur, and any contradiction raises MethodDisagreement.  A
    pencil goes to both engines as it is, and gives the result of its
    ``to_matrix()``.  Shift by an exact lambda through ``shift(lambda)``,
    of the matrix or of the pencil.  An inconclusive fullness engine defers
    to substitution; ``cross["scaling"]`` records its verdict and
    ``cross["scaling_detail"]`` the step that decided it.
    """
    matrix = matrix.pad_to_square()
    n = matrix.rows
    if matrix.is_zero():
        return RankResult(0, n, n, method="trivial", kind="none", seed=seed)
    sub = rank_by_substitution(matrix, dims, trials, seed, tol_factor)
    cross: dict = {}
    try:
        cert, border = _decide_exactly(matrix, seed)
    except Inconclusive as exc:
        cross["scaling"] = "inconclusive"
        cross["diagnostics"] = exc.diagnostics
        sub.cross = cross
        return sub
    if border is not None:
        cross["border"] = border
    if (cert.verdict == "full") != (sub.rho == n):
        raise MethodDisagreement(
            f"substitution says rho={sub.rho} of {n}, the exact engine says {cert.verdict}"
        )
    cross["scaling"] = cert.verdict
    cross["scaling_method"] = cert.method
    cross["scaling_detail"] = cert.detail
    sub.cross = cross
    return sub


def _decide_exactly(
    matrix: Source, seed: int
) -> Tuple[FullnessCertificate, Optional[int]]:
    """The exact fullness verdict on a square matrix or pencil, and its border size.

    A pencil is taken as it is, over the plain alphabet when no starred
    coefficient is nonzero, as ``to_pencil`` reads its matrix; a matrix is
    read as a pencil (border None), or linearized when its degree exceeds
    one.  An affine pencil is homogenized before ``fullness_scaling``
    decides it.  Inconclusive passes through.
    """
    border = None
    if isinstance(matrix, LinearPencil):
        pencil = matrix.narrow_alphabet()
    elif matrix.degree <= 1:
        pencil = matrix.to_pencil()
    else:
        pencil, border = linearize_matrix(matrix)
    target = pencil if pencil.is_homogeneous() else homogenize(pencil)
    return fullness_scaling(target, seed=seed), border

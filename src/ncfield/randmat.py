"""Random matrix models and numeric rank machinery.

Conventions: a GUE sample is Hermitian with entry variance 1/d so the
empirical spectral distribution converges to the semicircle on [-2, 2]; a
Haar unitary comes from the QR factorization of a complex Gaussian matrix
with the phases of the R diagonal absorbed; a Ginibre sample has independent
complex Gaussian entries of variance 1/d.  All sampling goes through
``numpy.random.default_rng``, so one seed reproduces one model exactly.

Numeric rank keeps the singular values above
RANK_FACTOR * tol_factor * size * sigma_max, with size the larger side of
the matrix, and reports the gap between the last kept and the first dropped
value, so that callers can tell a clean rank decision (a gap of at least
GAP_MIN) from a murky one.  ``tol_factor`` (the CLI's ``--tol``) is the one
setting; every function that reads a rank takes it, with default 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError
from .ncpoly import Letter


RANK_FACTOR = 1e-11
GAP_MIN = 1e3


@dataclass(frozen=True)
class MatrixModel:
    """A concrete tuple of d x d matrices standing in for x1..xn."""

    kind: str
    d: int
    matrices: Tuple[np.ndarray, ...]
    seed: Optional[int] = None

    @property
    def n_vars(self) -> int:
        return len(self.matrices)

    def letter_value(self, letter: Letter) -> np.ndarray:
        m = self.matrices[letter.index - 1]
        return m.conj().T if letter.star else m


def sample(kind: str, d: int, n_vars: int, seed: int) -> MatrixModel:
    """Draw a model of the given kind, deterministically in the seed.

    One draw of all normals is the stream of two (d, d) draws per letter.
    """
    if kind not in ("gue", "haar", "ginibre"):
        raise InputError(f"unknown model kind {kind!r}")
    if d < 1 or n_vars < 0:
        raise InputError("need d >= 1 and n_vars >= 0")
    normals = np.random.default_rng(seed).standard_normal((n_vars, 2, d, d))
    # built in place and the draws freed early, to hold few tuple-sized arrays
    g = normals[:, 1] * 1j
    g += normals[:, 0]
    del normals
    if kind == "gue":
        mats = g.conj().swapaxes(1, 2)
        mats += g
        mats /= 2.0 * math.sqrt(d)
    elif kind == "ginibre":
        mats = g / math.sqrt(2.0 * d)
    else:
        # QR with the phases of the R diagonal absorbed
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r, axis1=1, axis2=2)[:, None, :]
        mats = q * (diag / np.abs(diag))
    return MatrixModel(kind, d, tuple(mats), seed)


def custom_model(matrices: Sequence[np.ndarray]) -> MatrixModel:
    mats = tuple(np.asarray(m, dtype=complex) for m in matrices)
    if not mats:
        raise InputError("custom model needs at least one matrix")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise InputError("custom model matrices must share a square shape")
    return MatrixModel("custom", d, mats, None)


@dataclass(frozen=True)
class RankReport:
    """Outcome of one thresholded SVD rank computation."""

    rank: int
    size: int
    sigma_max: float
    threshold: float
    last_kept: float
    first_dropped: float
    gap: float
    clean: bool

    @property
    def kernel_dim(self) -> int:
        """Nullity read off the same decomposition (columns minus rank)."""
        return self.size - self.rank


def empirical_rank(matrix: np.ndarray, tol_factor: float = 1.0) -> RankReport:
    """Numeric rank with an explicit gap report.

    The kernel dimension in the report refers to the right kernel, so
    rank + kernel_dim equals the column count exactly.  The matrix is read
    as a stack of one (``empirical_ranks``).
    """
    return empirical_ranks(np.asarray(matrix, dtype=complex)[None], tol_factor)[0]


def empirical_ranks(stack: np.ndarray, tol_factor: float = 1.0) -> List[RankReport]:
    """``empirical_rank`` of each matrix of a (T, rows, cols) stack, from one SVD call."""
    sigmas = np.linalg.svd(stack, compute_uv=False)
    return [_rank_report(s, stack.shape[1:], tol_factor) for s in sigmas]


def _rank_report(sigmas: np.ndarray, shape, tol_factor: float) -> RankReport:
    """The rank report of a matrix of this shape from its descending singular values."""
    size = max(shape)
    sigma_max = float(sigmas[0]) if len(sigmas) else 0.0
    if sigma_max == 0.0:
        return RankReport(0, shape[1], 0.0, 0.0, 0.0, 0.0, math.inf, True)
    thr = RANK_FACTOR * tol_factor * size * sigma_max
    rank = int(np.count_nonzero(sigmas > thr))
    last_kept = float(sigmas[rank - 1]) if rank > 0 else 0.0
    first_dropped = float(sigmas[rank]) if rank < len(sigmas) else 0.0
    if rank == len(sigmas) or first_dropped == 0.0:
        gap = math.inf
    else:
        gap = last_kept / first_dropped
    clean = gap >= GAP_MIN
    return RankReport(
        rank, shape[1], sigma_max, thr, last_kept, first_dropped, gap, clean
    )


@dataclass
class ESD:
    """Eigenvalues of an evaluated square polynomial matrix, block by block.

    ``blocks`` lists each diagonal block (``NcMatrix.diagonal_blocks``) as
    its 0-based rows and whether it was read from constants.  ``parts``
    holds each block's value with its weight: an evaluated block with
    weight 1, or the scalar matrix C of a constant block with weight d,
    since the block evaluates to C (x) I_d.  ``eigenvalues`` is complex,
    and sorted when the value is Hermitian.
    """

    eigenvalues: np.ndarray
    d: int
    block_size: int
    hermitian: bool
    kind: str
    seed: Optional[int]
    blocks: Tuple[Tuple[Tuple[int, ...], bool], ...]
    parts: Tuple[Tuple[np.ndarray, int], ...] = field(repr=False)

    def mass_near(self, center: complex, halfwidth: float) -> float:
        """Fraction of eigenvalues within halfwidth of center."""
        return float(
            np.count_nonzero(np.abs(self.eigenvalues - center) <= halfwidth)
        ) / len(self.eigenvalues)

    def histogram(self, bins: int = 100) -> dict:
        if not self.hermitian:
            raise InputError("histogram export needs a real spectrum")
        counts, edges = np.histogram(self.eigenvalues.real, bins=bins, density=True)
        return {
            "bins": bins,
            "edges": [float(x) for x in edges],
            "density": [float(x) for x in counts],
        }

    def write_csv(self, path: str):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "im"])
            for z in self.eigenvalues:
                writer.writerow([f"{z.real:.17g}", f"{z.imag:.17g}"])

    def normal_defect(self) -> float:
        """|VV* - V*V| / |V|^2 in the Frobenius norm, V the whole value."""
        scale = _frobenius(self.parts, lambda v: v)
        if scale == 0.0:
            return 0.0
        gap = _frobenius(self.parts, lambda v: v @ v.conj().T - v.conj().T @ v)
        return gap / (scale * scale)


HERMITIAN_REL_TOL = 1e-10


def _frobenius(parts, f) -> float:
    """Frobenius norm of f applied to the whole value, summed over blocks."""
    return math.sqrt(sum(w * float(np.linalg.norm(f(v))) ** 2 for v, w in parts))


def esd(poly_matrix, model: MatrixModel) -> ESD:
    """Eigenvalues of poly_matrix at model, one diagonal block at a time.

    A block with a nonconstant entry is evaluated, with one word cache shared
    by all blocks, and solved at its own size d * |block|.  A constant block
    is never evaluated: C (x) I_d has the eigenvalues of C, each d times.
    The whole value counts as Hermitian when it is within HERMITIAN_REL_TOL
    of its adjoint, relative to its norm; its real eigenvalues are then
    those of the Hermitian part of each block, returned sorted.
    """
    d = model.d
    cache: dict = {}
    blocks, parts = [], []
    for rows in poly_matrix.diagonal_blocks():
        sub = poly_matrix.principal(rows)
        constant = sub.degree <= 0
        if constant:
            value = np.array(
                [[complex(p.constant_term()) for p in row] for row in sub.entries],
                dtype=complex,
            )
        else:
            value = sub.evaluate(model, cache=cache)
        blocks.append((rows, constant))
        parts.append((value, d if constant else 1))
    scale = _frobenius(parts, lambda v: v)
    hermitian = bool(
        scale == 0.0
        or _frobenius(parts, lambda v: v - v.conj().T) <= HERMITIAN_REL_TOL * scale
    )
    if hermitian:
        solved = [np.linalg.eigvalsh((v + v.conj().T) / 2) for v, _ in parts]
    else:
        solved = [np.linalg.eigvals(v) for v, _ in parts]
    eigs = np.concatenate([np.repeat(e, w) for e, (_, w) in zip(solved, parts)])
    if hermitian:
        eigs = np.sort(eigs)
    return ESD(
        eigenvalues=eigs.astype(complex),
        d=d,
        block_size=poly_matrix.rows,
        hermitian=hermitian,
        kind=model.kind,
        seed=model.seed,
        blocks=tuple(blocks),
        parts=tuple(parts),
    )


def rank_convergence(
    poly_matrix,
    dims: Sequence[int],
    seed: int = 0,
    kind: str = "gue",
    tol_factor: float = 1.0,
) -> List[dict]:
    """Normalized rank rank/d along a ladder of dimensions.

    The input is evaluated in floats as it is, so a coefficient beyond the
    float range is an InputError.
    """
    rows = []
    for i, d in enumerate(dims):
        model = sample(kind, d, poly_matrix.n_vars, seed + i)
        try:
            value = poly_matrix.evaluate(model)
        except OverflowError:
            raise InputError("a coefficient lies beyond the float range") from None
        report = empirical_rank(value, tol_factor)
        rows.append(
            {
                "d": d,
                "rank": report.rank,
                "rank_over_d": report.rank / d,
                "gap": report.gap,
                "seed": seed + i,
            }
        )
    return rows


FLAG_DISTANCE = 0.02


def atiyah_integrality_scan(
    poly_matrices: Sequence,
    d: int,
    seed: int = 0,
    kind: str = "gue",
    tol_factor: float = 1.0,
) -> dict:
    """Check how close normalized ranks sit to integers.

    Each input matrix is evaluated at its own derived seed; the report rows
    carry rank/d, the distance to the nearest integer, and a flag when the
    distance exceeds FLAG_DISTANCE, which the report repeats.
    """
    rows = []
    for i, pm in enumerate(poly_matrices):
        model = sample(kind, d, pm.n_vars, seed + i)
        report = empirical_rank(pm.evaluate(model), tol_factor)
        ratio = report.rank / d
        nearest = round(ratio)
        distance = abs(ratio - nearest)
        rows.append(
            {
                "index": i,
                "size": pm.rows,
                "rank": report.rank,
                "rank_over_d": ratio,
                "nearest_int": nearest,
                "distance": distance,
                "flagged": distance > FLAG_DISTANCE,
                "seed": seed + i,
            }
        )
    return {
        "kind": kind,
        "d": d,
        "flag_distance": FLAG_DISTANCE,
        "rows": rows,
        "any_flagged": any(r["flagged"] for r in rows),
    }


def semicircle_cdf(x: float) -> float:
    """Distribution function of the semicircle law on [-2, 2]."""
    if x <= -2:
        return 0.0
    if x >= 2:
        return 1.0
    return 0.5 + x * math.sqrt(4 - x * x) / (4 * math.pi) + math.asin(x / 2) / math.pi


def ks_to_semicircle(eigenvalues: np.ndarray) -> float:
    """Kolmogorov distance between an empirical spectrum and the semicircle."""
    xs = np.sort(np.real(eigenvalues))
    n = len(xs)
    dist = 0.0
    for i, x in enumerate(xs):
        f = semicircle_cdf(float(x))
        dist = max(dist, abs((i + 1) / n - f), abs(i / n - f))
    return dist

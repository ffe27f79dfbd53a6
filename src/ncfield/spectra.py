"""Central eigenvalues, atom masses and the entropy dimension.

A scalar lambda is a central eigenvalue of a square matrix P over the free
skew field when P - lambda*1 fails to be full.  For an affine pencil the
candidates are confined to the eigenvalues of the constant coefficient, and
a full homogeneous part rules out any central eigenvalue at all.  Each
candidate is certified by an actual rank decision on the shifted matrix, so
a certified atom carries the exact mass (N - rho)/N and the certified
spectrum yields the entropy dimension 1 - sum((N - rho)^2)/N^2.

For a general polynomial matrix the candidates are read off atom clusters in
the empirical spectral distribution of one evaluated sample, snapped to
nearby Gaussian rationals where possible and certified the same way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Union

import numpy as np

from .errors import (
    Inconclusive,
    InputError,
    InvariantViolation,
    NoConsensus,
    NonSquareError,
)
from .ncpoly import LinearPencil, NcMatrix
from .ncrank import ncrank
from .randmat import DEFAULT_POLICY, TolerancePolicy, block_spectrum, sample
from .scalars import GaussianRational, snap_to_gaussian_rational

LambdaLike = Union[GaussianRational, complex, int, Fraction]

WINDOW_FACTOR = 4.0
COUNT_FACTOR = 0.6


@dataclass
class SpectralAtom:
    lam: object  # GaussianRational when certified exactly, else complex
    rho: int
    mass: Fraction
    certified: bool
    exact: bool

    def lam_text(self) -> str:
        if isinstance(self.lam, GaussianRational):
            return str(self.lam)
        z = complex(self.lam)
        return f"{z.real:.12g}{z.imag:+.12g}i"


@dataclass
class SpectrumReport:
    size: int
    atoms: List[SpectralAtom] = field(default_factory=list)
    uncertified: List[dict] = field(default_factory=list)
    dimension: Optional[Fraction] = None
    source: str = "constant-term"
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "source": self.source,
            "atoms": [
                {
                    "lambda": a.lam_text(),
                    "rho": a.rho,
                    "mass": str(a.mass),
                    "mass_float": float(a.mass),
                    "certified": a.certified,
                    "exact": a.exact,
                }
                for a in self.atoms
            ],
            "uncertified": self.uncertified,
            "entropy_dimension": None if self.dimension is None else str(self.dimension),
            "entropy_dimension_float": None
            if self.dimension is None
            else float(self.dimension),
            "diagnostics": self.diagnostics,
        }


def _dimension_from_atoms(size: int, atoms: Sequence[SpectralAtom]) -> Fraction:
    total = sum((size - a.rho) ** 2 for a in atoms)
    return 1 - Fraction(total, size * size)


def _rho_of_shift(
    matrix: NcMatrix, lam, seed: int, policy: TolerancePolicy
) -> Optional[int]:
    """Rank of matrix - lam*1, cross-checked by the orchestrated rank.

    Exact shifts are applied to the matrix itself, so the fullness engine
    gets exact coefficients and decides by exact certificates; numeric
    shifts are handed to ``ncrank`` as its spectral shift.  Returns None when
    nothing could be decided.
    """
    if isinstance(lam, (int, Fraction, GaussianRational)):
        matrix, shift = matrix.shift(lam), 0
    else:
        shift = complex(lam)
    try:
        result = ncrank(matrix, seed=seed, policy=policy, shift=shift)
    except (NoConsensus, Inconclusive):
        return None
    return result.rho


def central_eigs_pencil(
    pencil: LinearPencil,
    seed: int = 0,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> SpectrumReport:
    """Central eigenvalues of an affine pencil.

    Candidates are the eigenvalues of the constant coefficient; a certified
    full homogeneous part short-circuits to the empty spectrum.
    """
    if not pencil.is_square():
        raise NonSquareError("central eigenvalues need a square pencil")
    n = pencil.rows
    report = SpectrumReport(size=n, source="constant-term")
    hom = pencil.homogeneous_part()
    if not hom.is_zero():
        hom_rank = ncrank(hom.to_matrix(), seed=seed + 1, policy=policy)
        report.diagnostics["homogeneous_rho"] = hom_rank.rho
        if hom_rank.rho == n:
            report.dimension = Fraction(1)
            return report
    a0 = np.array(
        [[complex(x) for x in row] for row in pencil.coeffs[0]], dtype=complex
    )
    candidates = _cluster_points(np.linalg.eigvals(a0), tol=1e-8 * max(1.0, float(np.linalg.norm(a0))))
    _certify_candidates(report, pencil.to_matrix(), candidates, seed, policy)
    _finalize(report)
    return report


def central_eigs_polymatrix(
    matrix: NcMatrix,
    d: int = 500,
    seed: int = 0,
    kind: str = "gue",
    policy: TolerancePolicy = DEFAULT_POLICY,
    certify: bool = True,
) -> SpectrumReport:
    """Central eigenvalues of a polynomial matrix from one spectral sample.

    The sample's spectrum is solved one diagonal block at a time, and a
    constant block is read exactly from its scalar matrix without being
    evaluated (``randmat.block_spectrum``); ``diagnostics["blocks"]`` lists
    the blocks.  Atom candidates are windows of width WINDOW_FACTOR/sqrt(d)
    holding at least COUNT_FACTOR*d/N eigenvalues.  With certification on,
    each candidate must pass a rank decision on the shifted matrix.
    """
    if not matrix.is_square():
        raise NonSquareError("central eigenvalues need a square matrix")
    n = matrix.rows
    spectrum = block_spectrum(matrix, sample(kind, d, matrix.n_vars, seed))
    hermitian = spectrum.hermitian
    window = WINDOW_FACTOR / math.sqrt(d)
    min_count = COUNT_FACTOR * d / n
    if hermitian:
        raw = _real_atom_clusters(spectrum.eigenvalues, window, min_count)
        candidates = [complex(x) for x in raw]
    else:
        # A Hermitian value v has |vv* - v*v| <= 2e-10 |v|^2 (the Hermitian
        # tolerance), far below this bar, so only this branch can warn.
        if spectrum.normal_defect() > 1e-8:
            warnings.warn(
                "evaluated matrix is far from normal; atom detection is unreliable",
                stacklevel=2,
            )
        candidates = _complex_atom_clusters(spectrum.eigenvalues, window, min_count)
    report = SpectrumReport(size=n, source="numeric-detection")
    report.diagnostics.update(
        {
            "d": d,
            "kind": kind,
            "window": window,
            "min_count": min_count,
            "hermitian": hermitian,
            "candidates": [[z.real, z.imag] for z in candidates],
            "blocks": [
                {"rows": list(rows), "constant": constant}
                for rows, constant in spectrum.blocks
            ],
        }
    )
    if certify:
        _certify_candidates(report, matrix, candidates, seed, policy)
    else:
        for z in candidates:
            report.uncertified.append(
                {"lambda": [z.real, z.imag], "reason": "certification disabled"}
            )
    _finalize(report)
    return report


def _certify_candidates(report, matrix, candidates, seed, policy):
    n = matrix.rows
    for k, z in enumerate(candidates):
        snapped = snap_to_gaussian_rational(complex(z))
        rho = None
        exact = False
        if snapped is not None:
            rho = _rho_of_shift(matrix, snapped, seed + 100 + 7 * k, policy)
            exact = rho is not None
        same_point = snapped is not None and complex(snapped) == complex(z)
        if rho is None or (rho == n and not same_point):
            # retry at the raw numeric location before discarding, unless
            # that is the point just decided
            rho_num = _rho_of_shift(matrix, complex(z), seed + 500 + 7 * k, policy)
            if rho_num is not None and rho_num < n:
                rho, exact, snapped = rho_num, False, None
            elif rho is None:
                report.uncertified.append(
                    {"lambda": [complex(z).real, complex(z).imag], "reason": "no consensus"}
                )
                continue
        if rho == n:
            continue  # numeric cluster was not an actual atom
        lam = snapped if exact else complex(z)
        report.atoms.append(SpectralAtom(lam, rho, Fraction(n - rho, n), True, exact))


def _finalize(report: SpectrumReport):
    n = report.size
    if len(report.atoms) > n:
        raise InvariantViolation(
            f"{len(report.atoms)} certified central eigenvalues on a size {n} matrix"
        )
    total_mass = sum(a.mass for a in report.atoms)
    if total_mass > 1:
        raise InvariantViolation(f"atom masses sum to {total_mass} > 1")
    if not report.uncertified:
        report.dimension = _dimension_from_atoms(n, report.atoms)


def _cluster_points(points: np.ndarray, tol: float) -> List[complex]:
    out: List[complex] = []
    counts: List[int] = []
    for z in sorted(points, key=lambda w: (w.real, w.imag)):
        if out and abs(z - out[-1]) <= tol:
            counts[-1] += 1
            out[-1] += (z - out[-1]) / counts[-1]
        else:
            out.append(complex(z))
            counts.append(1)
    return out


def _real_atom_clusters(sorted_eigs: np.ndarray, window: float, min_count: float):
    """Sliding window scan over a sorted real spectrum."""
    xs = np.asarray(sorted_eigs, dtype=float)
    m = len(xs)
    marked = []
    j = 0
    for i in range(m):
        if j < i:
            j = i
        while j + 1 < m and xs[j + 1] - xs[i] <= window:
            j += 1
        if j - i + 1 >= min_count:
            marked.append((xs[i], xs[j]))
    if not marked:
        return []
    merged = [list(marked[0])]
    for lo, hi in marked[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    centers = []
    for lo, hi in merged:
        inside = xs[(xs >= lo) & (xs <= hi)]
        centers.append(float(np.median(inside)))
    return centers


def _complex_atom_clusters(eigs: np.ndarray, window: float, min_count: float):
    """Cell-count clustering in the complex plane, centers sorted by (re, im).

    Neither the centers nor their means depend on the order of ``eigs``, so
    candidates and their certification seeds do not follow solver or block
    order.
    """
    cells: dict = {}
    for z in np.sort(eigs):
        key = (round(z.real / window), round(z.imag / window))
        cells.setdefault(key, []).append(z)
    centers = [
        complex(np.mean(bucket))
        for bucket in cells.values()
        if len(bucket) >= min_count
    ]
    return sorted(centers, key=lambda z: (z.real, z.imag))


def atom_masses(
    matrix: NcMatrix,
    lambdas: Sequence[LambdaLike],
    seed: int = 0,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> List[Fraction]:
    """Exact masses (N - rho(P - lambda))/N for exact shift values."""
    if not matrix.is_square():
        raise NonSquareError("atom masses need a square matrix")
    n = matrix.rows
    out = []
    for k, lam in enumerate(lambdas):
        if not isinstance(lam, (int, Fraction, GaussianRational)):
            raise InputError("atom_masses needs exact Gaussian rational points")
        rho = _rho_of_shift(matrix, lam, seed + 31 * k, policy)
        if rho is None:
            raise Inconclusive(f"rank at shift {lam} reached no consensus")
        out.append(Fraction(n - rho, n))
    return out


def _spectrum(
    matrix: NcMatrix,
    seed: int,
    d: int,
    kind: str,
    policy: TolerancePolicy,
    certify: bool = True,
) -> SpectrumReport:
    """The pencil spectrum for certified affine input, else the sampled one."""
    if certify and matrix.degree <= 1:
        return central_eigs_pencil(matrix.to_pencil(), seed=seed, policy=policy)
    return central_eigs_polymatrix(
        matrix, d=d, seed=seed, kind=kind, policy=policy, certify=certify
    )


def entropy_dimension(
    matrix: NcMatrix,
    seed: int = 0,
    d: int = 500,
    kind: str = "gue",
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> Fraction:
    """1 - sum((N - rho)^2)/N^2 over the certified central eigenvalues."""
    report = _spectrum(matrix, seed, d, kind, policy)
    if report.uncertified:
        raise Inconclusive(
            "uncertified atom candidates remain", {"uncertified": report.uncertified}
        )
    assert report.dimension is not None
    return report.dimension


def flatness_constants(pencil: LinearPencil) -> dict:
    """Best constants with c1 tr(b) <= L(b) <= c2 tr(b) on a PSD basis.

    Informational only: the probe set is the standard rank-one basis, not all
    of the positive cone.
    """
    from .ncrank import quantum_op_apply

    if not pencil.is_square():
        raise NonSquareError("flatness runs on square pencils")
    n = pencil.rows
    probes = []
    for j in range(n):
        e = np.zeros((n, 1), dtype=complex)
        e[j] = 1.0
        probes.append(e @ e.conj().T)
    for j in range(n):
        for k in range(j + 1, n):
            for phase in (1.0, 1j):
                e = np.zeros((n, 1), dtype=complex)
                e[j] = 1.0
                e[k] = phase
                probes.append(e @ e.conj().T / 2.0)
    c1 = math.inf
    c2 = 0.0
    for b in probes:
        lb = quantum_op_apply(pencil, b)
        eigs = np.linalg.eigvalsh((lb + lb.conj().T) / 2)
        tr = float(np.trace(b).real)
        c1 = min(c1, float(eigs[0]) / tr)
        c2 = max(c2, float(eigs[-1]) / tr)
    return {"c1": c1, "c2": c2, "probes": len(probes), "flat": c1 > 0}

"""Central eigenvalues, atom masses and the entropy dimension.

A scalar lambda is a central eigenvalue of a square matrix P over the free
skew field when P - lambda*1 fails to be full.  Then P(a) - lambda is
singular at every scalar point a, so every central eigenvalue is a root of

    g(t) = gcd over scalar points a of det(t - P(a)),

a polynomial over Q(i) of degree at most N.  The certified entry points
compute g exactly, one diagonal block at a time: a constant block gives the
characteristic polynomial of its scalar matrix, and a nonconstant block the
gcd over a = 0 and a few seeded Gaussian-integer points (xi and xi*
independent), stopping once the gcd is 1; the gcds run by the
subresultant PRS (``scalars.gcd_zi``).  g is the first step of every
certified spectrum, and g = 1 ends it: no atom, dimension 1, and no rank
call.  When g has roots, an affine pencil's homogeneous part goes to
``ncrank`` next, and an exactly full one rules out every central
eigenvalue.  The roots of g are then cut into exact factors f of g, once.
A linear factor is a root in Q(i), found exactly past float precision too,
and decided on the exactly shifted matrix, or for a pencil on the shifted
pencil.  A factor of higher degree is decided through the companion
blow-up P_f, which has Q(i) coefficients and rho(P_f) = sum of rho(P - mu)
over the roots mu of f, so the exact fullness engine decides every
candidate.  Each candidate is certified by an exact verdict next to the
substitution rank, so a certified atom carries the exact mass (N - rho)/N
and the certified spectrum yields the entropy dimension
1 - sum((N - rho)^2)/N^2.

Without certification, a polynomial matrix's candidates are read off atom
clusters in the empirical spectral distribution of one evaluated sample and
reported as uncertified.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Union

import numpy as np

from .errors import (
    Inconclusive,
    InputError,
    InvariantViolation,
    MethodDisagreement,
    NoConsensus,
    NonSquareError,
)
from .ncpoly import LinearPencil, NcMatrix
from .ncrank import _decide_exactly, ncrank, rank_by_substitution
from .randmat import esd, sample
from .scalars import (
    GaussianRational,
    charpoly_zi,
    eval_zi,
    gcd_zi,
    irreducible_zi,
    mul_zi,
    pseudo_divmod_zi,
    squarefree_zi,
)

LambdaLike = Union[GaussianRational, complex, int, Fraction]

WINDOW_FACTOR = 4.0
COUNT_FACTOR = 0.6
# Scalar points per nonconstant block: a = 0, then seeded Gaussian integers
# with parts in [-POINT_BOUND, POINT_BOUND].  More points can only remove
# candidates that certification would reject anyway.
CANDIDATE_POINTS = 3
POINT_BOUND = 8
# Subsets of the roots of g not yet cut off tried per factor size.
FACTOR_SUBSETS = 1024
# Bits beyond the binary point to which a product of refined roots is known.
ROOT_GUARD_BITS = 64


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
    source: str = "candidate-polynomial"
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
    matrix: Union[NcMatrix, LinearPencil], lam, seed: int, tol_factor: float
) -> int:
    """Rank of matrix - lam*1 at an exact lam, for a matrix or a pencil.

    The input itself is shifted, a pencil as a pencil, and ``ncrank``
    cross-checks the value with the exact fullness engine, whose verdict is
    required: an inconclusive one, like no consensus, raises Inconclusive.
    """
    try:
        result = ncrank(matrix.shift(lam), seed=seed, tol_factor=tol_factor)
    except NoConsensus as exc:
        raise Inconclusive("no consensus") from exc
    if (result.cross or {}).get("scaling") == "inconclusive":
        raise Inconclusive("exact engine inconclusive", result.cross["diagnostics"])
    return result.rho


def central_eigs_pencil(
    pencil: LinearPencil,
    seed: int = 0,
    tol_factor: float = 1.0,
) -> SpectrumReport:
    """Central eigenvalues of an affine pencil.

    The candidates are the roots of the candidate polynomial g, whose point
    a = 0 gives the characteristic polynomial of the constant coefficient,
    and g comes first: g = 1 is the final, empty spectrum, reached with no
    rank call.  Only when g has roots does the homogeneous part go to
    ``ncrank``; a full one ends the spectrum, empty, and its rank is
    reported as ``diagnostics["homogeneous_rho"]``.  The homogeneous part
    and each exactly shifted pencil go to ``ncrank`` as pencils; the
    pencil's matrix is built once, for g and the companion route.
    """
    if not pencil.is_square():
        raise NonSquareError("central eigenvalues need a square pencil")
    report = SpectrumReport(size=pencil.rows)
    _certify_candidates(report, pencil.to_matrix(), seed, tol_factor, pencil)
    _finalize(report)
    return report


def central_eigs_polymatrix(
    matrix: NcMatrix,
    d: int = 500,
    seed: int = 0,
    kind: str = "gue",
    tol_factor: float = 1.0,
    certify: bool = True,
) -> SpectrumReport:
    """Central eigenvalues of a polynomial matrix.

    With certification on, the candidates are the roots of the candidate
    polynomial g, and each must pass a rank decision on the shifted matrix;
    ``d`` and ``kind`` are then unused.  With it off, one sample of the given
    kind and dimension d is evaluated and its spectrum is solved one
    diagonal block at a time, with constant blocks read from their scalar
    matrices (``randmat.esd``).  Candidates are windows of width
    WINDOW_FACTOR/sqrt(d) holding at least COUNT_FACTOR*d/N eigenvalues, and
    they are listed as uncertified.  Both modes list the diagonal blocks in
    ``diagnostics["blocks"]``.
    """
    if not matrix.is_square():
        raise NonSquareError("central eigenvalues need a square matrix")
    n = matrix.rows
    if certify:
        report = SpectrumReport(size=n)
        _certify_candidates(report, matrix, seed, tol_factor)
        _finalize(report)
        return report
    spectrum = esd(matrix, sample(kind, d, matrix.n_vars, seed))
    hermitian = spectrum.hermitian
    window = WINDOW_FACTOR / math.sqrt(d)
    min_count = COUNT_FACTOR * d / n
    if hermitian:
        raw = _real_atom_clusters(spectrum.eigenvalues.real, window, min_count)
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
    for z in candidates:
        report.uncertified.append(
            {"lambda": [z.real, z.imag], "reason": "certification disabled"}
        )
    _finalize(report)
    return report


def _candidate_polynomial(matrix: NcMatrix, seed: int):
    """g in the variable s = scale*t, with the scale and the diagnostics.

    Returns (g, scale, points, blocks): g has Gaussian-integer coefficients
    and is squarefree, scale = ``matrix.denominator()``, points counts the
    scalar points evaluated, and blocks lists each diagonal block.  Working
    with scale*P(a), a Gaussian-integer matrix, keeps every characteristic
    polynomial over Z[i].  Each block draws its points from a fresh
    Random(seed), so g does not depend on the order of the blocks.
    """
    scale = matrix.denominator()
    slots = 2 * matrix.n_vars + 1
    origin = [(0, 0)] * slots
    g, points, blocks = [(1, 0)], 0, []
    for rows in matrix.diagonal_blocks():
        sub = matrix.principal(rows)
        constant = sub.degree <= 0
        blocks.append({"rows": list(rows), "constant": constant})
        factor = charpoly_zi(sub.scaled_value(origin, scale))
        if not constant:
            rng = random.Random(seed)
            points += 1
            for _ in range(CANDIDATE_POINTS - 1):
                if len(factor) == 1:
                    break  # gcd 1: the block has no central eigenvalue
                point = [
                    (rng.randint(-POINT_BOUND, POINT_BOUND),
                     rng.randint(-POINT_BOUND, POINT_BOUND))
                    for _ in range(slots)
                ]
                factor = gcd_zi(factor, charpoly_zi(sub.scaled_value(point, scale)))
                points += 1
        g = mul_zi(g, squarefree_zi(factor))
    return squarefree_zi(g), scale, points, blocks


def _monic(g, scale: int) -> List[GaussianRational]:
    """Coefficients of the monic g(t), from the leading one down.

    g is given in the variable s = scale*t, so the coefficient of s^j
    becomes the coefficient of t^j times scale^j.
    """
    a, b = g[0]
    norm = a * a + b * b
    return [
        GaussianRational(
            Fraction(x * a + y * b, norm * scale**k),
            Fraction(y * a - x * b, norm * scale**k),
        )
        for k, (x, y) in enumerate(g)
    ]


def _float_roots(g, scale: int) -> np.ndarray:
    if len(g) < 2:
        return np.zeros(0, dtype=complex)
    return np.roots([complex(c) for c in _monic(g, scale)])


def _poly_text(coeffs: Sequence[GaussianRational]) -> str:
    """A polynomial in t as text, such as 't^2 - t - 1'."""
    deg = len(coeffs) - 1
    chunks: List[str] = []
    for k, c in enumerate(coeffs):
        if c.is_zero():
            continue
        negative = c.re < 0 or (c.re == 0 and c.im < 0)
        c = -c if negative else c
        power = deg - k
        monomial = "" if power == 0 else "t" if power == 1 else f"t^{power}"
        factor = f"({c})" if c.re != 0 and c.im != 0 else str(c)
        body = monomial if monomial and c == 1 else "*".join(filter(None, (factor, monomial)))
        if not chunks:
            chunks.append("-" + body if negative else body)
        else:
            chunks.append(("- " if negative else "+ ") + body)
    return " ".join(chunks)


def _certify_candidates(report, matrix, seed, tol_factor, pencil=None):
    """Certify every root of the candidate polynomial g on the shifted matrix.

    g comes first: with no root it settles the spectrum, empty, with no
    rank call.  Given the matrix's ``pencil``, its homogeneous part goes to
    ``ncrank`` next, and an exact "full" verdict rules out every root.  The
    float roots of g are cut into exact factors once (``_exact_factors``).
    The root of a linear factor is decided exactly on the shifted pencil,
    else the shifted matrix; a factor of higher degree goes to the
    companion route (``_certify_factor``).
    """
    g, scale, points, blocks = _candidate_polynomial(matrix, seed)
    factors, left = _exact_factors(g, scale, [complex(z) for z in _float_roots(g, scale)])
    exact = [GaussianRational(Fraction(-f[1][0], scale), Fraction(-f[1][1], scale))
             for f, _ in factors if len(f) == 2]
    factors = [(f, members) for f, members in factors if len(f) > 2]
    candidates = sorted(exact + [mu for _, members in factors for mu in members] + left,
                        key=lambda lam: (complex(lam).real, complex(lam).imag))
    report.diagnostics.update(
        {
            "candidate_polynomial": _poly_text(_monic(g, scale)),
            "candidate_points": points,
            "candidates": [[complex(z).real, complex(z).imag] for z in candidates],
            "blocks": blocks,
            "factors": [],
        }
    )
    n = matrix.rows
    if pencil is not None and candidates:
        hom = pencil.homogeneous_part()
        if not hom.is_zero():
            result = ncrank(hom, seed=seed + 1, tol_factor=tol_factor)
            report.diagnostics["homogeneous_rho"] = result.rho
            if (result.cross or {}).get("scaling") == "full":
                return
    source = matrix if pencil is None else pencil
    for k, lam in enumerate(candidates):
        if not isinstance(lam, GaussianRational):
            continue
        try:
            rho = _rho_of_shift(source, lam, seed + 100 + 7 * k, tol_factor)
        except Inconclusive as exc:
            _uncertify(report, lam, str(exc))
            continue
        if rho < n:
            report.atoms.append(SpectralAtom(lam, rho, Fraction(n - rho, n), True, True))
    for j, (f, members) in enumerate(factors, 1):
        _certify_factor(report, matrix, source, f, members, scale, seed + 200 + 11 * j, tol_factor)
    for mu in left:
        _uncertify(report, mu, "no exact factor")
    report.atoms.sort(key=lambda a: (complex(a.lam).real, complex(a.lam).imag))


def _uncertify(report, lam, reason: str):
    z = complex(lam)
    report.uncertified.append({"lambda": [z.real, z.imag], "reason": reason})


def _certify_factor(report, matrix, source, f, members: list, scale: int, seed: int, tol_factor):
    """Decide the roots of one exact factor f of g, in s = scale*t, at once.

    Substitution reads rho once, on the source shifted exactly to its first
    root read as a Gaussian rational.  The companion blow-up P_f, whose
    inner rank is the sum of rho(P - mu) over the roots mu of f, gets the
    exact route of ``ncrank``, in u = s/nu for the nu among 1, the content
    of scale*P(0) and scale that puts the roots of f nearest unit size:
    this balances the companion coordinates, so the lifted Wong bases stay
    short.  A full P_f proves that no root is an atom; a nonfull one proves
    every root an atom once ``irreducible_zi`` proves f irreducible, since
    Galois conjugates share rho, and otherwise its roots stay uncertified.
    A verdict against the substitution rank raises MethodDisagreement.
    """
    n = matrix.rows
    text = _poly_text(_monic(f, scale))
    entry = {"factor": text, "rho": None, "irreducible": irreducible_zi(f)}
    report.diagnostics["factors"].append(entry)
    shifted = source.shift(GaussianRational(Fraction(members[0].real), Fraction(members[0].imag)))
    try:
        rho = rank_by_substitution(shifted, seed=seed, tol_factor=tol_factor).rho
    except NoConsensus:
        entry.update(verdict="inconclusive", detail="no consensus")
        for mu in members:
            _uncertify(report, mu, "no consensus")
        return
    entry["rho"] = rho
    value = matrix.scaled_value([(0, 0)] * (2 * matrix.n_vars + 1), scale)
    content = math.gcd(*(part for row in value for z in row for part in z))
    size = scale * max(abs(complex(mu)) for mu in members)
    nu = min(sorted({1, scale, content} - {0}), key=lambda v: abs(math.log(size / v)))
    companion = (matrix * Fraction(scale, nu)).companion(_monic(f, nu))
    try:
        cert, _ = _decide_exactly(companion, seed)
    except Inconclusive:
        entry.update(verdict="inconclusive", detail="")
        for mu in members:
            _uncertify(report, mu, "companion blow-up inconclusive")
        return
    entry.update(verdict=cert.verdict, detail=cert.detail)
    if (cert.verdict == "full") != (rho == n):
        raise MethodDisagreement(
            f"substitution says rho={rho} of {n} at the roots of {text}, "
            f"the companion blow-up is {cert.verdict}"
        )
    if cert.verdict == "full":
        return
    for mu in members:
        if entry["irreducible"]:
            report.atoms.append(SpectralAtom(mu, rho, Fraction(n - rho, n), True, False))
        else:
            _uncertify(report, mu, "factor not proven irreducible")


def _exact_factors(h, scale: int, roots: list):
    """Cut float roots t into monic factors of h in s = scale*t, smallest first.

    Returns ([(f, its roots)], the roots left over).  The product of
    s - scale*mu over a subset, from the refined roots (``_refined_roots``),
    is kept when it lies within 2^-(ROOT_GUARD_BITS/2) of its rounding f to
    Z[i], so that f has the subset's roots, and f divides h.  Every root s
    of h is an eigenvalue of the Gaussian-integer matrix scale*P(0), hence
    an algebraic integer, so a root t in Q(i) has s in Z[i] and is cut off
    as a linear factor, past float precision too.  A size with more than
    FACTOR_SUBSETS subsets is skipped, which bounds the work.
    """
    found, size = [], 1
    left, bits = _refined_roots(h, scale, roots)
    while size <= len(left):
        subsets = ()
        if math.comb(len(left), size) <= FACTOR_SUBSETS:
            subsets = itertools.combinations(left, size)
        for subset in subsets:
            product, shift = [(1, 0)], bits * size
            for (re, im), _ in subset:
                product = mul_zi(product, [(1 << bits, 0), (-re, -im)])
            f = [((re + (1 << shift - 1)) >> shift, (im + (1 << shift - 1)) >> shift)
                 for re, im in product]
            error = max(abs(x - (y << shift)) for c, r in zip(product, f) for x, y in zip(c, r))
            if error >> (shift - ROOT_GUARD_BITS // 2):
                continue
            quotient, rest = pseudo_divmod_zi(h, f)
            if not rest:
                h = quotient
                found.append((f, [mu for _, mu in subset]))
                left = [root for root in left if root not in subset]
                break
        else:
            size += 1
    return found, [mu for _, mu in left]


def _refined_roots(h, scale: int, roots: list):
    """[(w, mu)] with w within about one unit of 2^bits * scale*mu, and bits.

    Newton steps on 2^(bits*deg) h(w / 2^bits), each rounded to Z[i], run
    from the float roots.  2^k times the product of (1 + |s|) over the k
    roots bounds the error of a product of s - w/2^bits in units of
    2^-bits, and bits exceeds its bits by ROOT_GUARD_BITS.
    """
    zs = [complex(mu) * scale for mu in roots]
    bits = ROOT_GUARD_BITS + len(zs) + sum(math.ceil(math.log2(1 + abs(z))) for z in zs)
    deg = len(h) - 1
    scaled = [(re << bits * k, im << bits * k) for k, (re, im) in enumerate(h)]
    slope = [((deg - k) * re, (deg - k) * im) for k, (re, im) in enumerate(scaled[:-1])]
    out = []
    for mu, z in zip(roots, zs):
        w = (round(z.real * 2**32) << bits - 32, round(z.imag * 2**32) << bits - 32)
        for _ in range(2 * bits.bit_length() + 8):
            (a, b), (c, d) = eval_zi(scaled, w), eval_zi(slope, w)
            norm = c * c + d * d
            if norm == 0:
                break
            step = ((2 * (a * c + b * d) + norm) // (2 * norm),
                    (2 * (b * c - a * d) + norm) // (2 * norm))
            if max(map(abs, step)) <= 1:
                break
            w = (w[0] - step[0], w[1] - step[1])
        out.append((w, mu))
    return out, bits


def _finalize(report: SpectrumReport):
    n = report.size
    if len(report.atoms) > n:
        raise InvariantViolation(
            f"{len(report.atoms)} certified central eigenvalues on a size {n} matrix"
        )
    if len(set(a.lam for a in report.atoms)) < len(report.atoms):
        raise InvariantViolation("two certified atoms share one central eigenvalue")
    total_mass = sum(a.mass for a in report.atoms)
    if total_mass > 1:
        raise InvariantViolation(f"atom masses sum to {total_mass} > 1")
    if not report.uncertified:
        report.dimension = _dimension_from_atoms(n, report.atoms)


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
    tol_factor: float = 1.0,
) -> List[Fraction]:
    """Exact masses (N - rho(P - lambda))/N for exact shift values."""
    if not matrix.is_square():
        raise NonSquareError("atom masses need a square matrix")
    n = matrix.rows
    out = []
    for k, lam in enumerate(lambdas):
        if not isinstance(lam, (int, Fraction, GaussianRational)):
            raise InputError("atom_masses needs exact Gaussian rational points")
        out.append(Fraction(n - _rho_of_shift(matrix, lam, seed + 31 * k, tol_factor), n))
    return out


def _spectrum(
    matrix: Union[NcMatrix, LinearPencil],
    seed: int,
    tol_factor: float,
    certify: bool = True,
    d: int = 500,
    kind: str = "gue",
) -> SpectrumReport:
    """The pencil spectrum for certified affine input, else the polymatrix one.

    A pencil goes to ``central_eigs_pencil`` as it is.  ``d`` and ``kind``
    set the spectral sample, which only an uncertified spectrum draws.
    """
    if certify and isinstance(matrix, NcMatrix) and matrix.degree <= 1:
        matrix = matrix.to_pencil()
    if isinstance(matrix, LinearPencil):
        if certify:
            return central_eigs_pencil(matrix, seed=seed, tol_factor=tol_factor)
        matrix = matrix.to_matrix()
    return central_eigs_polymatrix(
        matrix, d=d, seed=seed, kind=kind, tol_factor=tol_factor, certify=certify
    )


def entropy_dimension(
    matrix: NcMatrix,
    seed: int = 0,
    tol_factor: float = 1.0,
) -> Fraction:
    """1 - sum((N - rho)^2)/N^2 over the certified central eigenvalues."""
    report = _spectrum(matrix, seed, tol_factor)
    if report.uncertified:
        raise Inconclusive(
            "uncertified atom candidates remain", {"uncertified": report.uncertified}
        )
    assert report.dimension is not None
    return report.dimension

"""Central eigenvalues, atom masses, and the entropy dimension."""

from __future__ import annotations

import importlib
import itertools
import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ncfield import (
    Letter,
    LinearPencil,
    NcMatrix,
    NcPoly,
    atom_masses,
    central_eigs_pencil,
    central_eigs_polymatrix,
    entropy_dimension,
    esd,
    ncrank,
    random_pencil,
    sample,
)
from ncfield.errors import Inconclusive, InputError, MethodDisagreement, NonSquareError
from ncfield.ncrank import RankResult
from ncfield.ncpoly import letter_slot, random_poly_matrix
from ncfield.scalars import GaussianRational, charpoly_zi, gcd_zi, mul_zi, squarefree_zi
from ncfield.spectra import CANDIDATE_POINTS, POINT_BOUND, _candidate_polynomial


def _diag_x1_zero() -> NcMatrix:
    n_vars = 1
    return NcMatrix(
        [
            [NcPoly.var(1, n_vars), NcPoly.zero(n_vars)],
            [NcPoly.zero(n_vars), NcPoly.zero(n_vars)],
        ]
    )


def test_projection_like_matrix_has_atom_of_mass_half():
    report = central_eigs_pencil(_diag_x1_zero().to_pencil(), seed=0)
    assert report.uncertified == []
    assert len(report.atoms) == 1
    atom = report.atoms[0]
    assert atom.exact and atom.certified
    assert isinstance(atom.lam, GaussianRational)
    assert atom.lam.is_zero()
    assert atom.mass == Fraction(1, 2)
    assert report.dimension == Fraction(3, 4)


def test_projection_like_entropy_dimension_exact():
    assert entropy_dimension(_diag_x1_zero(), seed=3) == Fraction(3, 4)


def test_single_variable_spectrum_is_empty():
    matrix = NcMatrix([[NcPoly.var(1, 1)]])
    report = central_eigs_pencil(matrix.to_pencil(), seed=1)
    assert report.atoms == []
    assert report.uncertified == []
    assert report.dimension == Fraction(1)
    assert entropy_dimension(matrix, seed=1) == Fraction(1)


def test_constant_matrix_has_full_mass_atom():
    two = NcPoly.const(2, 1)
    zero = NcPoly.zero(1)
    matrix = NcMatrix([[two, zero], [zero, two]])
    report = central_eigs_pencil(matrix.to_pencil(), seed=5)
    assert len(report.atoms) == 1
    atom = report.atoms[0]
    assert atom.mass == Fraction(1)
    assert complex(atom.lam) == 2 + 0j
    assert report.dimension == Fraction(0)


def test_affine_diagonal_atom_sits_at_the_constant():
    n_vars = 1
    three = NcPoly.const(3, n_vars)
    zero = NcPoly.zero(n_vars)
    matrix = NcMatrix([[NcPoly.var(1, n_vars), zero], [zero, three]])
    report = central_eigs_pencil(matrix.to_pencil(), seed=7)
    assert report.uncertified == []
    assert len(report.atoms) == 1
    atom = report.atoms[0]
    assert atom.exact
    assert complex(atom.lam) == 3 + 0j
    assert atom.mass == Fraction(1, 2)
    assert report.dimension == Fraction(3, 4)


def test_full_exact_candidate_is_decided_once(monkeypatch):
    # [[x1, 0], [0, 0]] + diag(0, 1): A0 has eigenvalues 0 and 1, but
    # det(t - P(a)) = (t - a)(t - 1), so g = t - 1 drops 0 with no rank call.
    spectra = importlib.import_module("ncfield.spectra")
    results = []

    def counted(*args, **kwargs):
        results.append(ncrank(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(spectra, "ncrank", counted)
    z, one, x1 = NcPoly.zero(1), NcPoly.const(1, 1), NcPoly.var(1, 1)
    report = central_eigs_pencil(NcMatrix([[x1, z], [z, one]]).to_pencil(), seed=0)
    assert [complex(a.lam) for a in report.atoms] == [1 + 0j]
    # the homogeneous part and candidate 1, each decided once, have rho 1
    assert sorted(r.rho for r in results) == [1, 1]
    assert report.diagnostics["candidate_polynomial"] == "t - 1"


def test_irrational_atoms_are_certified_at_numeric_shifts():
    # A0 = [[0, 1], [1, 1]] (+) [0] and A1 = e33: the atoms sit at the
    # eigenvalues (1 +- sqrt 5)/2, which no Gaussian rational matches.
    z, one, x1 = NcPoly.zero(1), NcPoly.const(1, 1), NcPoly.var(1, 1)
    matrix = NcMatrix([[z, one, z], [one, one, z], [z, z, x1]])
    report = central_eigs_pencil(matrix.to_pencil(), seed=0)
    assert report.uncertified == []
    root5 = math.sqrt(5)
    lams = sorted(complex(a.lam).real for a in report.atoms)
    assert len(lams) == 2
    assert abs(lams[0] - (1 - root5) / 2) < 1e-9
    assert abs(lams[1] - (1 + root5) / 2) < 1e-9
    for atom in report.atoms:
        assert (atom.rho, atom.mass) == (2, Fraction(1, 3))
        assert not atom.exact and atom.certified
    assert report.dimension == Fraction(7, 9)
    # both roots are decided at once, by the exact verdict on P_f
    [factor] = report.diagnostics["factors"]
    assert (factor["factor"], factor["verdict"], factor["irreducible"]) == (
        "t^2 - t - 1", "nonfull", True
    )


@pytest.mark.parametrize("lam", [GaussianRational(10**18 + 1), GaussianRational(Fraction(10**17 + 1, 3))])
def test_exact_roots_past_float_precision_are_exact_atoms(lam):
    # s = scale * lambda lies past 2^53, where its float rounds to another
    # Gaussian integer; the refined root rounds to s itself
    x1 = NcPoly.var(1, 1)
    matrix = NcMatrix.diag([x1, NcPoly.const(lam, 1)])
    for report in (central_eigs_pencil(matrix.to_pencil(), seed=0),
                   central_eigs_polymatrix(matrix, seed=0)):
        [atom] = report.atoms
        assert isinstance(atom.lam, GaussianRational)
        assert (atom.lam, atom.rho, atom.exact, atom.certified) == (lam, 1, True, True)
        assert report.diagnostics["factors"] == []
        assert report.dimension == Fraction(3, 4)


def test_pencil_spectra_hand_pencils_to_the_rank_engines(monkeypatch):
    # the homogeneous part and every exactly shifted pencil reach ncrank as
    # pencils, so no matrix is read back into a pencil on the rank path
    calls = []
    to_pencil = NcMatrix.to_pencil
    monkeypatch.setattr(NcMatrix, "to_pencil", lambda self: calls.append(self) or to_pencil(self))
    rng = random.Random(1)
    shifts = 0
    for k in range(30):
        size, n_vars = 2 + k % 3, 1 + (k // 3) % 3
        pencil = random_pencil(n_vars, size, seed=rng.randrange(2**31))
        if k % 2 == 0:  # a constant block leaves the homogeneous part nonfull
            pencil = pencil.direct_sum(LinearPencil([[[k - 9]]] + [[[0]]] * n_vars, n_vars))
        report = central_eigs_pencil(pencil, seed=k)
        assert report.diagnostics.get("factors", []) == [], k
        shifts += len(report.diagnostics.get("candidates", []))
    assert calls == []
    assert shifts >= 15


def test_irrational_atoms_behind_a_large_denominator_are_certified():
    # (G / 10^8) (+) x1: P_f is built for scale*P = G and the factor in
    # s = 10^8 t, s^2 - s - 1, so its Wong bases stay as short as for G
    den = 10**8
    c, z = (lambda x: NcPoly.const(Fraction(x, den), 1)), NcPoly.zero(1)
    matrix = NcMatrix([[c(0), c(1), z], [c(1), c(1), z], [z, z, NcPoly.var(1, 1)]])
    report = central_eigs_pencil(matrix.to_pencil(), seed=0)
    assert report.uncertified == []
    assert [(a.rho, a.certified) for a in report.atoms] == [(2, True)] * 2
    root5 = math.sqrt(5)
    assert abs(complex(report.atoms[1].lam) - (1 + root5) / (2 * den)) < 1e-9 / den
    assert report.dimension == Fraction(7, 9)


def _golden_beside(diagonal, times=1) -> NcMatrix:
    """times*[[0, 1], [1, 1]] (+) diag(diagonal), in one letter."""
    one, z = NcPoly.const(times, 1), NcPoly.zero(1)
    n = 2 + len(diagonal)
    rows = [[z] * n for _ in range(n)]
    rows[0][1] = rows[1][0] = rows[1][1] = one
    for k, entry in enumerate(diagonal):
        rows[2 + k][2 + k] = entry
    return NcMatrix(rows)


@pytest.mark.parametrize("exact", [-1, 2, Fraction(1, 10**9)])
def test_golden_roots_beside_an_exact_root_are_certified(exact):
    # g = (t^2 - t - 1)(t - exact): the golden roots are cut into factors of
    # g with the exact root divided out, and -0.618 (or 1.618) may not round
    # onto t + 1 (or t - 2)
    matrix = _golden_beside([NcPoly.const(exact, 1), NcPoly.var(1, 1)])
    report = central_eigs_pencil(matrix.to_pencil(), seed=0)
    assert report.uncertified == []
    assert [(a.rho, a.certified) for a in report.atoms] == [(3, True)] * 3
    assert [a.lam for a in report.atoms if a.exact] == [GaussianRational.coerce(exact)]
    root5 = math.sqrt(5)
    golden = sorted(complex(a.lam).real for a in report.atoms if not a.exact)
    assert np.allclose(golden, [(1 - root5) / 2, (1 + root5) / 2], rtol=0, atol=1e-12)
    assert [f["factor"] for f in report.diagnostics["factors"]] == ["t^2 - t - 1"]
    assert report.dimension == Fraction(13, 16)


@pytest.mark.parametrize(
    "times, letter", [(1, Fraction(1, 10**8)), (1, Fraction(1, 10**9)), (10**9, 1)]
)
def test_golden_roots_at_mixed_scales_are_certified(times, letter):
    # times*G (+) letter*x1: the factor of g in s = scale*t is
    # s^2 - c s - c^2 with c = 10^8 or 10^9, whose constant term exceeds
    # 2^53, so only refined roots round to it; P_f is decided in t for
    # x1/10^8 and x1/10^9, and in t/10^9 for 10^9 G, where the roots have
    # unit size
    x1 = NcPoly.var(1, 1) * NcPoly.const(letter, 1)
    report = central_eigs_pencil(_golden_beside([x1], times).to_pencil(), seed=0)
    assert report.uncertified == []
    assert [(a.rho, a.certified, a.exact) for a in report.atoms] == [(2, True, False)] * 2
    root5 = math.sqrt(5)
    lams = [complex(a.lam).real / times for a in report.atoms]
    assert np.allclose(lams, [(1 - root5) / 2, (1 + root5) / 2], rtol=0, atol=1e-12)
    [factor] = report.diagnostics["factors"]
    assert factor["verdict"] == "nonfull" and factor["irreducible"]
    assert report.dimension == Fraction(7, 9)


def test_golden_roots_beside_a_large_exact_root_at_a_small_scale_are_certified():
    # G/10^8 (+) 10^9 (+) x1: the shifted matrix's entries span 17 orders of
    # magnitude, which only the row balancing of exact input brings into
    # the float range of one substitution reading
    x1 = NcPoly.var(1, 1)
    matrix = _golden_beside([NcPoly.const(10**9, 1), x1], times=Fraction(1, 10**8))
    root5 = math.sqrt(5)
    for seed in range(4):
        report = central_eigs_pencil(matrix.to_pencil(), seed=seed)
        assert report.uncertified == [], seed
        assert [(a.rho, a.certified, a.exact) for a in report.atoms] == [
            (3, True, False), (3, True, False), (3, True, True)
        ], seed
        golden = [complex(a.lam).real * 10**8 for a in report.atoms[:2]]
        assert np.allclose(golden, [(1 - root5) / 2, (1 + root5) / 2], rtol=0, atol=1e-9), seed
        assert report.atoms[2].lam == GaussianRational(10**9), seed
        assert report.dimension == Fraction(13, 16), seed


def _constant_beside_x1(rows) -> NcMatrix:
    """The integer matrix C (+) x1, in one letter."""
    size = len(rows)
    entries = [[NcPoly.const(x, 1) for x in row] + [NcPoly.zero(1)] for row in rows]
    return NcMatrix(entries + [[NcPoly.zero(1)] * size + [NcPoly.var(1, 1)]])


def test_every_eigenvalue_of_a_constant_block_is_a_certified_atom():
    # C (+) x1 has an atom at each eigenvalue mu of C, with rho = N - the
    # geometric multiplicity of mu.  Over Q, the roots of an irreducible
    # factor f of det(t - C) share that multiplicity, so it is
    # dim ker f(C) / deg f.
    import sympy  # the oracle only; ncfield does not depend on it

    rng, t = random.Random(25), sympy.Symbol("t")
    factor_degrees = set()
    for k in range(60):
        size = 2 + k % 3
        rows = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        c = sympy.Matrix(rows)
        want = []
        for f, _ in sympy.Poly(c.charpoly(t).as_expr(), t).factor_list()[1]:
            value = sum((a * c**j for j, a in enumerate(reversed(f.all_coeffs()))), sympy.zeros(size))
            geometric = (size - value.rank()) // f.degree()
            want += [(complex(mu), size + 1 - geometric) for mu in sympy.Poly(f, t).nroots()]
        report = central_eigs_pencil(_constant_beside_x1(rows).to_pencil(), seed=k)
        assert report.uncertified == [], k
        assert len(report.atoms) == len(want), k
        for mu, rho in want:
            [atom] = [a for a in report.atoms if abs(complex(a.lam) - mu) < 1e-9]
            assert (atom.rho, atom.certified) == (rho, True), k
        factor_degrees |= {f["factor"].split()[0] for f in report.diagnostics["factors"]}
    assert {"t^2", "t^3"} <= factor_degrees


def test_a_factor_gets_one_substitution_reading(monkeypatch):
    # both golden roots of G (+) x1 share the one reading of t^2 - t - 1
    spectra = importlib.import_module("ncfield.spectra")
    calls = []
    read = spectra.rank_by_substitution
    monkeypatch.setattr(
        spectra, "rank_by_substitution", lambda matrix, **kw: calls.append(matrix) or read(matrix, **kw)
    )
    report = central_eigs_pencil(_golden_beside([NcPoly.var(1, 1)]).to_pencil(), seed=0)
    assert [(a.rho, a.certified) for a in report.atoms] == [(2, True)] * 2
    assert len(calls) == 1


def test_homogeneous_part_rules_out_atoms_only_when_exactly_full():
    # The 3x3 skew-symmetric pencil, row 0 scaled by 1/p for the prime p of
    # the exact engine: substitution reads the homogeneous part full, but no
    # exact verdict backs it, so candidate 0 is decided on its own, and is
    # left uncertified as well.
    p = 2147483629

    def skew(i, j):
        rows = [[GaussianRational(0)] * 3 for _ in range(3)]
        rows[i][j], rows[j][i] = 1, -1
        rows[0] = [x * Fraction(1, p) for x in rows[0]]
        return rows

    pencil = LinearPencil([[[0] * 3] * 3, skew(0, 1), skew(0, 2), skew(1, 2)], 3)
    report = central_eigs_pencil(pencil, seed=0)
    assert report.diagnostics["homogeneous_rho"] == 3
    assert report.atoms == [] and report.dimension is None
    assert report.uncertified == [{"lambda": [0.0, 0.0], "reason": "exact engine inconclusive"}]
    with pytest.raises(Inconclusive):
        entropy_dimension(pencil.to_matrix(), seed=0)


def test_numeric_roots_are_cut_into_the_factors_they_are_roots_of():
    # h = (s^2 - 4s - 3)(s^2 - s - 1), roots -0.646, -0.618, 1.618, 4.646:
    # the first pair tried, {-0.646, 1.618}, has the product
    # s^2 - 0.972 s - 1.045, whose rounding s^2 - s - 1 divides h
    spectra = importlib.import_module("ncfield.spectra")
    h = [(1, 0), (-5, 0), (0, 0), (7, 0), (3, 0)]
    roots = sorted(np.roots([1, -5, 0, 7, 3]), key=lambda z: (z.real, z.imag))
    factors, left = spectra._exact_factors(h, 1, roots)
    assert left == []
    for f, members in factors:
        coeffs = [complex(*c) for c in f]
        assert len(members) == 2
        assert all(abs(np.polyval(coeffs, mu)) < 1e-9 for mu in members)
    assert sorted(f for f, _ in factors) == [[(1, 0), (-4, 0), (-3, 0)], [(1, 0), (-1, 0), (-1, 0)]]


def test_companion_verdict_against_substitution_is_a_disagreement(monkeypatch):
    # substitution made to read full at its one reading for t^2 - t - 1,
    # where P_f is nonfull
    spectra = importlib.import_module("ncfield.spectra")
    full = lambda matrix, **kwargs: RankResult(matrix.rows, matrix.rows, matrix.cols, "substitution")  # noqa: E731
    monkeypatch.setattr(spectra, "rank_by_substitution", full)
    z, one, x1 = NcPoly.zero(1), NcPoly.const(1, 1), NcPoly.var(1, 1)
    matrix = NcMatrix([[z, one, z], [one, one, z], [z, z, x1]])
    with pytest.raises(MethodDisagreement, match="t\\^2 - t - 1"):
        central_eigs_pencil(matrix.to_pencil(), seed=0)


def test_exact_shift_needs_an_exact_verdict(monkeypatch):
    # substitution alone reads rho 1 at the exact candidate 0; with the exact
    # engine inconclusive there, the atom is not certified
    def undecided(pencil, seed=0):
        raise Inconclusive("no exact certificate of fullness or nonfullness")

    monkeypatch.setattr(importlib.import_module("ncfield.ncrank"), "fullness_scaling", undecided)
    report = central_eigs_pencil(_diag_x1_zero().to_pencil(), seed=0)
    assert report.atoms == [] and report.dimension is None
    assert report.uncertified == [{"lambda": [0.0, 0.0], "reason": "exact engine inconclusive"}]
    with pytest.raises(Inconclusive, match="exact engine inconclusive"):
        atom_masses(_diag_x1_zero(), [0], seed=0)


def test_factor_not_proven_irreducible_leaves_its_roots_uncertified():
    # C (+) x1 with det(t - C) = t^4 - 10 t^2 + 1, whose roots +-sqrt 2 +- sqrt 3
    # each lower rho by one.  The factor is irreducible over Q(i) but splits
    # modulo every prime, so no prime proves it, and a nonfull P_f alone
    # cannot say which roots are atoms.
    c, z = (lambda x: NcPoly.const(x, 1)), NcPoly.zero(1)
    matrix = NcMatrix([
        [c(0), c(0), c(0), c(-1), z],
        [c(1), c(0), c(0), c(0), z],
        [c(0), c(1), c(0), c(10), z],
        [c(0), c(0), c(1), c(0), z],
        [z, z, z, z, NcPoly.var(1, 1)],
    ])
    report = central_eigs_pencil(matrix.to_pencil(), seed=0)
    assert report.atoms == [] and report.dimension is None
    assert [u["reason"] for u in report.uncertified] == ["factor not proven irreducible"] * 4
    [factor] = report.diagnostics["factors"]
    assert (factor["factor"], factor["rho"], factor["verdict"], factor["irreducible"]) == (
        "t^4 - 10*t^2 + 1", 4, "nonfull", False
    )
    with pytest.raises(Inconclusive):
        entropy_dimension(matrix, seed=0)


def test_jordan_constant_gives_one_atom():
    # A0 is a Jordan block at -1, whose float eigenvalues split; g = t + 1
    # has the root once, so -1 is certified once.
    g = GaussianRational
    pencil = LinearPencil(
        [
            [[g(-2), g(1)], [g(-1), g(0)]],
            [[g(0), g(-2)], [g(0), g(-2)]],
            [[g(2), g(0)], [g(2), g(0)]],
        ],
        2,
    )
    report = central_eigs_pencil(pencil, seed=1)
    assert [(a.lam, a.rho, a.mass) for a in report.atoms] == [(g(-1), 1, Fraction(1, 2))]
    assert report.uncertified == []
    assert report.dimension == Fraction(3, 4)
    assert report.diagnostics["candidate_polynomial"] == "t + 1"


def _hidden_golden() -> NcMatrix:
    """H2 = S G S^-1 with G = [[x1x2 + x2x1, 0, 0], [0, 0, 1], [0, 1, 1]]."""
    x1, x2 = NcPoly.var(1, 2), NcPoly.var(2, 2)
    z, one = NcPoly.zero(2), NcPoly.one(2)
    inner = NcMatrix([[x1 * x2 + x2 * x1, z, z], [z, z, one], [z, one, one]])
    s = NcMatrix.from_scalars([[1, 0, 1], [0, 1, 1], [0, 0, 1]], 2)
    s_inv = NcMatrix.from_scalars([[1, 0, -1], [0, 1, -1], [0, 0, 1]], 2)
    return s @ inner @ s_inv


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hidden_golden_atoms_are_found(seed):
    # det(t - H2(a)) = (t - 2 a1 a2)(t^2 - t - 1) at every scalar point a.
    matrix = _hidden_golden()
    report = central_eigs_polymatrix(matrix, seed=seed)
    assert report.uncertified == []
    root5 = math.sqrt(5)
    lams = [complex(a.lam) for a in report.atoms]
    assert len(lams) == 2
    assert abs(lams[0] - (1 - root5) / 2) < 1e-9
    assert abs(lams[1] - (1 + root5) / 2) < 1e-9
    assert [(a.rho, a.mass) for a in report.atoms] == [(2, Fraction(1, 3))] * 2
    assert report.dimension == Fraction(7, 9)
    assert entropy_dimension(matrix, seed=seed) == Fraction(7, 9)
    assert report.diagnostics["candidate_polynomial"] == "t^2 - t - 1"


def test_full_homogeneous_part_rules_out_atoms():
    # [[0, x1, x2], [-x1, 0, x3], [-x2, -x3, 0]] + 2: det(t - P(a)) =
    # (t - 2)((t - 2)^2 + a1^2 + a2^2 + a3^2), so g = t - 2, but the
    # skew-symmetric homogeneous part is full and rules the root out.
    g = GaussianRational
    zero = [[g(0)] * 3 for _ in range(3)]
    coeffs = [[[g(2) if i == j else g(0) for j in range(3)] for i in range(3)]]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a = [row[:] for row in zero]
        a[i][j], a[j][i] = g(1), g(-1)
        coeffs.append(a)
    report = central_eigs_pencil(LinearPencil(coeffs, 3), seed=13)
    assert report.diagnostics["candidate_polynomial"] == "t - 2"
    assert report.diagnostics["homogeneous_rho"] == 3
    assert report.atoms == [] and report.uncertified == []
    assert report.dimension == Fraction(1)


def test_candidate_polynomial_one_settles_a_pencil_with_no_rank_call(monkeypatch):
    spectra = importlib.import_module("ncfield.spectra")

    def refused(*args, **kwargs):
        raise AssertionError("g = 1 needs no rank call")

    monkeypatch.setattr(spectra, "ncrank", refused)
    report = central_eigs_pencil(random_pencil(2, 3, seed=11, homogeneous=False), seed=13)
    assert report.diagnostics["candidate_polynomial"] == "1"
    assert "homogeneous_rho" not in report.diagnostics
    assert report.atoms == [] and report.uncertified == []
    assert report.dimension == Fraction(1)


def _reference_candidate_polynomial(matrix: NcMatrix, seed: int, drawn: list):
    """g as four values, from principal submatrices evaluated in exact rationals.

    Every scalar point evaluated is appended to ``drawn``, in order.
    """
    scale = math.lcm(*(x.denominator for _, _, _, c in matrix.terms() for x in (c.re, c.im)))
    slots = 2 * matrix.n_vars + 1

    def value(sub, point):
        drawn.append(list(point))
        out = []
        for row in sub.entries:
            out.append([])
            for p in row:
                total = GaussianRational(0)
                for word, c in p.terms():
                    for letter in word:
                        c = c * GaussianRational(*point[letter_slot(letter, matrix.n_vars)])
                    total = total + c * scale
                assert total.re.denominator == total.im.denominator == 1
                out[-1].append((total.re.numerator, total.im.numerator))
        return out

    g, points, blocks = [(1, 0)], 0, []
    for rows in matrix.diagonal_blocks():
        sub = matrix.principal(rows)
        blocks.append({"rows": list(rows), "constant": sub.degree <= 0})
        factor = charpoly_zi(value(sub, [(0, 0)] * slots))
        if sub.degree > 0:
            rng = random.Random(seed)
            points += 1
            for _ in range(CANDIDATE_POINTS - 1):
                if len(factor) == 1:
                    break
                point = [(rng.randint(-POINT_BOUND, POINT_BOUND),
                          rng.randint(-POINT_BOUND, POINT_BOUND))
                         for _ in range(slots)]
                factor = gcd_zi(factor, charpoly_zi(value(sub, point)))
                points += 1
        g = mul_zi(g, squarefree_zi(factor))
    return squarefree_zi(g), scale, points, blocks


def test_candidate_polynomial_reads_a_pencil_as_its_matrix(monkeypatch):
    # g from the pencil's cells is g from its matrix, and both are g from
    # the principal submatrices evaluated exactly: the same draws, the same
    # scale, points and blocks
    spectra = importlib.import_module("ncfield.spectra")
    drawn: list = []
    scaled_value = spectra._scaled_value
    monkeypatch.setattr(spectra, "_scaled_value",
                        lambda terms, size, point: drawn.append(list(point))
                        or scaled_value(terms, size, point))

    def same_as_reference(source, matrix, seed):
        want, points = _reference_candidate_polynomial(matrix, seed, drawn), list(drawn)
        drawn.clear()
        assert _candidate_polynomial(source, seed) == want
        assert drawn == points
        drawn.clear()
        return want

    g = GaussianRational
    shrink = g(Fraction(1, 6), Fraction(1, 4))
    corner = LinearPencil([[[3, 1], [1, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]], 2)
    empty = LinearPencil([[[0]], [[0]], [[0]]], 2)
    cases = []
    for seed in range(4):
        real = random_pencil(2, 4, seed=seed)
        gauss = random_pencil(2, 3, seed=seed, complex_coeffs=True)
        fractional = LinearPencil.from_cells(
            {key: c * shrink for key, c in gauss.cells.items()}, 3, 3, 2)
        other = random_pencil(2, 3, seed=seed + 50, complex_coeffs=True)
        starred = LinearPencil.from_cells(
            {**real.widen_alphabet().cells, **random_pencil(2, 4, seed=seed + 9).adjoint().cells},
            4, 4, 2, star_letters=True)
        cases += [real, gauss, fractional, fractional.shift(g(0, Fraction(1, 7))), starred,
                  real.direct_sum(corner), gauss.direct_sum(empty).direct_sum(other)]
    nontrivial = split = 0
    for k, pencil in enumerate(cases):
        want = same_as_reference(pencil, pencil.to_matrix(), k)
        assert same_as_reference(pencil.to_matrix(), pencil.to_matrix(), k) == want
        nontrivial += len(want[0]) > 1
        split += len(want[3]) > 1
    assert nontrivial >= 8 and split >= 8
    # polynomial matrices: products of degree 2 and 3, one beside a constant block
    for seed in range(6):
        left = random_poly_matrix(2, 3, 2, degree=1 + seed % 2, seed=seed, complex_coeffs=True)
        right = random_poly_matrix(2, 2, 3, degree=1, seed=seed + 20)
        product = (left * right) * shrink
        if seed % 3 == 0:
            product = product.direct_sum(corner.to_matrix())
        same_as_reference(product, product, seed)


def test_candidate_polynomial_is_bounded_work_on_a_singular_coefficient():
    # One variable, size 16, Gaussian-integer coefficients, a zero row in
    # A1: the homogeneous part is not full, and g = 1 needs two
    # characteristic polynomials of size 16 and their gcd, whose primitive
    # remainder sequence took about a minute.
    pencil = random_pencil(1, 16, seed=0, homogeneous=False, complex_coeffs=True)
    a1 = [list(row) for row in pencil.coeffs[1]]
    a1[0] = [GaussianRational(0)] * 16
    pencil = LinearPencil([pencil.coeffs[0], a1], 1)
    start = time.process_time()
    report = central_eigs_pencil(pencil, seed=0)
    assert time.process_time() - start < 10.0
    assert report.diagnostics["candidate_polynomial"] == "1"
    assert report.atoms == [] and report.dimension == Fraction(1)


def _pencil_with_planted_atom(seed: int, c: int) -> LinearPencil:
    """Affine 3x3 pencil with a constant diagonal corner, hence an atom at c."""
    g = GaussianRational
    base = random_pencil(2, 2, seed=seed, homogeneous=False)
    corner = LinearPencil([[[g(c)]], [[g(0)]], [[g(0)]]], 2)
    return base.direct_sum(corner)


def test_spectrum_confined_to_constant_coefficient_eigenvalues():
    checked = 0
    for k in range(8):
        pencil = _pencil_with_planted_atom(600 + k, c=k - 3)
        report = central_eigs_pencil(pencil, seed=k)
        if not report.atoms:
            continue
        a0 = np.array(
            [[complex(x) for x in row] for row in pencil.coeffs[0]], dtype=complex
        )
        eigs = np.linalg.eigvals(a0)
        scale = max(1.0, float(np.linalg.norm(a0)))
        for atom in report.atoms:
            gap = min(abs(complex(atom.lam) - w) for w in eigs)
            assert gap <= 1e-6 * scale
        assert any(abs(complex(a.lam) - (k - 3)) < 1e-9 for a in report.atoms)
        checked += 1
    assert checked >= 4


def test_atom_count_and_mass_invariants_on_random_pencils():
    for seed in range(20):
        pencil = random_pencil(2, 2, seed=700 + seed, homogeneous=False)
        report = central_eigs_pencil(pencil, seed=seed)
        assert len(report.atoms) <= pencil.rows
        assert sum(a.mass for a in report.atoms) <= 1
        for atom in report.atoms:
            assert 0 < atom.mass <= 1
            assert 0 <= atom.rho < pencil.rows


def test_esd_mass_matches_exact_atom():
    matrix = _diag_x1_zero()
    model = sample("gue", 500, 1, seed=21)
    dist = esd(matrix, model)
    assert dist.hermitian
    assert len(dist.eigenvalues) == 1000
    assert abs(dist.mass_near(0.0, 1e-8) - 0.5) <= 0.02


def test_polymatrix_detection_finds_certified_atom():
    n_vars = 1
    two = NcPoly.const(2, n_vars)
    zero = NcPoly.zero(n_vars)
    matrix = NcMatrix([[NcPoly.var(1, n_vars), zero], [zero, two]])
    report = central_eigs_polymatrix(matrix, d=400, seed=23)
    assert report.source == "candidate-polynomial"
    assert report.uncertified == []
    assert [(a.lam, a.rho, a.mass) for a in report.atoms] == [
        (GaussianRational(2), 1, Fraction(1, 2))
    ]
    assert report.atoms[0].exact
    assert report.diagnostics["candidate_polynomial"] == "t - 2"
    assert report.dimension == Fraction(3, 4)


def test_polymatrix_detection_without_certification_lists_candidates():
    report = central_eigs_polymatrix(_diag_x1_zero(), d=300, seed=29, certify=False)
    assert report.atoms == []
    assert report.dimension is None
    assert any(
        abs(complex(c["lambda"][0], c["lambda"][1])) < 0.05
        for c in report.uncertified
    )


def test_polymatrix_normality_warning_only_off_normal():
    x1, x2 = NcPoly.var(1, 2), NcPoly.var(2, 2)
    one, zero = NcPoly.const(1, 2), NcPoly.zero(2)
    jordan = NcMatrix([[x1, one], [zero, x1]])
    with pytest.warns(UserWarning, match="far from normal"):
        report = central_eigs_polymatrix(jordan, d=40, seed=3, certify=False)
    assert report.diagnostics["hermitian"] is False
    hermitian = NcMatrix([[x1, one], [one, x2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = central_eigs_polymatrix(hermitian, d=40, seed=3, certify=False)
    assert report.diagnostics["hermitian"] is True


def _block_diag(blocks, n_vars=2):
    """The direct sum of square blocks (lists of rows of NcPoly)."""
    size = sum(len(b) for b in blocks)
    rows = [[NcPoly.zero(n_vars)] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(b)] = row
        at += len(b)
    return NcMatrix(rows, n_vars)


def _hidden_blocks(seed: int, family: str) -> NcMatrix:
    """Zero, constant and polynomial blocks under a simultaneous permutation.

    Family "hermitian" is Hermitian at GUE points, "normal" is i times such a
    matrix (normal, not Hermitian), and "general" is neither.
    """
    rng = random.Random(seed)
    g = GaussianRational

    def scalar():
        return g(rng.randint(-3, 3), rng.randint(-2, 2))

    def poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            word = tuple(Letter(rng.randint(1, 2)) for _ in range(rng.randint(1, 2)))
            terms[word] = scalar()
        return NcPoly(terms, 2) + NcPoly.const(scalar(), 2)

    def square(k, entry):
        if family == "general":
            return [[entry() for _ in range(k)] for _ in range(k)]
        rows = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                e = entry()
                rows[i][j] = e + e.adjoint() if i == j else e
                rows[j][i] = rows[i][j].adjoint()
        return rows

    def constant(k):
        while True:
            c = square(k, lambda: NcPoly.const(scalar(), 2))
            eigs = np.linalg.eigvals(
                np.array([[complex(p.constant_term()) for p in row] for row in c])
            )
            # distinct eigenvalues keep C (x) I_d well conditioned
            if k == 1 or min(abs(a - b) for a, b in itertools.combinations(eigs, 2)) > 0.5:
                return c

    kinds = ["zero", "constant", "poly", rng.choice(["constant", "poly"])]
    blocks = []
    for kind in kinds:
        k = rng.randint(1, 2)
        if kind == "zero":
            blocks.append([[NcPoly.zero(2)]])
        elif kind == "constant":
            blocks.append(constant(k))
        else:
            blocks.append(square(k, poly))
    m = _block_diag(blocks)
    if family == "normal":
        m = m * GaussianRational(0, 1)
    perm = list(range(m.rows))
    rng.shuffle(perm)
    return NcMatrix([[m[i, j] for j in perm] for i in perm], 2)


@pytest.mark.parametrize("family", ["hermitian", "normal", "general"])
def test_blockwise_spectrum_matches_the_whole_evaluated_matrix(family):
    from scipy.optimize import linear_sum_assignment

    d = 4
    constant_blocks = 0
    for seed in range(12):
        matrix = _hidden_blocks(seed, family)
        model = sample("gue", d, 2, seed)
        value = matrix.evaluate(model)
        scale = np.linalg.norm(value)
        herm = bool(np.linalg.norm(value - value.conj().T) <= 1e-10 * scale)
        normal_gap = np.linalg.norm(value @ value.conj().T - value.conj().T @ value)
        warn = not herm and normal_gap > 1e-8 * scale * scale
        assert (herm, warn) == (family == "hermitian", family == "general"), seed

        spectrum = esd(matrix, model)
        assert spectrum.hermitian == herm
        assert sorted(i for rows, _ in spectrum.blocks for i in rows) == list(range(matrix.rows))
        constant_blocks += sum(constant for _, constant in spectrum.blocks)
        got = spectrum.eigenvalues.real if herm else spectrum.eigenvalues
        tol = 1e-9 * max(1.0, float(np.abs(got).max()))
        if herm:
            want = np.linalg.eigvalsh((value + value.conj().T) / 2)
            assert np.all(np.diff(got) >= 0)
            assert np.abs(got - want).max() <= tol, seed
        else:
            want = np.linalg.eigvals(value)
            cost = np.abs(got[:, None] - want[None, :])
            r, c = linear_sum_assignment(cost)
            assert cost[r, c].max() <= tol, seed

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = central_eigs_polymatrix(matrix, d=d, seed=seed, certify=False)
        assert report.diagnostics["hermitian"] == herm
        assert any("far from normal" in str(w.message) for w in caught) == warn
    assert constant_blocks >= 24


def test_planted_blocks_are_solved_at_their_own_size(monkeypatch):
    x1, x2 = NcPoly.var(1, 2), NcPoly.var(2, 2)
    half, minus = NcPoly.const(Fraction(1, 2), 2), NcPoly.const(Fraction(-3, 2), 2)
    matrix = NcMatrix.diag([x1 * x2 + x2 * x1, half, minus])
    seen = []
    for name in ("eigvalsh", "eigvals"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, _f=solver: seen.append(np.shape(a)) or _f(a)
        )
    central_eigs_polymatrix(matrix, d=200, seed=5, certify=False)
    assert seen[:3] == [(200, 200), (1, 1), (1, 1)]
    assert max(max(shape) for shape in seen) <= 200
    seen.clear()
    # the certified call reads its candidates off g, with no spectral sample
    report = central_eigs_polymatrix(matrix, d=200, seed=5)
    assert seen == []
    assert {(a.lam, a.mass) for a in report.atoms} == {
        (GaussianRational(Fraction(1, 2)), Fraction(1, 3)),
        (GaussianRational(Fraction(-3, 2)), Fraction(1, 3)),
    }
    assert report.diagnostics["blocks"] == [
        {"rows": [0], "constant": False},
        {"rows": [1], "constant": True},
        {"rows": [2], "constant": True},
    ]


def test_report_does_not_depend_on_block_order():
    x1, x2 = NcPoly.var(1, 2), NcPoly.var(2, 2)
    g = GaussianRational

    def c(x):
        return NcPoly.const(x, 2)

    disk = [[x1 + x2 * g(0, 1)]]  # circular law around 0, no atoms
    rotation = [[c(-4), c(1)], [c(-1), c(-4)]]  # atoms at -4 +- i
    four = [[c(4)]]
    reports = []
    for order in ([disk, rotation, four], [four, disk, rotation], [rotation, four, disk]):
        with pytest.warns(UserWarning, match="far from normal"):
            central_eigs_polymatrix(_block_diag(order), d=60, seed=7, certify=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = central_eigs_polymatrix(_block_diag(order), d=60, seed=7)
        reports.append(report.to_dict())
        del reports[-1]["diagnostics"]["blocks"]
    assert reports[0] == reports[1] == reports[2]
    assert sorted(a["lambda"] for a in reports[0]["atoms"]) == ["-4+1i", "-4-1i", "4"]


def test_atom_masses_exact_points():
    masses = atom_masses(_diag_x1_zero(), [0, 1], seed=31)
    assert masses == [Fraction(1, 2), Fraction(0)]


def test_atom_masses_rejects_numeric_points():
    with pytest.raises(InputError):
        atom_masses(_diag_x1_zero(), [0.25 + 0.1j], seed=33)


def test_spectrum_requires_square_and_accepts_doubled_letters():
    zero = NcPoly.zero(1)
    rect = NcMatrix([[NcPoly.var(1, 1), zero]])
    with pytest.raises(NonSquareError):
        central_eigs_pencil(rect.to_pencil())
    g = GaussianRational
    # x1 + x1*, a full pencil in the plain letters x1, x2
    star = LinearPencil(
        [
            [[g(0)]],
            [[g(1)]],
            [[g(1)]],
        ],
        1,
        star_letters=True,
    )
    report = central_eigs_pencil(star)
    assert report.atoms == []
    assert report.dimension == 1


def test_report_serialization_keeps_exact_masses():
    report = central_eigs_pencil(_diag_x1_zero().to_pencil(), seed=0)
    data = report.to_dict()
    assert data["atoms"][0]["mass"] == "1/2"
    assert data["atoms"][0]["mass_float"] == 0.5
    assert data["entropy_dimension"] == "3/4"
    assert data["entropy_dimension_float"] == 0.75

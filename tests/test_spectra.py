"""Central eigenvalues, atom masses, and the entropy dimension."""

from __future__ import annotations

import importlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ncfield import (
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
from ncfield.errors import InputError, NonSquareError
from ncfield.scalars import GaussianRational
from ncfield.spectra import flatness_constants


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
    # [[x1, 0], [0, 0]] + diag(0, 1): candidate 0 is full, candidate 1 an atom.
    spectra = importlib.import_module("ncfield.spectra")
    results = []

    def counted(*args, **kwargs):
        results.append(ncrank(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(spectra, "ncrank", counted)
    z, one, x1 = NcPoly.zero(1), NcPoly.const(1, 1), NcPoly.var(1, 1)
    report = central_eigs_pencil(NcMatrix([[x1, z], [z, one]]).to_pencil(), seed=0)
    assert [complex(a.lam) for a in report.atoms] == [1 + 0j]
    # the homogeneous part and candidate 1 have rho 1; only candidate 0 is full
    assert sorted(r.rho for r in results) == [1, 1, 2]


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


def test_full_homogeneous_part_rules_out_atoms():
    pencil = random_pencil(2, 3, seed=11, homogeneous=False)
    hom = pencil.homogeneous_part()
    from ncfield import ncrank

    if ncrank(hom.to_matrix(), seed=12).rho < 3:
        pytest.skip("random draw was not full; the seed should avoid this")
    report = central_eigs_pencil(pencil, seed=13)
    assert report.atoms == []
    assert report.dimension == Fraction(1)
    assert report.diagnostics["homogeneous_rho"] == 3


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
    assert report.source == "numeric-detection"
    assert report.uncertified == []
    assert len(report.atoms) == 1
    atom = report.atoms[0]
    assert atom.exact
    assert complex(atom.lam) == 2 + 0j
    assert atom.mass == Fraction(1, 2)


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


def test_flatness_constants_spanning_coefficients():
    # with I, E12 and E21 the images of any unit vector span, so the
    # quantum operator stays bounded below on the rank one probes
    g = GaussianRational
    zero2 = [[g(0), g(0)], [g(0), g(0)]]
    pencil = LinearPencil(
        [
            zero2,
            [[g(1), g(0)], [g(0), g(1)]],
            [[g(0), g(1)], [g(0), g(0)]],
            [[g(0), g(0)], [g(1), g(0)]],
        ],
        3,
    )
    out = flatness_constants(pencil)
    assert out["flat"]
    assert abs(out["c1"] - 0.5) < 1e-12
    assert abs(out["c2"] - 1.5) < 1e-12


def test_flatness_constants_detect_a_pinched_direction():
    pencil = _diag_x1_zero().to_pencil()
    out = flatness_constants(pencil)
    assert not out["flat"]
    assert out["c1"] <= 1e-12

"""Random matrix models, numeric rank reports, and spectral statistics."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from ncfield import (
    NcMatrix,
    NcPoly,
    atiyah_integrality_scan,
    custom_model,
    empirical_rank,
    esd,
    ks_to_semicircle,
    rank_convergence,
    sample,
)
from ncfield.errors import InputError
from ncfield.randmat import semicircle_cdf


def _diag_x1_zero() -> NcMatrix:
    n_vars = 1
    return NcMatrix(
        [
            [NcPoly.var(1, n_vars), NcPoly.zero(n_vars)],
            [NcPoly.zero(n_vars), NcPoly.zero(n_vars)],
        ]
    )


def test_sampling_is_deterministic_in_the_seed():
    a = sample("gue", 40, 3, seed=5)
    b = sample("gue", 40, 3, seed=5)
    c = sample("gue", 40, 3, seed=6)
    for x, y in zip(a.matrices, b.matrices):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a.matrices, c.matrices))


def _sample_letter_by_letter(kind: str, d: int, n_vars: int, seed: int):
    """The models drawn one letter at a time: two (d, d) normals each, QR per letter."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(n_vars):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if kind == "gue":
            mats.append((g + g.conj().T) / (2.0 * math.sqrt(d)))
        elif kind == "ginibre":
            mats.append(g / math.sqrt(2.0 * d))
        else:
            q, r = np.linalg.qr(g)
            diag = np.diagonal(r)
            mats.append(q * (diag / np.abs(diag)))
    return mats


@pytest.mark.parametrize("kind", ["gue", "ginibre", "haar"])
def test_sample_keeps_the_letter_by_letter_stream(kind):
    for d, n_vars, seed in [(1, 2, 0), (1, 1, 9), (3, 0, 4), (5, 3, 7), (40, 2, 11), (17, 1, 2**31 - 1)]:
        model = sample(kind, d, n_vars, seed)
        want = _sample_letter_by_letter(kind, d, n_vars, seed)
        assert (model.d, model.n_vars) == (d, n_vars)
        assert all(np.array_equal(a, b) for a, b in zip(model.matrices, want)), (d, n_vars, seed)


def test_gue_sample_is_hermitian_with_semicircle_spread():
    model = sample("gue", 300, 2, seed=9)
    for m in model.matrices:
        assert np.linalg.norm(m - m.conj().T) == 0.0
        eigs = np.linalg.eigvalsh(m)
        assert eigs[0] > -2.5 and eigs[-1] < 2.5


def test_haar_sample_is_unitary():
    model = sample("haar", 120, 2, seed=11)
    eye = np.eye(120)
    for u in model.matrices:
        assert np.linalg.norm(u @ u.conj().T - eye) < 1e-12 * 120


def test_ginibre_sample_scale():
    model = sample("ginibre", 250, 1, seed=13)
    g = model.matrices[0]
    assert np.linalg.norm(g - g.conj().T) > 1e-3
    assert np.linalg.norm(g, 2) < 3.0


def test_sample_rejects_bad_arguments():
    with pytest.raises(InputError):
        sample("wishart", 10, 1, seed=0)
    with pytest.raises(InputError):
        sample("gue", 0, 1, seed=0)


def test_custom_model_shares_shapes():
    mats = [np.eye(3), np.ones((3, 3))]
    model = custom_model(mats)
    assert model.kind == "custom"
    assert model.d == 3 and model.n_vars == 2
    with pytest.raises(InputError):
        custom_model([np.eye(3), np.eye(4)])
    with pytest.raises(InputError):
        custom_model([])


def test_letter_values_respect_the_star():
    from ncfield.ncpoly import Letter

    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    model = custom_model([m])
    assert np.array_equal(model.letter_value(Letter(1, False)), m)
    assert np.array_equal(model.letter_value(Letter(1, True)), m.conj().T)


def test_empirical_rank_on_planted_rank():
    rng = np.random.default_rng(17)
    for k in (1, 3, 7):
        left = rng.standard_normal((30, k)) + 1j * rng.standard_normal((30, k))
        right = rng.standard_normal((k, 30)) + 1j * rng.standard_normal((k, 30))
        report = empirical_rank(left @ right)
        assert report.rank == k
        assert report.clean
        assert report.rank + report.kernel_dim == 30


def test_empirical_rank_zero_and_identity():
    zero = empirical_rank(np.zeros((5, 5)))
    assert zero.rank == 0 and zero.clean and zero.kernel_dim == 5
    full = empirical_rank(np.eye(5))
    assert full.rank == 5 and full.clean and full.gap == math.inf


def test_rank_invariant_under_well_conditioned_factors():
    rng = np.random.default_rng(19)
    base = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 20))
    want = empirical_rank(base).rank
    for _ in range(10):
        g = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        q, _ = np.linalg.qr(g)
        scales = rng.uniform(0.5, 2.0, size=20)
        factor = q * scales
        assert empirical_rank(factor @ base).rank == want


def test_rank_threshold_formula():
    # the threshold is 1e-11 * tol_factor * size * sigma_max, size the larger
    # side, so a singular value between the thresholds at tol_factor 1 and 10
    # is kept at 1 and dropped at 10, each time with a clean gap
    m = np.zeros((40, 50))
    m[0, 0], m[1, 1] = 3.0, 5e-9
    for tol_factor, rank in ((1.0, 2), (10.0, 1)):
        report = empirical_rank(m, tol_factor)
        assert report.threshold == 1e-11 * tol_factor * 50 * report.sigma_max
        assert (report.rank, report.clean) == (rank, True), tol_factor
    assert empirical_rank(m) == empirical_rank(m, 1.0)


def test_semicircle_cdf_anchors():
    assert semicircle_cdf(-2.0) == 0.0
    assert semicircle_cdf(2.0) == 1.0
    assert abs(semicircle_cdf(0.0) - 0.5) < 1e-15


def test_gue_spectrum_close_to_semicircle():
    model = sample("gue", 1000, 1, seed=23)
    eigs = np.linalg.eigvalsh(model.matrices[0])
    assert ks_to_semicircle(eigs) < 0.05


def test_esd_is_deterministic_and_counts_mass():
    matrix = _diag_x1_zero()
    one = esd(matrix, sample("gue", 200, 1, seed=29))
    two = esd(matrix, sample("gue", 200, 1, seed=29))
    assert np.array_equal(one.eigenvalues, two.eigenvalues)
    assert one.hermitian and one.d == 200 and one.block_size == 2
    assert abs(one.mass_near(0.0, 1e-10) - 0.5) < 0.02
    assert one.mass_near(0.0, 100.0) == 1.0


def test_esd_histogram_and_csv_round_trip(tmp_path):
    matrix = NcMatrix([[NcPoly.var(1, 1)]])
    dist = esd(matrix, sample("gue", 150, 1, seed=31))
    hist = dist.histogram(bins=20)
    assert hist["bins"] == 20
    assert len(hist["edges"]) == 21
    assert len(hist["density"]) == 20
    path = tmp_path / "spectrum.csv"
    dist.write_csv(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["re", "im"]
    assert len(rows) == 151
    back = np.array([float(r[0]) + 1j * float(r[1]) for r in rows[1:]])
    assert np.allclose(back, dist.eigenvalues)


def test_esd_histogram_refuses_complex_spectra():
    matrix = NcMatrix([[NcPoly.var(1, 1)]])
    dist = esd(matrix, sample("ginibre", 100, 1, seed=33))
    assert not dist.hermitian
    with pytest.raises(InputError):
        dist.histogram()


def test_rank_convergence_ladder_normalizes():
    rows = rank_convergence(_diag_x1_zero(), dims=[30, 60], seed=35)
    assert [r["d"] for r in rows] == [30, 60]
    for r in rows:
        assert r["rank"] == r["d"]
        assert r["rank_over_d"] == 1.0


def test_integrality_scan_on_exact_rank_matrices():
    mats = [_diag_x1_zero(), NcMatrix([[NcPoly.var(1, 1)]])]
    out = atiyah_integrality_scan(mats, d=200, seed=37)
    assert not out["any_flagged"]
    assert [r["nearest_int"] for r in out["rows"]] == [1, 1]
    assert all(r["distance"] == 0.0 for r in out["rows"])
    assert all(not r["flagged"] for r in out["rows"])

"""Rank engines: exact fullness certificates, substitution, reductions."""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    conjugated_hollow_matrix,
    exact_rref,
    hollow_matrix,
    invertible_scalar_matrix,
    random_linear_entry,
)

from ncfield import (
    FullnessCertificate,
    LinearPencil,
    NcMatrix,
    NcPoly,
    central_eigs_pencil,
    central_eigs_polymatrix,
    empirical_rank,
    eval_and_check,
    fullness_scaling,
    homogenize,
    linearize_matrix,
    ncrank,
    parse,
    poly_from_string,
    random_pencil,
    random_poly_matrix,
    rank_by_substitution,
    realize,
    sample,
    verify_certificate,
    verify_nonfull_witness,
)
from ncfield.ncpoly import Letter, _zero_block
from ncfield.errors import Inconclusive, InputError, NoConsensus, NonSquareError
from ncfield.ncrank import (
    _basis_integers,
    _blowup_draws,
    _blowup_mod_p,
    _confirm_full_exact,
    _coordinate_basis,
    _exact_hollow_block,
    _holds_exactly,
    _integer_parts,
    _point_mod_p,
    _residue_forms,
)
from ncfield.scalars import _IOTA, _P, GaussianRational, residues_mod_p

# the package exports the function ncrank under the module's name
ncrank_module = importlib.import_module("ncfield.ncrank")


def _pencil(coeff_lists, n_vars):
    return LinearPencil(coeff_lists, n_vars)


def _homogeneous(coeffs):
    """The homogeneous plain pencil with letter coefficients A1..Am = coeffs."""
    n = len(coeffs[0])
    return LinearPencil([[[0] * n] * n, *coeffs], len(coeffs))


def _hollow_block(coeffs, seed, transpose=False):
    """_exact_hollow_block on the residue and Gaussian-integer forms of coeffs."""
    ints = _integer_parts(_homogeneous(coeffs))
    return _exact_hollow_block(_residue_forms(ints), ints, seed, transpose)


def _holds(coeffs, u, v):
    return _holds_exactly(_integer_parts(_homogeneous(coeffs)), u, v)


def _pattern(m):
    """The nonzero pattern of a square matrix, as ``_zero_block`` reads it."""
    return [[not m[i, j].is_zero() for j in range(m.cols)] for i in range(m.rows)]


def _residues(pencil):
    """D A1..D Am of a plain pencil mod p at i = iota, D the lcm of the denominators."""
    return _residue_forms(_integer_parts(pencil.homogeneous_part()))[0]


def test_the_engines_never_build_the_dense_view(monkeypatch):
    # every engine reads a pencil's nonzero cells; the dense ``coeffs`` view
    # is only for pencil files and for callers that want the matrices
    cubic = NcMatrix([[poly_from_string("1 + x1*x2*x1")]])
    starred = random_poly_matrix(2, 3, 3, degree=1, seed=13, allow_star=True).to_pencil()
    full = random_pencil(2, 3, seed=41, homogeneous=True)
    hidden = conjugated_hollow_matrix(4, 2, seed=300).to_pencil()
    planted = random_pencil(2, 2, seed=5).direct_sum(LinearPencil([[[3]], [[0]], [[0]]], 2))
    model = sample("gue", 3, 2, 0)

    def dense_view(self):
        raise AssertionError("the dense coefficient view was built")

    monkeypatch.setattr(LinearPencil, "coeffs", property(dense_view))
    assert ncrank(cubic, seed=0).cross["scaling"] == "full"
    assert ncrank(starred, seed=0).cross["scaling"] in ("full", "nonfull")
    for pencil, verdict in ((full, "full"), (hidden, "nonfull")):
        cert = fullness_scaling(pencil, seed=0)
        assert cert.verdict == verdict
        assert verify_certificate(pencil, cert)
    report = central_eigs_pencil(planted, seed=0)
    assert (3, True) in [(a.lam, a.certified) for a in report.atoms]
    rep = realize(parse("x1*inv(x2)*x1 + inv(x1 + x2')*x2 - 2"))
    report, value = eval_and_check(rep, model)
    assert report.ok and value.shape == (3, 3)


def test_scaling_rejects_single_nilpotent_coefficient():
    pencil = _pencil([[[0, 0], [0, 0]], [[0, 1], [0, 0]]], 1)
    cert = fullness_scaling(pencil, seed=0)
    assert cert.verdict == "nonfull"
    assert cert.witness is not None
    assert verify_nonfull_witness(pencil, cert.witness)
    # a hand-built pair: x1 E12 kills e1, so U = (e1, e2), V = e1 is a block
    one, zero = GaussianRational(1), GaussianRational(0)
    assert verify_nonfull_witness(pencil, ([[one, zero], [zero, one]], [[one], [zero]]))


def test_zero_pattern_shortcut():
    m = hollow_matrix(4, 2, seed=5)
    cert = fullness_scaling(m.to_pencil(), seed=0)
    assert cert.verdict == "nonfull"
    assert cert.method == "hollow"
    assert verify_nonfull_witness(m.to_pencil(), cert.witness)


def test_hidden_hollow_matrices_are_caught():
    for seed in range(6):
        m = conjugated_hollow_matrix(4, 2, seed=200 + seed)
        assert _zero_block(_pattern(m)) is None, seed
        cert = fullness_scaling(m.to_pencil(), seed=seed)
        assert cert.verdict == "nonfull", seed
        assert cert.detail.startswith("exact Wong"), (seed, cert.detail)
        assert verify_nonfull_witness(m.to_pencil(), cert.witness), seed
        sub = rank_by_substitution(m, seed=seed)
        assert sub.rho < 4, seed


def test_witness_rejected_on_full_pencil():
    # forged pairs on full pencils: identity bases, a pair whose widths only
    # sum to N, and wide bases that are no block
    e = _coordinate_basis
    pencil = random_pencil(2, 3, seed=41, homogeneous=True)
    assert fullness_scaling(pencil, seed=0).verdict == "full"
    for forged in ((e(3, [0, 1, 2]), e(3, [0, 1, 2])), (e(3, [0, 1]), e(3, [2])),
                   (e(3, [0, 1]), e(3, [0, 1]))):
        assert not verify_nonfull_witness(pencil, forged), forged
    # x1 * diag(1, eps) is full: e1^T A1 e2 = 0 is a block of widths 1 + 1 = N,
    # and e2 is only a near kernel, A1 e2 = eps e2, however small eps is
    for eps in (Fraction(1, 10**6), Fraction(1, 10**400)):
        pencil = _pencil([[[0, 0], [0, 0]], [[1, 0], [0, eps]]], 1)
        assert fullness_scaling(pencil, seed=0).verdict == "full", eps
        assert not verify_nonfull_witness(pencil, (e(2, [0]), e(2, [1]))), eps
        assert not verify_nonfull_witness(pencil, (e(2, [0, 1]), e(2, [1]))), eps


def _exact_rank(cols) -> int:
    return len(exact_rref([list(row) for row in zip(*cols)])[1]) if cols else 0


def _wong_oracle(coeffs, n, weights):
    """Second Wong sequence over Q(i) at sum wi Ai by exact elimination: V or None."""
    zero = GaussianRational(0)

    def kernel(rows):
        mat, pivots = exact_rref(rows)
        free = [c for c in range(len(rows[0])) if c not in pivots]
        return [[GaussianRational(int(c == f)) if c not in pivots else -mat[pivots.index(c)][f]
                 for c in range(len(rows[0]))] for f in free]

    def colspace(cols):
        if not cols:
            return []
        _, pivots = exact_rref([list(row) for row in zip(*cols)])
        return [cols[c] for c in pivots]

    def apply(mat, v):
        return [sum((mat[i][j] * v[j] for j in range(n)), zero) for i in range(n)]

    point = [[sum((w * mat[i][j] for w, mat in zip(weights, coeffs)), zero)
              for j in range(n)] for i in range(n)]
    w_cols: list = []
    for _ in range(n + 1):
        ker = kernel([point[i] + [-w[i] for w in w_cols] for i in range(n)])
        v_cols = colspace([vec[:n] for vec in ker])
        if not v_cols:
            return None
        w_next = colspace([apply(mat, v) for mat in coeffs for v in v_cols])
        if len(w_next) == len(w_cols):
            return v_cols if len(v_cols) > len(w_cols) else None
        w_cols = w_next
    return None


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    size=st.integers(3, 6),
    n_vars=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
    transpose=st.booleans(),
)
def test_exact_hollow_block_is_checked_and_matches_the_wong_oracle(
    size, n_vars, seed, transpose
):
    coeffs = conjugated_hollow_matrix(size, n_vars, seed).to_pencil().coeffs[1:]
    block = _hollow_block(coeffs, seed, transpose)
    assert block is not None
    u, v = block
    # a run on the transposes comes back swapped: a block of the tuple itself
    assert _holds(coeffs, u, v)
    assert len(u[0]) + len(v[0]) > size
    rng = random.Random(seed)
    weights = [GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in coeffs]
    if transpose:
        coeffs = [list(zip(*mat)) for mat in coeffs]
        u, v = v, u
    oracle = _wong_oracle(coeffs, size, weights)
    assert oracle is not None
    lifted = [list(col) for col in zip(*v)]
    # the lifted V spans the oracle's subspace
    assert _exact_rank(oracle) == _exact_rank(lifted) == _exact_rank(oracle + lifted)


def test_altered_hollow_block_fails_the_exact_check():
    coeffs = conjugated_hollow_matrix(4, 2, seed=19).to_pencil().coeffs[1:]
    u, v = _hollow_block(coeffs, seed=101)
    assert _holds(coeffs, u, v)
    for delta in (GaussianRational(1), GaussianRational(0, 1)):
        altered = [list(row) for row in v]
        altered[0][0] += delta
        assert not _holds(coeffs, u, altered), delta


def _gaussian_factor(size, rng):
    """Elementary operations over Z[i], then a row times 1/2 + i/3: exactly invertible."""
    rows = [[GaussianRational(int(i == j)) for j in range(size)] for i in range(size)]
    for _ in range(2 * size):
        i, j = rng.sample(range(size), 2)
        c = GaussianRational(rng.choice([-1, 0, 1]), rng.choice([-1, 1]))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rows[0] = [x * GaussianRational(Fraction(1, 2), Fraction(1, 3)) for x in rows[0]]
    return NcMatrix.from_scalars(rows, 2)


def test_gaussian_conjugated_hollow_block_is_lifted_from_two_roots():
    for seed in range(4):
        rng = random.Random(seed)
        m = _gaussian_factor(4, rng) @ hollow_matrix(4, 2, seed) @ _gaussian_factor(4, rng)
        pencil = m.to_pencil()
        assert _zero_block(_pattern(m)) is None, seed
        u, v = _hollow_block(pencil.coeffs[1:], seed)
        assert any(x.im for basis in (u, v) for row in basis for x in row), seed
        cert = fullness_scaling(pencil, seed=seed)
        assert cert.verdict == "nonfull", seed
        assert cert.detail.startswith("exact Wong"), (seed, cert.detail)
        assert verify_nonfull_witness(pencil, cert.witness), seed


def test_ill_conditioned_hollow_block_is_exact_and_accepted():
    # |Ai| ~ 1e3 and V is the whole space: the lifted pair is checked in
    # exact arithmetic, so the conditioning of the Ai does not matter.
    pencil = conjugated_hollow_matrix(7, 2, seed=7203).to_pencil()
    coeffs = pencil.coeffs[1:]
    u, v = _hollow_block(coeffs, seed=104)
    assert _holds(coeffs, u, v)
    assert len(u[0]) + len(v[0]) == 8
    cert = fullness_scaling(pencil, seed=3)
    assert (cert.verdict, cert.detail) == ("nonfull", "exact Wong")
    assert verify_nonfull_witness(pencil, cert.witness)


def test_exact_pencils_are_decided_without_scaling():
    for seed in range(4):
        full = random_pencil(3, 4, seed=9 + seed, homogeneous=True)
        cert = fullness_scaling(full, seed=seed)
        assert (cert.verdict, cert.method, cert.iterations) == ("full", "exact", 0), seed
        assert cert.detail.startswith("blow-up rank mod p at d = "), seed
        hidden = conjugated_hollow_matrix(4, 2, seed=300 + seed).to_pencil()
        cert = fullness_scaling(hidden, seed=seed)
        assert (cert.verdict, cert.method, cert.iterations) == ("nonfull", "exact", 0)
        assert verify_nonfull_witness(hidden, cert.witness), seed


def _skew_pencil(scale=1):
    """scale times the 3x3 skew-symmetric pencil in three letters."""
    def skew(i, j):
        rows = [[GaussianRational(0)] * 3 for _ in range(3)]
        rows[i][j], rows[j][i] = scale, -scale
        return rows

    return LinearPencil([[[0] * 3] * 3, skew(0, 1), skew(0, 2), skew(1, 2)], 3)


def test_full_pencil_with_no_invertible_point_needs_the_large_blowup(monkeypatch):
    # The 3x3 skew-symmetric pencil is singular at every scalar point (odd
    # size) but full: d = 1 cannot prove it, Wong finds no block, and the
    # blow-up at d = N - 1 = 2 does.
    # with no shrunk subspace at the first point, Wong tries no second one
    calls = []
    wong = ncrank_module._wong_mod_p
    monkeypatch.setattr(
        ncrank_module, "_wong_mod_p", lambda *args: calls.append(args) or wong(*args)
    )
    pencil = _skew_pencil()
    assert not _confirm_full_exact(_residues(pencil), 0, d=1)
    for seed in range(3):
        calls.clear()
        cert = fullness_scaling(pencil, seed=seed)
        assert (cert.verdict, cert.detail) == ("full", "blow-up rank mod p at d = 2"), seed
        assert len(calls) == 2, seed  # once on the tuple, once on its transpose


def _gaussian_fraction(prng):
    """A Q(i) scalar with small denominators, zero four times in ten."""
    if prng.random() < 0.4:
        return GaussianRational(0)
    return GaussianRational(
        Fraction(prng.randint(-9, 9), prng.randint(1, 12)),
        Fraction(prng.randint(-9, 9), prng.randint(1, 12)),
    )


def test_integer_reader_matches_the_residue_oracle():
    # IntegerParts keeps only the nonzero entries of D A1..D Am, or of a
    # witness basis times its lcm D; mod(p) at i = iota is residues_mod_p of
    # each scaled matrix, at i = -iota that of its conjugate
    def check(ints, mats):
        d, dense = ints.denominator, ints.mod(_P)
        cells = {(k, i, j) for k, a in enumerate(mats) for i, row in enumerate(a)
                 for j, x in enumerate(row) if x}
        assert set(zip(*(axis.tolist() for axis in ints.index))) == cells
        assert ints.values.shape == (2, len(cells))
        assert dense.shape == (2, len(mats), len(mats[0]), len(mats[0][0]))
        scaled = [[[x * d for x in row] for row in a] for a in mats]
        assert ints.height == max(
            (abs(p) for a in scaled for row in a for x in row for p in (x.re, x.im)), default=0
        )
        for (re, im), a in zip(dense.swapaxes(0, 1), scaled):
            conj = [[x.conjugate() for x in row] for row in a]
            assert np.array_equal((re + _IOTA * im) % _P, residues_mod_p(a))
            assert np.array_equal((re + (_P - _IOTA) * im) % _P, residues_mod_p(conj))

    prng = random.Random(29)
    pencils = [random_pencil(2, 3, seed=s, homogeneous=s % 2 == 0) for s in range(3)]
    pencils += [random_pencil(3, 4, seed=s, complex_coeffs=True) for s in range(3)]
    pencils += [
        LinearPencil([[[_gaussian_fraction(prng) for _ in range(cols)] for _ in range(rows)]
                      for _ in range(3)], 2)
        for rows, cols in ((1, 1), (3, 3), (2, 4), (4, 3))
    ]
    # a doubled alphabet whose starred slots are all zero
    pencils.append(random_pencil(2, 3, seed=22, complex_coeffs=True).widen_alphabet().plain())
    for pencil in pencils:
        hom = pencil.homogeneous_part()
        check(_integer_parts(hom), hom.coeffs[1:])
    for rows, cols in ((1, 1), (3, 2), (2, 5), (4, 4)):
        basis = [[_gaussian_fraction(prng) for _ in range(cols)] for _ in range(rows)]
        check(_basis_integers(basis), [basis])
        zeroed = [row[:-1] + [GaussianRational(0)] for row in basis]  # a zero last column
        check(_basis_integers(zeroed), [zeroed])


def test_fullness_reduces_each_coefficient_once(monkeypatch):
    # d = 1, the zero pattern, Wong on the tuple and on its transpose, and
    # d = 2 all read one conversion of the cells of A1, A2, A3 into Gaussian
    # integers, real or Gaussian; the residue forms come from its nonzero
    # entries (``IntegerParts.mod``).  verify_certificate reads them once too.
    reads = []
    convert = ncrank_module._integer_parts
    monkeypatch.setattr(
        ncrank_module, "_integer_parts", lambda pencil: reads.append(pencil.n_vars) or convert(pencil)
    )
    gaussian = GaussianRational(Fraction(1, 2), 3)
    for scale in (GaussianRational(1), gaussian):
        reads.clear()
        cert = fullness_scaling(_skew_pencil(scale), seed=0)
        assert (cert.verdict, cert.detail) == ("full", "blow-up rank mod p at d = 2"), scale
        assert reads == [3], scale  # the letters A1, A2, A3, once
        reads.clear()
        assert verify_certificate(_skew_pencil(scale), cert), scale
        assert reads == [3], scale


def test_blowup_draws_keep_the_per_letter_stream():
    # one (count, d, d) draw is the stream of count (d, d) draws, one per
    # letter, so every stored blow-up (d, seed, p) still re-verifies
    for seed in (0, 7, 2**40 + 3):
        for d in range(1, 7):
            for count in range(1, 6):
                rng = np.random.default_rng(((seed << 8) ^ 0x5CA1E) % 2**64)
                old = [rng.integers(0, _P, size=(d, d)) for _ in range(count)]
                assert np.array_equal(_blowup_draws(seed, d, count), old), (seed, d, count)


def test_small_full_pencil_missed_at_d1_is_proved_at_d2():
    # The d = 1 draw of seed 7 is (X1, X2) = (965690950, 267848138), a root
    # of X2*x1 - X1*x2, so d = 1 misses this full 1x1 pencil; d = 2 proves it.
    x1, x2 = (int(x[0, 0]) for x in _blowup_draws(7, 1, 2))
    assert (x1, x2) == (965690950, 267848138)
    pencil = NcMatrix([[NcPoly.var(1, 2) * x2 - NcPoly.var(2, 2) * x1]]).to_pencil()
    cert = fullness_scaling(pencil, seed=7)
    assert (cert.verdict, cert.detail) == ("full", "blow-up rank mod p at d = 2")
    assert verify_certificate(pencil, cert)


def test_commutator_matrix_is_proved_full_at_a_small_blowup():
    # A 3x3 matrix of {-1, 1, 2}-combinations of [x1,x2], [x1,x3], [x2,x3]
    # linearizes to N = 12 (border 9: prefixes x1, x2, x3 in each row) and is
    # singular at every scalar point, so d = 1 cannot prove it full; d = 2
    # does, before d = N - 1 = 11.
    assert ncrank_module._blowup_degrees(12) == [2, 4, 8, 11]
    assert ncrank_module._blowup_degrees(57) == [2, 4, 8, 16, 32, 56]
    assert ncrank_module._blowup_degrees(3) == [2]
    assert ncrank_module._blowup_degrees(2) == [2]
    assert ncrank_module._blowup_degrees(1) == [2]
    x = [NcPoly.var(i, 3) for i in (1, 2, 3)]
    commutators = [a * b - b * a for a, b in itertools.combinations(x, 2)]
    rng = random.Random(0)
    m = NcMatrix(
        [
            [sum((c * rng.choice([-1, 1, 2]) for c in commutators), NcPoly.zero(3))
             for _ in range(3)]
            for _ in range(3)
        ],
        3,
    )
    start = time.perf_counter()
    result = ncrank(m, seed=0)
    pencil, border = linearize_matrix(m)
    cert = fullness_scaling(homogenize(pencil), seed=0)
    elapsed = time.perf_counter() - start
    assert (result.rho, result.cross["scaling"], border) == (3, "full", 9)
    assert (cert.verdict, cert.detail) == ("full", "blow-up rank mod p at d = 2")
    assert elapsed < 2.0


def test_doubled_pencils_are_certified_over_plain_letters():
    # X - X^T vanishes at d = 1, but x1 - x1* is x1 - x2 in the plain letters
    diff = poly_from_string("x1 - x1'", n_vars=1)
    zero = NcPoly.zero(1)
    for m in (NcMatrix([[diff]]), NcMatrix([[zero, diff], [diff, zero]])):
        pencil = m.to_pencil()
        assert pencil.star_letters
        cert = fullness_scaling(pencil, seed=0)
        assert (cert.verdict, cert.detail) == ("full", "blow-up rank mod p at d = 1")


@pytest.mark.parametrize(
    "entries, verdict",
    [
        ([["x1*x1' - x1'*x1"]], "full"),
        ([["x1", "x1'"], ["x1", "x1'"]], "nonfull"),
        ([["x1*x1'", "x1"], ["x1'", "1"]], "nonfull"),
    ],
)
def test_ncrank_cross_checks_starred_input(entries, verdict):
    m = NcMatrix([[poly_from_string(e, n_vars=1) for e in row] for row in entries], 1)
    result = ncrank(m, seed=0)
    assert result.rho == 1
    assert result.cross["scaling"] == verdict
    pencil = m.to_pencil() if m.degree <= 1 else linearize_matrix(m)[0]
    target = homogenize(pencil)
    assert target.n_vars == 3 and not target.star_letters
    cert = fullness_scaling(target, seed=0)
    assert cert.verdict == verdict
    if verdict == "nonfull":
        assert verify_nonfull_witness(target, cert.witness)


def test_zero_pattern_reads_exact_coefficients():
    tiny = Fraction(1, 10**400)  # 0.0 as a float
    cert = fullness_scaling(_pencil([[[0]], [[tiny]]], 1), seed=0)
    assert (cert.verdict, cert.iterations) == ("full", 0)
    # x1 * diag(1, tiny) and x1 * diag(1, huge) are full; substitution scales
    # each row by an exact power of two before the float conversion
    for extreme in (tiny, 1 / tiny):
        pencil = _pencil([[[0, 0], [0, 0]], [[1, 0], [0, extreme]]], 1)
        assert fullness_scaling(pencil, seed=0).verdict == "full"
        result = ncrank(pencil.to_matrix(), seed=0)
        assert (result.rho, result.cross["scaling"]) == (2, "full")


def test_nonfull_pencil_beyond_the_float_range_gets_a_witness():
    # [[x1, huge x1], [x1, huge x1]] is nonfull; its exact witness holds at
    # any height, though 1 and huge are 10^400 apart
    huge = 10**400
    pencil = _pencil([[[0, 0], [0, 0]], [[1, huge], [1, huge]]], 1)
    cert = fullness_scaling(pencil, seed=0)
    assert (cert.verdict, cert.detail) == ("nonfull", "exact Wong (adjoint)")
    assert verify_nonfull_witness(pencil, cert.witness)
    result = ncrank(pencil.to_matrix(), seed=0)
    assert (result.rho, result.cross["scaling"]) == (1, "nonfull")


def _altered(basis, row, delta):
    altered = [list(r) for r in basis]
    altered[row][0] += delta
    return altered


def _live_row(mats, basis):
    """A row r with (Ai B)[r] != 0 for some i, so B's partner altered at r fails."""
    zero = GaussianRational(0)
    return next(
        r for r in range(len(basis)) if any(
            sum((a[r][j] * basis[j][c] for j in range(len(basis))), zero)
            for a in mats for c in range(len(basis[0]))
        )
    )


def test_verify_certificate_rejects_altered_pairs():
    # pairs of dimensions (2, 3) and (2, 4): neither side is the whole space,
    # which any altered basis of full rank would still span
    for pencil in (
        conjugated_hollow_matrix(4, 2, seed=16).to_pencil(),
        hollow_matrix(5, 2, seed=3).to_pencil(),
    ):
        cert = fullness_scaling(pencil, seed=1)
        assert cert.verdict == "nonfull" and verify_certificate(pencil, cert)
        u, v = cert.witness
        transposes = [list(zip(*a)) for a in pencil.coeffs[1:]]
        u_row, v_row = _live_row(pencil.coeffs[1:], v), _live_row(transposes, u)
        for delta in (GaussianRational(1), GaussianRational(0, 1)):
            for pair in ((_altered(u, u_row, delta), v), (u, _altered(v, v_row, delta))):
                assert not verify_certificate(pencil, dataclasses.replace(cert, witness=pair))
        # a pair whose dimensions do not exceed N proves nothing
        short = (u, [row[:len(u) - len(u[0])] for row in v])
        assert not verify_certificate(pencil, dataclasses.replace(cert, witness=short))
        assert not verify_certificate(pencil, dataclasses.replace(cert, verdict="full"))


def test_verify_certificate_needs_independent_bases():
    # x1 E11 + x2 E22 is full; U = (e1, e1) and V = e2 pass U^T Ai V = 0 and
    # have three columns, but rank U + rank V is only 2
    pencil = _pencil([[[0, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [0, 1]]], 2)
    one, zero = GaussianRational(1), GaussianRational(0)
    forged = FullnessCertificate(
        "nonfull", "exact", 2, witness=([[one, one], [zero, zero]], [[zero], [one]])
    )
    assert not verify_certificate(pencil, forged)
    assert fullness_scaling(pencil, seed=0).verdict == "full"


def test_verify_certificate_rejects_a_wrong_d_seed_or_prime():
    # the skew pencil is singular at every scalar point, so only d = 2 proves it
    pencil = _skew_pencil()
    cert = fullness_scaling(pencil, seed=4)
    assert cert.blowup == (2, 4, _P) and verify_certificate(pencil, cert)
    # d above max(N - 1, 2), the last degree fullness_scaling reads, is
    # rejected before any (N d) x (N d) matrix is built, and a blow-up that
    # is not three integers fails the check instead of raising
    for blowup in ((1, 4, _P), (0, 4, _P), (3, 4, _P), (10**9, 4, _P), (2, 4, _P - 2),
                   (1.5, 0, _P), (1, "x", _P), (True, 0, _P), (1, 0)):
        assert not verify_certificate(pencil, dataclasses.replace(cert, blowup=blowup))
    # x1 X1 + x2 X2 vanishes at the d = 1 draw of seed 7 when (x1, x2) is
    # (X2, -X1) of that draw; at seed 8 it is full
    x1, x2 = (int(x[0, 0]) for x in _blowup_draws(7, 1, 2))
    line = _pencil([[[0]], [[x2]], [[-x1]]], 2)
    cert = fullness_scaling(line, seed=8)
    assert cert.blowup == (1, 8, _P) and verify_certificate(line, cert)
    assert not verify_certificate(line, dataclasses.replace(cert, blowup=(1, 7, _P)))
    # a certificate from another pencil size, or with no exact data, proves nothing
    assert not verify_certificate(_pencil([[[0] * 2] * 2, [[1, 0], [0, 1]]], 1), cert)
    assert not verify_certificate(line, dataclasses.replace(cert, blowup=None))


def test_malformed_witness_fails_the_check():
    # x1 E12: U = (e1, e2), V = e1 is a block
    pencil = _pencil([[[0, 0], [0, 0]], [[0, 1], [0, 0]]], 1)
    cert = fullness_scaling(pencil, seed=0)
    assert cert.verdict == "nonfull"
    # plain ints are read as exact scalars, and the check runs on them
    for witness, accepted in ((([[1, 0], [0, 1]], [[1], [0]]), True),
                              (([[1, 0], [0, 1]], [[0], [1]]), False)):
        assert verify_nonfull_witness(pencil, witness) is accepted, witness
        assert verify_certificate(pencil, dataclasses.replace(cert, witness=witness)) is accepted
    # ragged rows, a wrong row count, floats, bare ints or no pair do not pass
    for witness in (([[1, 0], [0]], [[1], [0]]), ([[1, 0]], [[1], [0]]),
                    ([[1.0, 0], [0, 1]], [[1], [0]]), (1, 2), ([[1]],), None):
        assert not verify_nonfull_witness(pencil, witness), witness
        assert not verify_certificate(pencil, dataclasses.replace(cert, witness=witness)), witness


def test_conjugated_hollow_sweep_verifies_exactly():
    rng = random.Random(17)
    for k in range(150):
        size, n_vars = 3 + k % 5, 1 + k % 3
        pencil = conjugated_hollow_matrix(size, n_vars, rng.randrange(2**31)).to_pencil()
        cert = fullness_scaling(pencil, seed=k)
        assert cert.verdict == "nonfull", k
        assert verify_certificate(pencil, cert), k


def test_exact_pencils_run_no_floating_point(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("floating point on exact input")

    for name in ("svd", "qr", "eigh", "eigvalsh", "eigvals", "norm", "matrix_rank", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(GaussianRational, "__complex__", refuse)
    pencils = [random_pencil(1 + k % 3, 2 + k % 4, 50_000 + k, homogeneous=True) for k in range(8)]
    pencils += [hollow_matrix(3 + k % 3, 1 + k % 2, seed=k).to_pencil() for k in range(4)]
    pencils += [conjugated_hollow_matrix(3 + k % 3, 1 + k % 2, k).to_pencil() for k in range(4)]
    pencils.append(_skew_pencil(GaussianRational(Fraction(1, 2), 3)))
    details = set()
    for k, pencil in enumerate(pencils):
        cert = fullness_scaling(pencil, seed=k)
        assert verify_certificate(pencil, cert), k
        if cert.verdict == "nonfull":
            assert verify_nonfull_witness(pencil, cert.witness), k
        details.add(cert.detail)
    assert {"zero pattern", "exact Wong", "blow-up rank mod p at d = 2"} <= details


def test_blowup_at_d_one_is_the_point_of_its_draw():
    for seed in range(5):
        pencil = random_pencil(3, 4, seed=seed, homogeneous=True, complex_coeffs=True)
        residues = _residues(pencil)
        subs = _blowup_draws(seed, 1, len(residues))
        point = _point_mod_p(residues, [x[0, 0] for x in subs])
        assert (point == _blowup_mod_p(residues, subs)).all(), seed


def test_hollow_check_reads_as_many_primes_as_the_bound_needs():
    # x1 [[p, 0], [0, 0]]: e1^T A1 (e1, e2) = (p, 0) vanishes mod p alone
    ones = [[GaussianRational(1)], [GaussianRational(0)]]
    both = [[GaussianRational(1), GaussianRational(0)], [GaussianRational(0), GaussianRational(1)]]
    zero = [[0, 0], [0, 0]]
    assert not _holds(_pencil([zero, [[_P, 0], [0, 0]]], 1).coeffs[1:], ones, both)
    # x1 [[0, h], [0, 0]] has a zero first column: (e1, e2)^T A1 e1 = 0 at any height
    for h in (1, 10**40, GaussianRational(0, 10**400)):
        assert _holds(_pencil([zero, [[0, h], [0, 0]]], 1).coeffs[1:], both, ones), h


def test_substitution_rank_on_diagonal_gap():
    m = NcMatrix.diag([poly_from_string("x1"), poly_from_string("0", n_vars=1)])
    result = rank_by_substitution(m, seed=1)
    assert result.rho == 1
    assert result.rows == result.cols == 2


def test_substitution_rank_symmetric_two_by_two():
    m = NcMatrix(
        [
            [poly_from_string("x1", n_vars=3), poly_from_string("x2", n_vars=3)],
            [poly_from_string("x2", n_vars=3), poly_from_string("x3", n_vars=3)],
        ]
    )
    result = rank_by_substitution(m, seed=2)
    assert result.rho == 2
    # the trials of a dimension are evaluated as one stack, and each reads
    # what its own seed's model gives when evaluated alone
    triples = [(e["d"], e["trial"], e["seed"]) for e in result.estimates]
    assert triples == [(3, 0, 2), (3, 1, 3), (6, 0, 4), (6, 1, 5)]
    for e in result.estimates:
        alone = empirical_rank(m.evaluate(sample("gue", e["d"], 3, e["seed"])))
        assert (alone.rank, alone.gap) == (e["rank"], e["gap"])


def _grid_linearization(matrix):
    """linearize_matrix as a grid of polynomials read back into a pencil."""
    n_vars, n, m = matrix.n_vars, matrix.rows, matrix.cols
    pieces, border = [], 0
    low = [[NcPoly.zero(n_vars) for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            for word, coeff in matrix.entries[i][j].terms():
                if len(word) <= 1:
                    low[i][j] = low[i][j] + NcPoly.monomial(word, coeff, n_vars)
                else:
                    pieces.append((i, j, coeff, word))
                    border += len(word) - 1
    grid = [[NcPoly.zero(n_vars) for _ in range(m + border)] for _ in range(n + border)]
    for i in range(n):
        grid[i][:m] = low[i]
    t = 0
    for i, j, coeff, word in pieces:
        g = len(word)
        grid[i][m + t] = NcPoly.monomial(word[:1], coeff, n_vars)
        for step in range(g - 1):
            grid[n + t + step][m + t + step] = NcPoly.const(-1, n_vars)
            if step + 1 < g - 1:
                grid[n + t + step][m + t + step + 1] = NcPoly.monomial(word[step + 1 : step + 2], 1, n_vars)
        grid[n + t + g - 2][j] = NcPoly.monomial(word[g - 1 :], 1, n_vars)
        t += g - 1
    return NcMatrix(grid, n_vars).to_pencil(), border


def _schur_complement(pencil, rows, cols):
    """L00 - L0B B^{-1} LB0 of a linearization, for a border B = -1 + nilpotent.

    -B^{-1} is the finite sum of the powers of B + 1, so the complement is
    L00 + L0B (sum of (B + 1)^k) LB0, in exact polynomial arithmetic.
    """
    grid, n_vars = pencil.to_matrix().entries, pencil.n_vars
    l00 = NcMatrix([row[:cols] for row in grid[:rows]], n_vars)
    if pencil.rows == rows:
        return l00
    l0b = NcMatrix([row[cols:] for row in grid[:rows]], n_vars)
    lb0 = NcMatrix([row[:cols] for row in grid[rows:]], n_vars)
    nil = NcMatrix([row[cols:] for row in grid[rows:]], n_vars) + NcMatrix.identity(pencil.rows - rows, n_vars)
    total, term = l00, lb0
    while not term.is_zero():
        total, term = total + l0b @ term, nil @ term
    return total


def _distinct_proper_prefixes(matrix):
    return len({(i, word[:g]) for i, row in enumerate(matrix.entries) for p in row
                for word, _ in p.terms() for g in range(1, len(word))})


def test_linearization_builds_the_pencil_of_its_grid():
    # both constructions have the matrix as Schur complement and read the
    # same rank, less their borders
    for seed in range(40):
        m = random_poly_matrix(
            2, 1 + seed % 3, 1 + seed % 2, degree=seed % 4, seed=500 + seed,
            allow_star=seed % 2 == 1, complex_coeffs=seed % 3 == 0,
        )
        dims = (max(m.rows, m.cols) + 1,)
        ranks = []
        for pencil, border in (linearize_matrix(m), _grid_linearization(m)):
            assert _schur_complement(pencil, m.rows, m.cols) == m, seed
            ranks.append(rank_by_substitution(pencil, dims=dims, seed=seed).rho - border)
        assert ranks[0] == ranks[1] == rank_by_substitution(m, dims=dims, seed=seed).rho, seed


def test_shared_prefix_linearization_matches_the_grid_oracle():
    # seeded property: degree 1-4, plain and starred, rectangular and square
    for seed in range(24):
        m = random_poly_matrix(
            2 + seed % 2, 1 + seed % 3, 1 + (seed // 3) % 3, degree=1 + seed % 4,
            seed=900 + seed, terms_per_entry=2 + seed % 3, allow_star=seed % 5 == 0,
        )
        pencil, border = linearize_matrix(m)
        grid, grid_border = _grid_linearization(m)
        assert border == _distinct_proper_prefixes(m) <= grid_border, seed
        assert (pencil.rows, pencil.cols) == (m.rows + border, m.cols + border)
        dims = (max(m.rows, m.cols) + 1,)
        trie_rho = rank_by_substitution(pencil, dims=dims, seed=seed).rho - border
        grid_rho = rank_by_substitution(grid, dims=dims, seed=seed).rho - grid_border
        assert trie_rho == grid_rho, seed


def _three_term_product(inner: int, degree: int) -> NcMatrix:
    """4 x inner times inner x 4, entries of three words of degree <= degree in 2 letters."""
    rng = random.Random(0)

    def entry() -> NcPoly:
        terms = {}
        while len(terms) < 3:
            word = tuple(Letter(rng.randint(1, 2)) for _ in range(rng.randint(0, degree)))
            terms[word] = rng.choice([-3, -2, -1, 1, 2, 3])
        return NcPoly(terms, 2)

    left = NcMatrix([[entry() for _ in range(inner)] for _ in range(4)], 2)
    right = NcMatrix([[entry() for _ in range(4)] for _ in range(inner)], 2)
    return left @ right


@pytest.mark.parametrize("inner, degree, border", [(3, 2, 41), (3, 3, 102), (2, 2, 38)])
def test_products_of_random_polynomial_matrices_are_decided_quickly(inner, degree, border):
    # rho = inner; one border chain per monomial took 387, 829 and 288 nodes
    m = _three_term_product(inner, degree)
    assert linearize_matrix(m)[1] == border
    start = time.perf_counter()
    result = ncrank(m, seed=0)
    assert time.perf_counter() - start < 5.0
    assert result.rho == inner
    assert (result.cross["scaling"], result.cross["scaling_detail"]) == ("nonfull", "exact Wong")


def test_ncrank_of_a_pencil_is_ncrank_of_its_matrix():
    # a pencil goes to both engines as it is, with the result of its matrix
    pencils = [random_pencil(1 + k % 3, 2 + k % 3, seed=600 + k, homogeneous=k % 2 == 0,
                             complex_coeffs=k % 3 == 0) for k in range(6)]
    pencils += [random_poly_matrix(2, r, c, degree=1, seed=610 + r, allow_star=r == 3).to_pencil()
                for r, c in ((2, 3), (3, 2), (1, 3))]
    pencils += [random_poly_matrix(2, 3, 3, degree=1, seed=620 + k, allow_star=True,
                                   complex_coeffs=True).to_pencil() for k in range(3)]
    pencils += [hollow_matrix(3, 2, seed=8).to_pencil(), random_pencil(2, 3, seed=630).widen_alphabet(),
                conjugated_hollow_matrix(4, 2, seed=19).to_pencil()]
    verdicts = set()
    for k, pencil in enumerate(pencils):
        try:
            want = ncrank(pencil.to_matrix(), seed=k).to_dict()
        except NoConsensus:
            with pytest.raises(NoConsensus):
                ncrank(pencil, seed=k)
            continue
        assert ncrank(pencil, seed=k).to_dict() == want, k
        verdicts.add(want["cross"]["scaling_detail"])
    assert {"blow-up rank mod p at d = 1", "zero pattern", "exact Wong"} <= verdicts
    assert any(p.star_letters for p in pencils) and any(not p.is_square() for p in pencils)


def test_linearization_border_accounting():
    m = NcMatrix([[poly_from_string("x1*x2")]])
    pencil, border = linearize_matrix(m)
    assert border == 1
    assert pencil.rows == pencil.cols == 2
    direct = rank_by_substitution(pencil.to_matrix(), seed=3)
    assert direct.rho - border == 1
    assert ncrank(m, seed=3).rho == 1


def test_linearization_preserves_rank_on_random_inputs():
    for seed in range(3):
        m = random_poly_matrix(2, 2, 2, degree=2, seed=300 + seed)
        pencil, border = linearize_matrix(m)
        lifted = rank_by_substitution(pencil.to_matrix(), seed=seed)
        flat = ncrank(m, seed=seed)
        assert lifted.rho - border == flat.rho, seed


def test_homogenize_preserves_rank():
    for seed in range(3):
        pencil = random_pencil(2, 3, seed=400 + seed, homogeneous=False)
        hom = homogenize(pencil)
        assert hom.is_homogeneous()
        assert hom.n_vars == pencil.n_vars + 1
        before = rank_by_substitution(pencil.to_matrix(), seed=20_000)
        after = rank_by_substitution(hom.to_matrix(), seed=20_001)
        assert before.rho == after.rho, seed


def test_empty_dims_is_bad_input():
    m = NcMatrix.identity(2, 1)
    with pytest.raises(InputError):
        rank_by_substitution(m, dims=())
    with pytest.raises(InputError):
        ncrank(m, dims=[])


def _golden_matrix() -> NcMatrix:
    """[[0, 1, 0], [1, 1, 0], [0, 0, x1]]: rho drops to 2 at (1 +- sqrt 5)/2."""
    z, one, x1 = NcPoly.zero(1), NcPoly.const(1, 1), NcPoly.var(1, 1)
    return NcMatrix([[z, one, z], [one, one, z], [z, z, x1]])


def _hidden_lower_golden() -> NcMatrix:
    """S [[0, 1, 0], [1, 1, 0], [x1, x1, x1]] S^-1, S = [[1, 0, 1], [0, 1, 1], [0, 0, 1]].

    The block-lower-triangular form hides an obstruction on the left side:
    at (1 +- sqrt 5)/2 a common left kernel vector, and no right one.
    """
    z, one, x1 = NcPoly.zero(1), NcPoly.const(1, 1), NcPoly.var(1, 1)
    base = NcMatrix([[z, one, z], [one, one, z], [x1, x1, x1]])
    s = NcMatrix.from_scalars([[1, 0, 1], [0, 1, 1], [0, 0, 1]], 1)
    s_inv = NcMatrix.from_scalars([[1, 0, -1], [0, 1, -1], [0, 0, 1]], 1)
    return s @ base @ s_inv


def test_golden_roots_are_certified_through_the_companion_route():
    # the roots (1 +- sqrt 5)/2 form one factor t^2 - t - 1: substitution
    # reads rho once for it, on the input shifted exactly near one root, and
    # the exact engine decides both roots at once through the companion blow-up
    hidden = _hidden_lower_golden()
    x1 = NcPoly.var(1, 1)
    c = lambda k: NcPoly.const(k, 1)  # noqa: E731
    assert [list(row) for row in hidden.entries] == [
        [x1, x1 + c(1), -x1 - c(1)],
        [x1 + c(1), x1 + c(1), -x1 - c(2)],
        [x1, x1, -x1],
    ]
    root5 = math.sqrt(5)
    for matrix, seed in itertools.product((_golden_matrix(), hidden), range(3)):
        report = central_eigs_polymatrix(matrix, seed=seed)
        assert report.uncertified == [], seed
        lams = [complex(a.lam) for a in report.atoms]
        assert len(lams) == 2, seed
        assert abs(lams[0] - (1 - root5) / 2) < 1e-9
        assert abs(lams[1] - (1 + root5) / 2) < 1e-9
        assert [(a.rho, a.certified) for a in report.atoms] == [(2, True)] * 2, seed
        assert report.dimension == Fraction(7, 9), seed


def test_companion_blowup_sums_the_ranks_of_its_roots():
    # rho(H_f) is the sum of rho(H - mu) over the roots mu of f: 2 + 2 + 3
    # for (t^2 - t - 1)(t - 3), and 3 + 3 at +- sqrt 2, where H is full
    hidden = _hidden_lower_golden()
    result = ncrank(hidden.companion([1, -4, 2, 3]), seed=0)
    assert (result.rho, result.rows, result.cross["scaling"]) == (7, 9, "nonfull")
    result = ncrank(hidden.companion([1, 0, -2]), seed=0)
    assert (result.rho, result.rows, result.cross["scaling"]) == (6, 6, "full")
    # degree one is the shift itself, after dividing by the leading coefficient
    x1 = NcMatrix([[NcPoly.var(1, 1)]])
    assert x1.companion([2, -6]) == x1.shift(3)


def _unimodular_pair(size: int, rng: random.Random):
    """An integer matrix of determinant 1 and its integer inverse, as rows."""
    s = [[int(i == j) for j in range(size)] for i in range(size)]
    t = [row[:] for row in s]
    for _ in range(3 * size):
        i, j = rng.sample(range(size), 2)
        c = rng.choice([-2, -1, 1, 2])
        s[i] = [a + c * b for a, b in zip(s[i], s[j])]  # S <- (1 + c e_ij) S
        for row in t:  # S^-1 <- S^-1 (1 - c e_ij)
            row[j] -= c * row[i]
    return s, t


def _blocks(grid) -> list:
    """Rows of the block matrix whose blocks (lists of rows) are ``grid``."""
    return [sum(row, []) for brow in grid for row in zip(*brow)]


def _pencils_with_constant_block(seed: int, n_vars: int = 2):
    """C and Q in four forms, hidden by a unimodular similarity, with C's eigenvalues.

    C is a 2 x 2 integer matrix with non-integer eigenvalues, Q a q x q
    affine block.  The forms are C (+) Q, [[C, X], [0, Q]], [[C, 0], [Y, Q]]
    and C (+) C (+) Q; each eigenvalue of C lowers rho by its multiplicity
    in the constant blocks, 1 or 2.
    """
    rng = random.Random(seed)
    while True:
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        disc = (a + d) ** 2 - 4 * (a * d - b * c)
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            break
    q = rng.randint(1, 2)
    affine = lambda: random_linear_entry(rng, n_vars) + NcPoly.const(rng.randint(-2, 2), n_vars)  # noqa: E731
    zero = lambda r, k: [[NcPoly.zero(n_vars)] * k for _ in range(r)]  # noqa: E731
    cc = [[NcPoly.const(x, n_vars) for x in row] for row in ((a, b), (c, d))]
    qq, xx, yy = ([[affine() for _ in range(k)] for _ in range(r)] for r, k in ((q, q), (2, q), (q, 2)))
    forms = [
        ([[cc, zero(2, q)], [zero(q, 2), qq]], 1),
        ([[cc, xx], [zero(q, 2), qq]], 1),
        ([[cc, zero(2, q)], [yy, qq]], 1),
        ([[cc, zero(2, 2), zero(2, q)], [zero(2, 2), cc, zero(2, q)], [zero(q, 2), zero(q, 2), qq]], 2),
    ]
    lams = np.linalg.eigvals(np.array([[a, b], [c, d]], dtype=float))
    for grid, mult in forms:
        m = NcMatrix(_blocks(grid), n_vars)
        s, t = _unimodular_pair(m.rows, rng)
        hidden = NcMatrix.from_scalars(s, n_vars) @ m @ NcMatrix.from_scalars(t, n_vars)
        yield hidden, lams, mult


def test_numeric_shifts_at_hidden_constant_blocks_are_certified_nonfull():
    # f = det(t - C) has both eigenvalues of C as roots, each lowering rho,
    # so the companion blow-up is nonfull, and that is decided exactly
    for seed in range(6):
        for matrix, lams, mult in _pencils_with_constant_block(seed):
            trace, det = (round(complex(x).real) for x in (sum(lams), np.prod(lams)))
            pencil = homogenize(matrix.companion([1, -trace, det]).to_pencil())
            cert = fullness_scaling(pencil, seed=seed)
            assert cert.verdict == "nonfull", seed
            assert verify_certificate(pencil, cert), seed


def test_hidden_constant_blocks_give_certified_atoms():
    # Every eigenvalue of C is one atom, through either certified entry point.
    for seed in range(6):
        for matrix, lams, mult in _pencils_with_constant_block(seed):
            n = matrix.rows
            for report in (
                central_eigs_pencil(matrix.to_pencil(), seed=seed),
                central_eigs_polymatrix(matrix, seed=seed),
            ):
                assert report.uncertified == [], seed
                for lam in lams:
                    near = [a for a in report.atoms if abs(complex(a.lam) - lam) < 1e-9]
                    assert [(a.rho, a.certified) for a in near] == [(n - mult, True)], (seed, lam)


def test_distinct_irrational_blocks_of_equal_rho_are_certified_atoms():
    # C1 (+) C2 (+) Q with det(t - C1) = t^2 - t - 1 and det(t - C2) = t^2 - 2,
    # hidden by a unimodular similarity: all four roots read rho 4 of 5, and
    # they are cut into the two factors, each proved irreducible and nonfull
    rng = random.Random(4)
    c, z = (lambda x: NcPoly.const(x, 2)), NcPoly.zero(2)
    base = NcMatrix([
        [c(0), c(1), z, z, z],
        [c(1), c(1), z, z, z],
        [z, z, c(0), c(2), z],
        [z, z, c(1), c(0), z],
        [z, z, z, z, random_linear_entry(rng, 2) + c(1)],
    ], 2)
    s, t = _unimodular_pair(5, rng)
    hidden = NcMatrix.from_scalars(s, 2) @ base @ NcMatrix.from_scalars(t, 2)
    root2, root5 = math.sqrt(2), math.sqrt(5)
    want = sorted([(1 - root5) / 2, (1 + root5) / 2, -root2, root2])
    for report in (central_eigs_pencil(hidden.to_pencil(), seed=0),
                   central_eigs_polymatrix(hidden, seed=0)):
        assert report.uncertified == []
        lams = [complex(a.lam).real for a in report.atoms]
        assert np.allclose(lams, want, atol=1e-9, rtol=0)
        assert [(a.rho, a.certified, a.exact) for a in report.atoms] == [(4, True, False)] * 4
        factors = sorted((f["factor"], f["verdict"], f["irreducible"])
                         for f in report.diagnostics["factors"])
        assert factors == [("t^2 - 2", "nonfull", True), ("t^2 - t - 1", "nonfull", True)]
        assert report.dimension == Fraction(21, 25)


def test_shifted_zero_matrix_is_full():
    assert ncrank(NcMatrix.zero(2, 2, 1).shift(Fraction(3, 2)), seed=0).rho == 2


def test_shift_needs_square_input():
    with pytest.raises(NonSquareError):
        NcMatrix.zero(2, 3, 1).shift(Fraction(3, 2))


def test_ncrank_requires_no_square_input():
    m = random_poly_matrix(2, 2, 3, degree=1, seed=17)
    result = ncrank(m, seed=5)
    assert 0 <= result.rho <= 2


def test_rank_of_products_is_bounded():
    rng = random.Random(55)
    for trial in range(4):
        a = random_poly_matrix(2, 2, 2, degree=1, seed=500 + trial)
        b = random_poly_matrix(2, 2, 2, degree=1, seed=600 + trial)
        rho_a = ncrank(a, seed=trial).rho
        rho_b = ncrank(b, seed=trial).rho
        rho_ab = ncrank(a @ b, seed=trial).rho
        assert rho_ab <= min(rho_a, rho_b), trial


def test_rank_is_additive_on_direct_sums():
    a = NcMatrix.diag([poly_from_string("x1"), poly_from_string("0", n_vars=1)])
    b = random_poly_matrix(1, 2, 2, degree=1, seed=70)
    rho_a = ncrank(a, seed=1).rho
    rho_b = ncrank(b, seed=1).rho
    total = ncrank(a.direct_sum(b), seed=1).rho
    assert total == rho_a + rho_b


def test_rank_is_invariant_under_exact_invertible_factors():
    rng = random.Random(77)
    m = NcMatrix.diag([poly_from_string("x1"), poly_from_string("x2"), poly_from_string("0", n_vars=2)])
    base = ncrank(m, seed=2).rho
    assert base == 2
    for trial in range(3):
        u = invertible_scalar_matrix(3, rng, 2)
        v = invertible_scalar_matrix(3, rng, 2)
        assert ncrank(u @ m @ v, seed=trial).rho == base, trial


def test_cubic_with_four_words_has_rank_one():
    # Linearized size N = 7 (border 6: prefixes x1, x2, x1x2, x2x1, x1x1, x2x2).
    m = NcMatrix([[poly_from_string("1 + x1*x2*x1 + x2*x1*x2 + x1*x1*x2 + x2*x2*x1")]], 2)
    start = time.perf_counter()
    result = ncrank(m, seed=3)
    assert result.rho == 1
    assert time.perf_counter() - start < 5.0


def _affine(rng: random.Random) -> NcPoly:
    c0, c1, c2 = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
    return (
        NcPoly.const(c0, 2)
        + NcPoly.var(1, 2) * NcPoly.const(c1, 2)
        + NcPoly.var(2, 2) * NcPoly.const(c2, 2)
    )


def test_rank_one_product_of_affine_polynomials():
    # A 2x1 times 1x2 product has rho = 1 and degree 2: N = 6, border 4
    # (prefixes x1 and x2 in each row).
    rng = random.Random(6)
    left = NcMatrix([[_affine(rng)], [_affine(rng)]], 2)
    right = NcMatrix([[_affine(rng), _affine(rng)]], 2)
    m = left @ right
    pencil, border = linearize_matrix(m)
    assert (pencil.rows, border) == (6, 4)
    start = time.perf_counter()
    result = ncrank(m, seed=0)
    assert time.perf_counter() - start < 10.0
    assert result.rho == 1
    assert result.cross["scaling"] == "nonfull"


def _affine_product(inner: int) -> NcMatrix:
    """3 x inner times inner x 3 affine polynomial matrices: rho = inner."""
    rng = random.Random(0)
    left = NcMatrix([[_affine(rng) for _ in range(inner)] for _ in range(3)], 2)
    right = NcMatrix([[_affine(rng) for _ in range(3)] for _ in range(inner)], 2)
    return left @ right


@pytest.mark.parametrize("inner, size", [(1, 9), (2, 9)])
def test_nonfull_linearized_products_are_decided_quickly(inner, size):
    m = _affine_product(inner)
    assert linearize_matrix(m)[0].rows == size
    start = time.perf_counter()
    result = ncrank(m, seed=0)
    assert time.perf_counter() - start < 5.0
    assert result.rho == inner
    assert result.cross["scaling"] == "nonfull"


def _blowup_over_q(pencil: LinearPencil, subs) -> list:
    """The Q(i) blow-up of a homogeneous plain pencil at the integer lift of subs."""
    n, d = pencil.rows, subs[0].shape[0]
    big = [[GaussianRational(0)] * (n * d) for _ in range(n * d)]
    for pos in range(1, pencil.n_vars + 1):
        x = subs[pos - 1]
        block = [[GaussianRational(int(x[p, q])) for q in range(d)] for p in range(d)]
        for i in range(n):
            for j in range(n):
                c = pencil.coeffs[pos][i][j]
                for p in range(d):
                    for q in range(d):
                        big[i * d + p][j * d + q] += c * block[p][q]
    return big


@pytest.mark.parametrize(
    "n, n_vars, star, d", [(2, 1, False, 3), (3, 2, False, 2), (2, 2, True, 3)]
)
def test_blowup_mod_p_reduces_the_exact_blowup(n, n_vars, star, d):
    rng = random.Random(n * 10 + d)
    slots = 1 + (2 * n_vars if star else n_vars)
    coeffs = [
        [
            [
                GaussianRational(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        for _ in range(slots)
    ]
    coeffs[0] = [[0] * n for _ in range(n)]  # fullness reads homogeneous pencils only
    # a doubled pencil is blown up over its 2n plain letters, one draw each
    pencil = LinearPencil(coeffs, n_vars, star_letters=star).plain()
    draw = np.random.default_rng(n * d)
    subs = [draw.integers(0, _P, size=(d, d)) for _ in range(pencil.n_vars)]
    residues = [residues_mod_p(mat) for mat in pencil.coeffs[1:]]
    assert (_blowup_mod_p(residues, subs) == residues_mod_p(_blowup_over_q(pencil, subs))).all()


@pytest.mark.parametrize("size", [3, 4, 5])
def test_confirmation_rejects_conjugated_hollow_pencils(size):
    for seed in range(5):
        pencil = conjugated_hollow_matrix(size, 2, seed=100 * size + seed).to_pencil()
        assert not _confirm_full_exact(_residues(pencil), seed, size - 1)


def test_confirmation_without_residues_is_not_full():
    full = LinearPencil([[[0]], [[1]]], 1)
    assert _confirm_full_exact(_residues(full), 0, 1)
    # a denominator divisible by p has no residue form, so nothing is decided
    no_residue = LinearPencil([[[0]], [[Fraction(1, _P)]]], 1)
    with pytest.raises(Inconclusive, match="p divides a denominator"):
        fullness_scaling(no_residue, seed=0)
    forged = FullnessCertificate("full", "exact", 1, blowup=(1, 0, _P))
    assert verify_certificate(full, forged) and not verify_certificate(no_residue, forged)


def test_zero_and_identity_matrices():
    zero = NcMatrix.zero(2, 3, 1)
    assert ncrank(zero, seed=0).rho == 0
    ident = NcMatrix.identity(3, 1)
    assert ncrank(ident, seed=0).rho == 3


def test_cross_check_reports_the_second_engine():
    m = hollow_matrix(3, 2, seed=8)
    result = ncrank(m, seed=4)
    assert result.cross is not None
    assert result.cross["scaling"] == "nonfull"
    assert result.cross["scaling_detail"] == "zero pattern"
    assert result.rho < 3


def test_scaling_requires_square():
    rect = LinearPencil(
        [
            [[0, 0, 0], [0, 0, 0]],
            [[1, 0, 0], [0, 1, 0]],
        ],
        1,
    )
    with pytest.raises(NonSquareError):
        fullness_scaling(rect, seed=0)

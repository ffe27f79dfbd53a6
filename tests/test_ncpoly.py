"""Free algebra layer: ring axioms, involution, evaluation, matrices, pencils."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from ncfield import (
    GaussianRational,
    Letter,
    LinearPencil,
    NcMatrix,
    NcPoly,
    custom_model,
    poly_from_string,
    random_pencil,
    random_poly_matrix,
)
from ncfield.errors import NonSquareError, ShapeMismatch, VariableMismatch
from ncfield.ncpoly import _zero_block, evaluate_form


def _random_poly(rng: random.Random, n_vars: int, max_deg: int = 3, star: bool = False) -> NcPoly:
    poly = NcPoly.zero(n_vars)
    for _ in range(rng.randint(1, 4)):
        length = rng.randint(0, max_deg)
        word = tuple(
            Letter(rng.randint(1, n_vars), star=star and rng.random() < 0.3)
            for _ in range(length)
        )
        coeff = GaussianRational(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-2, 2)))
        poly = poly + NcPoly.monomial(word, coeff, n_vars)
    return poly


def _random_model(rng: np.random.Generator, n_vars: int, d: int):
    return custom_model(
        [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(n_vars)]
    )


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(25):
        p = _random_poly(rng, 2)
        q = _random_poly(rng, 2)
        r = _random_poly(rng, 2)
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r
        assert p + q == q + p
        assert p - p == NcPoly.zero(2)
        assert p * NcPoly.one(2) == p
        assert NcPoly.one(2) * p == p


def test_multiplication_is_noncommutative():
    x1 = NcPoly.var(1, 2)
    x2 = NcPoly.var(2, 2)
    assert x1 * x2 != x2 * x1


def test_no_zero_coefficients_survive():
    rng = random.Random(5)
    for _ in range(20):
        p = _random_poly(rng, 2)
        q = p - p
        assert q.is_zero()
        assert not q.terms()
        for word, coeff in (p * p - p * p + p).terms():
            assert not coeff.is_zero(), word


def test_degree_and_coefficient():
    p = poly_from_string("2*x1*x2 - x1 + 3")
    assert p.degree == 2
    assert p.coefficient((Letter(1), Letter(2))) == GaussianRational(2)
    assert p.coefficient((Letter(1),)) == GaussianRational(-1)
    assert p.constant_term() == GaussianRational(3)
    assert p.coefficient((Letter(2), Letter(1))) == GaussianRational(0)


def test_adjoint_is_an_anti_homomorphism():
    rng = random.Random(23)
    for _ in range(25):
        p = _random_poly(rng, 2, star=True)
        q = _random_poly(rng, 2, star=True)
        assert (p * q).adjoint() == q.adjoint() * p.adjoint()
        assert (p + q).adjoint() == p.adjoint() + q.adjoint()
        assert p.adjoint().adjoint() == p


def test_evaluate_is_a_homomorphism():
    rng_py = random.Random(31)
    rng = np.random.default_rng(31)
    d = 6
    for _ in range(12):
        p = _random_poly(rng_py, 2, star=True)
        q = _random_poly(rng_py, 2, star=True)
        mats = _random_model(rng, 2, d)
        pv = p.evaluate(mats)
        qv = q.evaluate(mats)
        scale = max(1.0, np.linalg.norm(pv) * np.linalg.norm(qv))
        assert np.linalg.norm((p * q).evaluate(mats) - pv @ qv) / scale < 1e-9
        assert np.linalg.norm((p + q).evaluate(mats) - (pv + qv)) / scale < 1e-9
        assert np.linalg.norm(p.adjoint().evaluate(mats) - pv.conj().T) / scale < 1e-9


def test_text_round_trip():
    cases = [
        "x1",
        "-x1",
        "x1*x2 - x2*x1",
        "(3/2+1/2i)*x1*x2* + 1",
        "-x1 - 2*x2 + 1/2i*x1*x1",
        "(-3/2+1/2i)*x1 - 1/3",
        "x1*x1*x1 + x1*x1 + x1 + 1",
    ]
    for text in cases:
        p = poly_from_string(text)
        assert poly_from_string(str(p)) == p, text


def test_widen_and_mixed_variable_counts():
    p = poly_from_string("x1")
    q = poly_from_string("x2*x1")
    wide = p.widen(2)
    assert wide.n_vars == 2
    assert wide + q == q + wide
    with pytest.raises(VariableMismatch):
        q.widen(1)
    m = NcMatrix([[p, q]])
    assert m.n_vars == 2


# ---------------------------------------------------------------------------
# matrices


def test_matrix_shapes_and_arithmetic():
    a = random_poly_matrix(2, 2, 3, degree=1, seed=1)
    b = random_poly_matrix(2, 3, 2, degree=1, seed=2)
    prod = a @ b
    assert prod.shape == (2, 2)
    with pytest.raises(ShapeMismatch):
        _ = a + b
    ident = NcMatrix.identity(2, 2)
    assert ident @ prod == prod
    assert prod @ ident == prod
    assert (prod - prod).is_zero()


def test_matrix_adjoint_reverses_products():
    a = random_poly_matrix(2, 2, 2, degree=2, seed=3, allow_star=True)
    b = random_poly_matrix(2, 2, 2, degree=2, seed=4, allow_star=True)
    assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()
    assert a.adjoint().adjoint() == a


def test_matrix_evaluation_matches_entries():
    rng = np.random.default_rng(17)
    m = random_poly_matrix(2, 2, 3, degree=2, seed=5)
    mats = _random_model(rng, 2, 4)
    value = m.evaluate(mats)
    assert value.shape == (8, 12)
    block = value[0:4, 4:8]
    direct = m[0, 1].evaluate(mats)
    assert np.linalg.norm(block - direct) < 1e-10


def _brute_force_is_hollow(matrix: NcMatrix) -> bool:
    rows, cols = matrix.shape
    n = max(rows, cols)
    for r in range(1, rows + 1):
        for row_set in itertools.combinations(range(rows), r):
            zero_cols = [
                j
                for j in range(cols)
                if all(matrix[i, j].is_zero() for i in row_set)
            ]
            if r + len(zero_cols) > n:
                return True
    return False


def test_hollow_block_against_brute_force():
    rng = random.Random(41)
    found = 0
    for trial in range(40):
        size = rng.randint(2, 4)
        entries = []
        for i in range(size):
            row = []
            for j in range(size):
                if rng.random() < 0.45:
                    row.append(NcPoly.zero(2))
                else:
                    row.append(_random_poly(rng, 2, max_deg=1))
            entries.append(row)
        m = NcMatrix(entries, 2)
        block = _zero_block([[not p.is_zero() for p in row] for row in entries])
        expected = _brute_force_is_hollow(m)
        assert (block is not None) == expected, f"trial {trial}"
        if block is not None:
            found += 1
            rows_idx, cols_idx = block
            assert len(rows_idx) + len(cols_idx) > size
            for i in rows_idx:
                for j in cols_idx:
                    assert m[i, j].is_zero()
    assert found > 5


def test_diagonal_blocks_against_transitive_closure():
    rng = random.Random(43)
    nprng = np.random.default_rng(43)
    split = 0
    for trial in range(40):
        size = rng.randint(1, 6)
        entries = [
            [
                _random_poly(rng, 2, max_deg=2) if rng.random() < 0.25 else NcPoly.zero(2)
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        m = NcMatrix(entries, 2)
        # reach[i][j]: i and j joined through the symmetric nonzero pattern
        reach = [
            [i == j or not (m[i, j].is_zero() and m[j, i].is_zero()) for j in range(size)]
            for i in range(size)
        ]
        for k, i, j in itertools.product(range(size), repeat=3):
            reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
        expected = sorted({tuple(j for j in range(size) if reach[i][j]) for i in range(size)})
        blocks = m.diagonal_blocks()
        assert blocks == expected, f"trial {trial}"
        split += len(blocks) > 1
        # the value restricted to a block is the value of the principal
        # submatrix, with one word cache shared between the blocks
        mats = _random_model(nprng, 2, 3)
        value, cache = m.evaluate(mats), {}
        for block in blocks:
            idx = [3 * i + t for i in block for t in range(3)]
            sub = m.principal(block).evaluate(mats, cache=cache)
            assert np.array_equal(sub, value[np.ix_(idx, idx)])
    assert split > 10
    with pytest.raises(NonSquareError):
        random_poly_matrix(1, 2, 3, degree=1, seed=0).diagonal_blocks()


def test_direct_sum_and_diag():
    a = random_poly_matrix(2, 2, 2, degree=1, seed=8)
    b = random_poly_matrix(2, 3, 3, degree=1, seed=9)
    s = a.direct_sum(b)
    assert s.shape == (5, 5)
    assert s[0, 3].is_zero() and s[4, 0].is_zero()
    d = NcMatrix.diag([poly_from_string("x1"), poly_from_string("x2*x1")])
    assert d.shape == (2, 2)
    assert d[0, 1].is_zero()


def test_shift_subtracts_from_the_diagonal():
    m = NcMatrix.diag([poly_from_string("x1"), poly_from_string("x1")])
    shifted = m.shift(GaussianRational(Fraction(1, 2)))
    assert shifted[0, 0] == poly_from_string("x1 - 1/2")
    assert shifted[1, 1] == poly_from_string("x1 - 1/2")


# ---------------------------------------------------------------------------
# pencils


def test_pencil_round_trip():
    m = random_pencil(3, 3, seed=12).to_matrix()
    pencil = m.to_pencil()
    assert pencil.to_matrix() == m
    assert pencil.n_vars == 3


def test_starred_pencil_round_trip():
    m = random_poly_matrix(2, 3, 3, degree=1, seed=13, allow_star=True)
    assert m.has_star()
    pencil = m.to_pencil()
    assert (pencil.n_vars, pencil.star_letters) == (2, True)
    assert pencil.to_matrix() == m
    # the starred slots are the plain letters x3, x4
    plain = pencil.plain()
    assert (plain.n_vars, plain.star_letters) == (4, False)
    assert plain.coeffs == pencil.coeffs
    assert random_pencil(2, 3, seed=12).plain() == random_pencil(2, 3, seed=12)


def test_pencil_rejects_higher_degree():
    from ncfield.errors import DegreeTooHigh

    with pytest.raises(DegreeTooHigh):
        NcMatrix([[poly_from_string("x1*x2")]]).to_pencil()


def test_homogeneous_part_drops_the_constant():
    pencil = random_pencil(2, 3, seed=14, homogeneous=False)
    assert not pencil.is_homogeneous()
    hom = pencil.homogeneous_part()
    assert hom.is_homogeneous()
    assert not any(x for row in hom.coeffs[0] for x in row)
    assert hom.coeffs[1:] == pencil.coeffs[1:]


def test_pencil_evaluate_matches_matrix_evaluate():
    rng = np.random.default_rng(3)
    pencil = random_pencil(2, 3, seed=15)
    mats = _random_model(rng, 2, 5)
    a = pencil.evaluate(mats)
    b = pencil.to_matrix().evaluate(mats)
    assert np.array_equal(a, b)
    # one kernel, one answer: a stack of models, single models and pencils
    # all give the same bits, on starred, sparse and rectangular input
    prng, nprng = random.Random(15), np.random.default_rng(15)
    pencils = 0
    for trial in range(60):
        rows, cols, max_deg = prng.randint(1, 4), prng.randint(1, 4), trial % 4
        m = NcMatrix(
            [
                [
                    _random_poly(prng, 2, max_deg, star=True) if prng.random() < 0.6 else NcPoly.zero(2)
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ],
            2,
        )
        d = prng.randint(1, 4)
        models = [_random_model(nprng, 2, d) for _ in range(3)]
        stack = evaluate_form(*m.float_form(), models)
        assert stack.shape == (3, rows * d, cols * d)
        for value, model in zip(stack, models):
            assert np.array_equal(value, m.evaluate(model)), trial
        if m.degree <= 1:
            pencils += 1
            pencil = m.to_pencil()
            assert np.array_equal(pencil.evaluate(models[0]), pencil.to_matrix().evaluate(models[0]))
    assert pencils > 20


def _seeded_pencils():
    """Pencils with starred letters, all-zero slots and rectangular shapes."""
    prng = random.Random(21)
    pencils = []
    for trial in range(40):
        rows, cols = prng.randint(1, 4), prng.randint(1, 4)
        m = NcMatrix(
            [
                [
                    _random_poly(prng, 2, 1, star=trial % 2 == 0) if prng.random() < 0.6 else NcPoly.zero(2)
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ],
            2,
        )
        pencils.append(m.to_pencil())
    # a doubled alphabet whose starred slots are all zero
    pencils.append(random_pencil(2, 3, seed=22).widen_alphabet())
    return pencils


def test_pencil_float_form_is_its_matrix_float_form():
    tiny, huge = GaussianRational(Fraction(1, 10**400)), GaussianRational(Fraction(10**400), 3)
    wide = random_pencil(2, 3, seed=23)
    coeffs = [[list(row) for row in a] for a in wide.coeffs]
    coeffs[1][0][0], coeffs[2][0][1], coeffs[2][2][2] = huge, huge, tiny
    # row 1 holds only coefficients far below the float range
    for a in coeffs:
        a[1] = [GaussianRational(0)] * 3
    coeffs[2][1][1], coeffs[0][1][2] = tiny, GaussianRational(0, Fraction(1, 10**399))
    pencils = _seeded_pencils() + [LinearPencil(coeffs, 2)]
    for k, pencil in enumerate(pencils):
        for balance_rows in (False, True):
            if not balance_rows and k == len(pencils) - 1:
                continue  # 10^400 has no float without the row scaling
            words, c = pencil.float_form(balance_rows)
            want_words, want = pencil.to_matrix().float_form(balance_rows)
            assert words == want_words, k
            assert c.shape == want.shape and c.tobytes() == want.tobytes(), k
    forms = [p.float_form(balance_rows=True) for p in pencils]
    assert {x.star for words, _ in forms for w in words for x in w} == {False, True}
    assert any(len(words) < len(p.coeffs) for (words, _), p in zip(forms, pencils))  # zero slots


def test_pencil_shift_and_padding_are_the_matrix_ones():
    # the pencil operations work on nonzero cells; each is pinned to the
    # matrix operation it stands for, on starred, rectangular and sparse input
    for k, pencil in enumerate(_seeded_pencils()):
        matrix = pencil.to_matrix()
        padded = pencil.pad_to_square()
        assert padded.to_matrix() == matrix.pad_to_square(), k
        lam = GaussianRational(Fraction(k, 3), -1)
        assert padded.shift(lam).to_matrix() == padded.to_matrix().shift(lam), k
        if not pencil.is_square():
            with pytest.raises(NonSquareError):
                pencil.shift(lam)
        assert pencil.adjoint().to_matrix() == matrix.adjoint(), k
        assert pencil.direct_sum(pencil).to_matrix() == matrix.direct_sum(matrix), k
        wide = pencil.widen_alphabet()
        assert wide.direct_sum(wide.adjoint()).to_matrix() == matrix.direct_sum(matrix.adjoint()), k
        no_constants = [[p - p.constant_term() for p in row] for row in matrix.entries]
        assert pencil.homogeneous_part().to_matrix() == NcMatrix(no_constants, matrix.n_vars), k
        assert LinearPencil(pencil.coeffs, pencil.n_vars, pencil.star_letters) == pencil, k
    # a shift that cancels the diagonal constants leaves no zero cell behind
    assert LinearPencil([[[2, 0], [0, 2]], [[1, 1], [0, 1]]], 1).shift(2).is_homogeneous()
    plain = random_pencil(2, 3, seed=22)
    assert plain.widen_alphabet().narrow_alphabet() == plain
    starred = random_poly_matrix(2, 3, 3, degree=1, seed=13, allow_star=True).to_pencil()
    assert starred.narrow_alphabet() is starred


def test_random_generators_are_deterministic():
    a = random_poly_matrix(2, 3, 3, degree=2, seed=77)
    b = random_poly_matrix(2, 3, 3, degree=2, seed=77)
    c = random_poly_matrix(2, 3, 3, degree=2, seed=78)
    assert a == b
    assert a != c
    p = random_pencil(2, 4, seed=77, homogeneous=True)
    q = random_pencil(2, 4, seed=77, homogeneous=True)
    assert p.to_matrix() == q.to_matrix()
    assert p.is_homogeneous()


def test_scaled_value_is_exact_evaluation_at_a_scalar_point():
    rng = random.Random(43)
    for seed in range(10):
        m = random_poly_matrix(2, 2, 3, degree=2, seed=seed, complex_coeffs=True)
        m = m * GaussianRational(Fraction(1, 6), Fraction(1, 4))
        scale = m.denominator()
        assert scale == 12
        point = [(0, 0)] + [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
        got = m.scaled_value(point, scale)
        model = custom_model([np.array([[complex(*point[i])]]) for i in (1, 2)])
        want = scale * m.evaluate(model)
        assert np.abs(np.array([[complex(*x) for x in row] for row in got]) - want).max() < 1e-9
    # x1 and x1* take independent values, from slots 1 and 2
    star = NcMatrix([[poly_from_string("x1*x1' + 2", 1)]])
    assert star.scaled_value([(0, 0), (1, 2), (3, -1)], 1) == [[(7, 5)]]

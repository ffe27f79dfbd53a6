"""Exact scalar arithmetic: field axioms, parsing, snapping, exact rank.

The F_p kernel (rank, kernel, column space, products, reconstruction) is read
against exact elimination over Q(i) (``exact_rref``) as the oracle.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import exact_rref
from ncfield import GaussianRational
from ncfield.errors import InputError
from ncfield.scalars import (
    _IOTA,
    _P,
    I,
    ONE,
    ZERO,
    charpoly_zi,
    eval_zi,
    gcd_zi,
    irreducible_zi,
    kernel_mod_p,
    lift_mod_p,
    matmul_mod_p,
    moduli_above,
    mul_zi,
    rank_mod_p,
    reconstruct,
    residues_mod_p,
    squarefree_zi,
)


def _random_scalar(rng: random.Random) -> GaussianRational:
    def frac() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    return GaussianRational(frac(), frac())


def test_constants():
    assert ZERO.is_zero()
    assert ONE == GaussianRational(1)
    assert I * I == GaussianRational(-1)


def test_field_axioms_random():
    rng = random.Random(20240814)
    for _ in range(60):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        c = _random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        if not a.is_zero():
            assert a * a.inverse() == ONE


def test_conjugation_is_an_involution():
    rng = random.Random(7)
    for _ in range(30):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        norm = a * a.conjugate()
        assert norm.im == 0
        assert norm.re >= 0


def test_from_string_round_trip():
    cases = ["0", "1", "-1", "i", "-i", "3/2", "-5/7", "1+i", "3/2-1/3i", "2i", "-2/3i"]
    for text in cases:
        value = GaussianRational.from_string(text)
        again = GaussianRational.from_string(str(value))
        assert again == value, text


def test_from_string_values():
    assert GaussianRational.from_string("3/2-1/3i") == GaussianRational(
        Fraction(3, 2), Fraction(-1, 3)
    )
    assert GaussianRational.from_string("i") == I
    assert GaussianRational.from_string("-7") == GaussianRational(-7)


@pytest.mark.parametrize("bad", ["", "x", "1+", "i1", "3/2-1/3j", "1 + 2", "//2"])
def test_from_string_rejects_junk(bad):
    with pytest.raises(ValueError):
        GaussianRational.from_string(bad)


def test_division_by_zero_raises():
    with pytest.raises((ZeroDivisionError, InputError)):
        ZERO.inverse()


def test_complex_round_trip():
    value = GaussianRational(Fraction(3, 2), Fraction(-1, 3))
    z = complex(value)
    assert z == complex(1.5, -1 / 3)


def _exact_rank(rows: list) -> int:
    return len(exact_rref(rows)[1])


def _rank_p(rows: list) -> int:
    return rank_mod_p(residues_mod_p(rows))


def test_rank_exact_known_cases():
    cases = [
        ([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], 1),
        ([[ONE, ZERO], [ZERO, ONE]], 2),
        ([[ZERO, ZERO], [ZERO, ZERO]], 0),
        ([], 0),
        # i * first row equals second row, so the rank drops.
        ([[ONE, I], [I, GaussianRational(-1)]], 1),
    ]
    for rows, rank in cases:
        assert _exact_rank(rows) == rank
        assert _rank_p(rows) == rank


def test_rank_mod_p_leaves_its_input_alone():
    m = residues_mod_p([[2, 4], [1, 3]])
    before = m.copy()
    assert rank_mod_p(m) == 2
    assert (m == before).all()
    assert residues_mod_p([[1, 2], [3]]) is None


def test_rank_exact_matches_float_rank_on_random_integer_matrices():
    rng = random.Random(99)
    for trial in range(20):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        r = rng.randint(0, min(n, m))
        left = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(n)]
        right = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(r)]
        prod = [
            [sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0)) for j in range(m)]
            for i in range(n)
        ]
        rows = [[GaussianRational(v) for v in row] for row in prod]
        floats = np.array([[float(v) for v in row] for row in prod])
        exact = _exact_rank(rows)
        assert exact == np.linalg.matrix_rank(floats), f"trial {trial}"
        assert _rank_p(rows) == exact, f"trial {trial}"
        assert exact <= r


def _planted(rng: random.Random, n: int, m: int, r: int) -> list:
    """An n x m product through r columns, with fractional complex entries."""
    left = [[_random_scalar(rng) for _ in range(r)] for _ in range(n)]
    right = [[_random_scalar(rng) for _ in range(m)] for _ in range(r)]
    return [
        [sum((left[i][k] * right[k][j] for k in range(r)), ZERO) for j in range(m)]
        for i in range(n)
    ]


def test_rank_exact_matches_elimination_on_planted_ranks():
    rng = random.Random(20261018)
    full = deficient = 0
    for trial in range(80):
        n = rng.randint(1, 8)
        m = rng.randint(1, 8)
        r = rng.randint(0, min(n, m))
        rows = _planted(rng, n, m, r)
        expected = _exact_rank(rows)
        assert _rank_p(rows) == expected, f"trial {trial}"
        assert expected <= r
        if expected == min(n, m):
            full += 1
        else:
            deficient += 1
    assert full >= 10 and deficient >= 10


@pytest.mark.parametrize(
    "rows, mod_p, rank",
    [
        # det = p: the rank drops mod p below the exact rank.
        ([[_P, 0], [0, 1]], 1, 2),
        ([[1, 1], [1, 1 + _P]], 1, 2),
        # A denominator divisible by p has no residue.
        ([[Fraction(1, _P), 0], [0, 1]], None, 2),
        ([[Fraction(1, _P), Fraction(2, _P)], [1, 2]], None, 1),
        # i maps to a square root of -1 mod p: the second row is i times the first.
        ([[ONE, I], [I, GaussianRational(-1)]], 1, 1),
        ([[ONE, I], [ONE, -I]], 2, 2),
        ([[ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]], 0, 0),
        ([[]], 0, 0),
    ],
)
def test_rank_exact_falls_back_where_the_prime_is_unlucky(rows, mod_p, rank):
    """Rank mod p is a lower bound: equal, lower, or undefined (None)."""
    residues = residues_mod_p(rows)
    if mod_p is None:
        assert residues is None
    else:
        assert rank_mod_p(residues) == mod_p
    assert _exact_rank(rows) == rank


def test_residue_product_does_not_overflow():
    a = np.full((8, 8), _P - 1, dtype=np.int64)
    exact = [[sum(int(x) * int(y) for x, y in zip(row, col)) % _P for col in a.T] for row in a]
    assert matmul_mod_p(a, a).tolist() == exact
    # a plain int64 product wraps around
    assert (a @ a % _P).tolist() != exact


def test_moduli_are_primes_below_2_31_whose_product_clears_the_bound():
    def is_prime(q):
        return q > 1 and all(q % f for f in range(2, math.isqrt(q) + 1))

    assert moduli_above(0) == moduli_above(_P - 1) == [_P]
    assert len(moduli_above(_P)) == 2
    moduli = moduli_above(2**400)
    assert math.prod(moduli[:-1]) <= 2**400 < math.prod(moduli)
    assert moduli[0] == _P and len(set(moduli)) == len(moduli)
    assert all(q < 2**31 and is_prime(q) for q in moduli[:3])
    # no prime between consecutive moduli is skipped
    assert not any(is_prime(q) for q in range(moduli[2] + 1, moduli[1]))
    rng = np.random.default_rng(3)
    for q in moduli[:3]:
        a = rng.integers(0, q, size=(2, 5, 6))
        b = rng.integers(0, q, size=(6, 4))
        exact = [[[sum(int(x) * int(y) for x, y in zip(row, col)) % q for col in b.T]
                  for row in mat] for mat in a]
        assert matmul_mod_p(a, b, q).tolist() == exact


def test_kernel_and_column_space_mod_p_on_planted_ranks():
    rng = random.Random(7)
    for trial in range(40):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rows = _planted(rng, n, m, rng.randint(0, min(n, m)))
        res = residues_mod_p(rows)
        rank = rank_mod_p(res)
        ker = kernel_mod_p(res)
        assert ker.shape == (m, m - rank), f"trial {trial}"
        assert not matmul_mod_p(res, ker).any(), f"trial {trial}"
        assert rank_mod_p(ker) == m - rank, f"trial {trial}"
        # the column space is read through its annihilator, the left kernel
        coker = kernel_mod_p(res.T)
        assert coker.shape == (n, n - rank), f"trial {trial}"
        assert not matmul_mod_p(coker.T, res).any(), f"trial {trial}"


def test_kernel_mod_p_basis_is_reduced():
    # the kernel of [1 2 3] has the basis with 1 at one free column, 0 at the other
    ker = kernel_mod_p(residues_mod_p([[1, 2, 3]]))
    assert ker.tolist() == [[_P - 2, _P - 3], [1, 0], [0, 1]]
    assert kernel_mod_p(np.zeros((0, 2), dtype=np.int64)).tolist() == [[1, 0], [0, 1]]


def test_reconstruction_recovers_small_fractions():
    rng = random.Random(3)
    for _ in range(200):
        x = Fraction(rng.randint(-32767, 32767), rng.randint(1, 32767))
        assert reconstruct(x.numerator * pow(x.denominator, -1, _P) % _P) == x
    # about 0.6 of all residues have some fraction within the bound; this one has none
    assert reconstruct(123457 * pow(98765, -1, _P) % _P) is None


def test_lift_splits_gaussian_entries():
    rows = [[GaussianRational(Fraction(1, 3), -2), GaussianRational(0, Fraction(5, 7))],
            [GaussianRational(-4), ZERO]]
    conj = [[x.conjugate() for x in row] for row in rows]
    assert lift_mod_p(residues_mod_p(rows), residues_mod_p(conj)) == rows
    far = residues_mod_p([[Fraction(123457, 98765)]])
    assert lift_mod_p(far, far) is None
    # the conjugate reductions really are the reductions at i = -iota
    assert residues_mod_p([[I]])[0, 0] == _IOTA
    assert residues_mod_p([[-I]])[0, 0] == _P - _IOTA


def test_charpoly_matches_numpy_on_gaussian_integer_matrices():
    rng = random.Random(41)
    for n in range(1, 6):
        for _ in range(10):
            m = [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            want = np.poly(np.array([[complex(*x) for x in row] for row in m]))
            # integer coefficients far below 2^53, so rounding is exact
            want = [(round(z.real), round(z.imag)) for z in want]
            assert charpoly_zi(m) == want


def _from_roots(roots):
    f = [(1, 0)]
    for re, im in roots:
        f = mul_zi(f, [(1, 0), (-re, -im)])
    return f


def test_gcd_and_squarefree_part_keep_each_common_root_once():
    f = _from_roots([(1, 0), (1, 0), (0, -1), (2, 3)])
    h = _from_roots([(1, 0), (2, 3), (2, 3), (-5, 0)])
    g = gcd_zi(f, h)
    assert len(g) == 3  # (t - 1)(t - 2 - 3i), up to a scalar
    assert eval_zi(g, (1, 0)) == eval_zi(g, (2, 3)) == (0, 0)
    sf = squarefree_zi(f)
    assert len(sf) == 4
    assert all(eval_zi(sf, w) == (0, 0) for w in ((1, 0), (0, -1), (2, 3)))
    assert len(gcd_zi(f, _from_roots([(4, 4)]))) == 1  # coprime: a constant


def test_gcd_of_planted_characteristic_polynomials_is_the_planted_factor():
    # A primitive remainder sequence returns the factor times a scalar of
    # about 142,000 bits; the subresultant one returns the monic factor.
    rng = random.Random(12)
    factor = [(1, 0)] + [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)]

    def planted():
        m = [[(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(12)] for _ in range(12)]
        return mul_zi(charpoly_zi(m), factor)

    assert gcd_zi(planted(), planted()) == factor


def _qq_i(f):
    """f as a sympy polynomial over Q(i), monic, for comparison up to a scalar."""
    import sympy  # the oracle only; ncfield does not depend on it

    t = sympy.Symbol("t")
    expr = sum((re + im * sympy.I) * t ** (len(f) - 1 - k) for k, (re, im) in enumerate(f))
    return sympy.Poly(expr, t, domain="QQ_I").monic()


def test_gcd_and_squarefree_part_agree_with_sympy_over_the_gaussian_rationals():
    rng = random.Random(29)

    def poly(k):
        lead = (rng.randint(1, 4), rng.randint(-4, 4))
        return [lead] + [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(k)]

    coprime = 0
    for _ in range(40):
        common = poly(rng.randint(0, 3))
        f = mul_zi(common, mul_zi(poly(rng.randint(0, 4)), poly(rng.randint(0, 2))))
        h = mul_zi(common, poly(rng.randint(0, 5)))
        g = gcd_zi(f, h)
        assert _qq_i(g) == _qq_i(f).gcd(_qq_i(h))
        coprime += len(g) == 1
        assert _qq_i(squarefree_zi(f)) == _qq_i(f).sqf_part().monic()
        # repeated factors too: f * common^2
        repeated = mul_zi(f, mul_zi(common, common))
        assert _qq_i(squarefree_zi(repeated)) == _qq_i(repeated).sqf_part().monic()
    assert 0 < coprime < 40


def test_irreducibility_agrees_with_sympy_over_the_gaussian_rationals():
    import sympy  # the oracle only; ncfield does not depend on it

    t = sympy.Symbol("t")
    rng = random.Random(23)

    def monic(k):
        return [(1, 0)] + [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k)]

    cases = [monic(rng.randint(2, 5)) for _ in range(16)]
    cases += [mul_zi(monic(1 + k % 2), monic(1 + k % 3)) for k in range(8)]
    # t^2 + 1 and t^2 - 2t + 2 split over Q(i) though not over Q; t^2 + 2 does not
    cases += [[(1, 0), (0, 0), (1, 0)], [(1, 0), (-2, 0), (2, 0)], [(1, 0), (0, 0), (2, 0)]]
    verdicts = set()
    for f in cases:
        expr = sum((re + im * sympy.I) * t ** (len(f) - 1 - k) for k, (re, im) in enumerate(f))
        factors = sympy.factor_list(expr, t, gaussian=True)[1]
        irreducible = len(factors) == 1 and factors[0][1] == 1
        assert irreducible_zi(f) == irreducible, f
        verdicts.add(irreducible)
    assert verdicts == {True, False}
    # irreducible over Q(i) and split modulo every prime: never proved
    assert not irreducible_zi([(1, 0), (0, 0), (-10, 0), (0, 0), (1, 0)])

"""Linear representations: evaluation identity, size bounds, serialization."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from ncfield import (
    Add,
    Adjoint,
    Const,
    GaussianRational,
    Inv,
    Mul,
    NcMatrix,
    Neg,
    Var,
    custom_model,
    domain_check,
    eval_and_check,
    eval_numeric,
    eval_rep,
    expr_adjoint,
    linearize_matrix,
    parse,
    rank_by_substitution,
    realize,
    sample,
    unparse,
)
from ncfield.errors import OutOfDomain
from ncfield.ratexpr import is_polynomial


def _random_expr(rng: random.Random, depth: int, n_vars: int = 2, inv_bias: float = 0.2):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return Const(GaussianRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-1, 1))))
        return Var(rng.randint(1, n_vars))
    roll = rng.random()
    if roll < inv_bias:
        return Inv(_random_expr(rng, depth - 1, n_vars, inv_bias))
    if roll < inv_bias + 0.1:
        return Neg(_random_expr(rng, depth - 1, n_vars, inv_bias))
    if roll < inv_bias + 0.2:
        return Adjoint(_random_expr(rng, depth - 1, n_vars, inv_bias))
    if roll < inv_bias + 0.6:
        return Add(_random_expr(rng, depth - 1, n_vars, inv_bias), _random_expr(rng, depth - 1, n_vars, inv_bias))
    return Mul(_random_expr(rng, depth - 1, n_vars, inv_bias), _random_expr(rng, depth - 1, n_vars, inv_bias))


def _leaves_and_invs(e):
    if isinstance(e, (Var, Const)):
        return 1, 0
    if isinstance(e, Inv):
        leaves, invs = _leaves_and_invs(e.child)
        return leaves, invs + 1
    if isinstance(e, (Neg, Adjoint)):
        return _leaves_and_invs(e.child)
    l1, i1 = _leaves_and_invs(e.left)
    l2, i2 = _leaves_and_invs(e.right)
    return l1 + l2, i1 + i2


def test_middle_inverse_identity():
    expr = parse("x2*inv(x1*x2)*x1")
    rep = realize(expr, 2)
    rng = np.random.default_rng(42)
    for trial in range(5):
        d = 24
        model = custom_model(
            [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2)]
        )
        value = eval_rep(rep, model)
        assert np.linalg.norm(value - np.eye(d)) < 1e-9, f"trial {trial}"


def test_equal_functions_built_differently_agree():
    pairs = [
        ("inv(x1)*inv(x2)", "inv(x2*x1)"),
        ("x1*inv(x1*x1)*x1", "1"),
        ("(x1 + x2)*inv(x1*x2)", "x1*inv(x1*x2) + x2*inv(x1*x2)"),
        ("inv(x1 + x2*x1)", "inv(x1)*inv(1 + x2)"),
    ]
    rng = np.random.default_rng(7)
    for left_text, right_text in pairs:
        left = realize(parse(left_text), 2)
        right = realize(parse(right_text), 2)
        agreed = 0
        for _ in range(4):
            d = 15
            model = custom_model(
                [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2)]
            )
            try:
                a = eval_rep(left, model)
                b = eval_rep(right, model)
            except OutOfDomain:
                continue
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(a - b) / scale < 1e-8, (left_text, right_text)
            agreed += 1
        assert agreed >= 2, (left_text, right_text)


def test_rep_agrees_with_direct_evaluation():
    rng_py = random.Random(314)
    rng = np.random.default_rng(314)
    agreed = 0
    # depth 4 with fewer inverses: polynomial factors of products
    exprs = [_random_expr(rng_py, rng_py.randint(1, 3)) for _ in range(30)]
    exprs += [_random_expr(rng_py, 4, inv_bias=0.1) for _ in range(15)]
    for e in exprs:
        rep = realize(e, 2)
        model = custom_model(
            [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(2)]
        )
        try:
            direct = eval_numeric(e, model)
            via_rep = eval_rep(rep, model)
        except OutOfDomain:
            continue
        scale = max(1.0, np.linalg.norm(direct))
        assert np.linalg.norm(via_rep - direct) / scale < 1e-8
        agreed += 1
    assert agreed > 20


def test_adjoint_representation():
    rng = np.random.default_rng(11)
    for text in ["x1*inv(x1*x2)*x2", "inv(x1 + 2)", "x1'*x2 + 1"]:
        e = parse(text)
        rep = realize(e, 2)
        rep_star = realize(expr_adjoint(e), 2)
        model = custom_model(
            [rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)) for _ in range(2)]
        )
        a = eval_rep(rep, model)
        b = eval_rep(rep_star, model)
        assert np.linalg.norm(b - a.conj().T) < 1e-8, text


def _letters(poly):
    return sum(len(word) for word, _ in poly.terms())


def _expansion_copying_no_letter(e):
    """The expansion of e when e has no inverse and no product in it copies
    letters (expands to more letters than its factors have together)."""
    poly = is_polynomial(e, 2)
    if poly is None or isinstance(e, (Var, Const)):
        return poly
    if isinstance(e, (Neg, Adjoint)):
        return poly if _expansion_copying_no_letter(e.child) is not None else None
    left = _expansion_copying_no_letter(e.left)
    right = _expansion_copying_no_letter(e.right)
    if left is None or right is None:
        return None
    if isinstance(e, Mul) and _letters(poly) > _letters(left) + _letters(right):
        return None
    return poly


def test_size_contract():
    rng = random.Random(8)
    exprs = [_random_expr(rng, rng.randint(1, 4)) for _ in range(40)]
    # a factored power, whose expansion has 30 distinct proper prefixes
    exprs.append(parse("(x1 + x2)*(x1 + x2)*(x1 + x2)*(x1 + x2)*(x1 + x2)"))
    expanded = 0
    for e in exprs:
        rep = realize(e, 2)
        leaves, invs = _leaves_and_invs(e)
        assert rep.k <= 2 * leaves + invs, (rep.k, leaves, invs)
        assert len(rep.u) == rep.k and len(rep.v) == rep.k
        poly = _expansion_copying_no_letter(e)
        if poly is not None:
            assert rep.k == 2 + linearize_matrix(NcMatrix([[poly]], 2))[1], unparse(e)
            expanded += 1
    assert expanded >= 5


@pytest.mark.parametrize(
    "text, k",
    [
        ("x2*inv(x1*x2)*x1", 6),
        ("inv(x1 + x2*x1) - x1'", 6),
        ("inv(1 + x1*inv(x2 + 3)*x1') + x2*x1", 9),
    ],
)
def test_polynomial_factors_share_a_node_with_their_product(text, k):
    # x1*x2 realizes at 2 + 1; a polynomial factor of a product drops the
    # unit pivot next to the coupling
    rep = realize(parse(text), 2)
    assert rep.k == k
    model = sample("ginibre", 9, 2, seed=5)
    direct = eval_numeric(parse(text), model)
    assert np.linalg.norm(eval_rep(rep, model) - direct) / max(1.0, np.linalg.norm(direct)) < 1e-9


def test_realized_pencil_is_full():
    exprs = [parse(text) for text in ["x2*inv(x1*x2)*x1", "inv(x1)*inv(x2)", "x1 + x2*x1", "inv(1 + x1*x1)"]]
    rng = random.Random(27)
    exprs += [_random_expr(rng, 3, inv_bias=0.25) for _ in range(8)]
    for e in exprs:
        rep = realize(e, 2)
        result = rank_by_substitution(rep.pencil.to_matrix(), seed=3)
        assert result.rho == rep.k, unparse(e)


def test_domain_check_flags_singular_points():
    rep = realize(parse("inv(x1*x2 - x2*x1)"), 2)
    scalar_point = custom_model([np.array([[2.0 + 0j]]), np.array([[-1.0 + 0j]])])
    report = domain_check(rep, scalar_point)
    assert not report.ok
    assert report.sigma_min < report.threshold
    generic = sample("ginibre", 6, 2, seed=4)
    assert domain_check(rep, generic).ok
    checked, value = eval_and_check(rep, generic)
    assert checked == domain_check(rep, generic)
    assert np.array_equal(value, eval_rep(rep, generic))
    with pytest.raises(OutOfDomain):
        eval_rep(rep, scalar_point)
    with pytest.raises(OutOfDomain):
        eval_and_check(rep, scalar_point)


def test_constant_and_variable_representations():
    rng = np.random.default_rng(20)
    model = custom_model([rng.standard_normal((5, 5)) + 0j])
    half = realize(parse("1/2"), 1)
    assert half.k <= 2
    assert np.linalg.norm(eval_rep(half, model) - 0.5 * np.eye(5)) < 1e-12
    just_x = realize(parse("x1"), 1)
    assert np.linalg.norm(eval_rep(just_x, model) - model.matrices[0]) < 1e-12

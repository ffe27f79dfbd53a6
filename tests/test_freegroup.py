"""Free group ball enumeration and the exact dual operator identity."""

from __future__ import annotations

import time

import numpy as np
import pytest

from ncfield import (
    build_ball,
    commutator_defect,
    dual_op,
    dual_system_report,
    freegroup,
    left_regular,
)
from ncfield.errors import InputError
from ncfield.freegroup import BALL_SIZE_GUARD, ball_size, vu_fixed_indices, word_str


# Reference implementation: words as tuples of nonzero integers, +i for g_i
# and -i for its inverse, enumerated and multiplied letter by letter.


def left_multiply(letter: int, word):
    """Reduced product g_letter * word (letter is +i or -i)."""
    if word and word[0] == -letter:
        return word[1:]
    return (letter,) + word


def right_multiply(word, letter: int):
    """Reduced product word * g_letter."""
    if word and word[-1] == -letter:
        return word[:-1]
    return word + (letter,)


def _enumerate_ball(n: int, radius: int):
    """All reduced words up to the radius in length-then-lex order."""
    letters = [s * i for i in range(1, n + 1) for s in (1, -1)]
    words = [()]
    shell = [()]
    for _ in range(radius):
        shell = [
            w + (ltr,) for w in shell for ltr in letters if not (w and w[-1] == -ltr)
        ]
        words.extend(shell)
    return words


def _oracle_operators(n: int, radius: int):
    """U_i and V_i index arrays read word by word from the tuple enumeration."""
    words = _enumerate_ball(n, radius)
    index = {w: k for k, w in enumerate(words)}
    u_ops = [
        [index.get(left_multiply(i, w), -1) for w in words] for i in range(1, n + 1)
    ]
    v_ops = [
        [index[right_multiply(w, -i)] if w and w[-1] == i else -1 for w in words]
        for i in range(1, n + 1)
    ]
    return words, index, u_ops, v_ops


def _after(second: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Index array of the product second * first; -1 stands for zero."""
    return np.array([second[k] if k >= 0 else -1 for k in first], dtype=np.int64)


def _adjoint(op: np.ndarray) -> np.ndarray:
    """Index array of the adjoint of a partial permutation: its inverse."""
    inverse = np.full(op.size, -1, dtype=np.int64)
    for col, row in enumerate(op):
        if row >= 0:
            inverse[row] = col
    return inverse


def _brute_force_words(n: int, radius: int):
    """All reduced words up to the radius, grown letter by letter."""
    letters = [s * i for i in range(1, n + 1) for s in (1, -1)]
    seen = {()}
    frontier = [()]
    for _ in range(radius):
        grown = []
        for w in frontier:
            for ltr in letters:
                if w and w[-1] == -ltr:
                    continue
                out = w + (ltr,)
                if out not in seen:
                    seen.add(out)
                    grown.append(out)
        frontier = grown
    return seen


def test_ball_size_matches_brute_force_enumeration():
    for n in (1, 2, 3):
        for radius in (1, 2, 3, 4):
            assert ball_size(n, radius) == len(_brute_force_words(n, radius))


def test_ball_size_closed_form_anchors():
    assert ball_size(2, 6) == 1457
    assert ball_size(3, 4) == 937
    assert ball_size(1, 4) == 9


def test_build_ball_is_ordered_and_reduced():
    ball = build_ball(2, 3)
    assert ball.size == ball_size(2, 3)
    assert ball.words[0] == ()
    lengths = [len(w) for w in ball.words]
    assert lengths == sorted(lengths)
    for w in ball.words:
        assert all(w[k] != -w[k + 1] for k in range(len(w) - 1))
    assert set(ball.words) == _brute_force_words(2, 3)
    for k, w in enumerate(ball.words):
        assert ball.index[w] == k


ORACLE_BALLS = [(n, r) for n in (1, 2, 3, 4) for r in (1, 2, 3, 4, 5)]
ORACLE_BALLS += [(1, 12), (2, 7)]


@pytest.mark.parametrize("n,radius", ORACLE_BALLS)
def test_array_ball_matches_the_tuple_enumeration(n, radius):
    words, index, u_ops, v_ops = _oracle_operators(n, radius)
    ball = build_ball(n, radius)
    assert ball.words == tuple(words)
    assert ball.index == index
    assert ball.size == len(ball) == len(words)
    assert ball.interior_count == sum(1 for w in words if len(w) < radius)
    for i in range(1, n + 1):
        assert left_regular(i, ball).tolist() == u_ops[i - 1]
        assert dual_op(i, ball).tolist() == v_ops[i - 1]


def test_guard_refuses_before_allocating(monkeypatch):
    # with numpy unreachable from the module, any array built before the
    # guard fires would raise something other than InputError
    monkeypatch.setattr(freegroup, "np", None)
    for n, radius in ((26, 5), (2, 30000)):
        with pytest.raises(InputError, match=f"more than {BALL_SIZE_GUARD} words"):
            build_ball(n, radius)


def test_interior_words_are_those_shorter_than_the_radius():
    ball = build_ball(2, 3)
    interior = ball.interior_indices()
    assert all(len(ball.words[k]) <= 2 for k in interior)
    assert len(interior) == ball_size(2, 2) == ball.interior_count
    # the interior is a prefix of the canonical order
    assert interior == range(ball.interior_count)
    assert all(len(w) == 3 for w in ball.words[ball.interior_count:])


def test_ball_guard_and_argument_validation():
    with pytest.raises(InputError):
        build_ball(26, 5)
    with pytest.raises(InputError):
        build_ball(0, 3)
    with pytest.raises(InputError):
        build_ball(2, 0)
    with pytest.raises(InputError):
        ball_size(2, -1)
    # refused before its exact size, a number of more than 4300 digits, is formed
    with pytest.raises(InputError, match=f"more than {BALL_SIZE_GUARD} words"):
        build_ball(2, 30000)
    assert ball_size(2, 30) == 1 + 4 * (3**30 - 1) // 2


def test_word_reduction_and_rendering():
    assert left_multiply(1, (-1, 2)) == (2,)
    assert left_multiply(2, (1,)) == (2, 1)
    assert right_multiply((2, 1), -1) == (2,)
    assert right_multiply((2,), 1) == (2, 1)
    assert word_str(()) == "e"
    assert word_str((1, -2)) == "g1.g2^-1"


def test_left_regular_action_on_words():
    ball = build_ball(2, 3)
    u1 = left_regular(1, ball)
    assert u1[ball.index[(2,)]] == ball.index[(1, 2)]
    assert u1[ball.index[(-1, 2)]] == ball.index[(2,)]
    # a boundary word whose image would leave the ball is dropped
    long_word = next(w for w in ball.words if len(w) == 3 and w[0] != -1)
    assert u1[ball.index[long_word]] == -1


def test_dual_action_on_words():
    ball = build_ball(2, 3)
    v1 = dual_op(1, ball)
    assert v1[ball.index[(2, 1)]] == ball.index[(2,)]
    assert v1[ball.index[(1,)]] == ball.index[()]
    assert v1[ball.index[()]] == -1
    assert v1[ball.index[(2,)]] == -1


def test_operators_are_partial_permutations():
    ball = build_ball(2, 3)
    for i in (1, 2):
        for op in (left_regular(i, ball), dual_op(i, ball)):
            assert op.shape == (ball.size,)
            assert op.min() >= -1 and op.max() < ball.size
            images = op[op >= 0]
            assert len(set(images.tolist())) == len(images)


def test_adjoint_and_compose_are_consistent():
    ball = build_ball(2, 2)
    u1 = left_regular(1, ball)
    v1 = dual_op(1, ball)
    adj = _adjoint(u1)
    assert np.array_equal(_adjoint(adj), u1)
    for col, row in enumerate(u1):
        if row >= 0:
            assert adj[row] == col
    # the adjoint of V_1 multiplies on the right by g_1
    v1_adj = _adjoint(v1)
    assert v1_adj[ball.index[(2,)]] == ball.index[(2, 1)]
    # composition agrees with applying one operator after the other
    both = _after(u1, v1)
    for col in range(ball.size):
        mid = v1[col]
        assert both[col] == (u1[mid] if mid >= 0 else -1)


def test_commutator_identity_exact_for_two_generators():
    ball = build_ball(2, 6)
    for i in (1, 2):
        for j in (1, 2):
            defect, ok = commutator_defect(i, j, ball)
            assert ok
            assert defect == 0 and isinstance(defect, int)


def test_commutator_identity_exact_for_one_and_three_generators():
    for n, radius in ((1, 4), (3, 4)):
        ball = build_ball(n, radius)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                defect, ok = commutator_defect(i, j, ball)
                assert ok and defect == 0


def test_vu_fixed_sets_match_brute_force():
    ball = build_ball(2, 3)
    u1 = left_regular(1, ball)
    v1 = dual_op(1, ball)
    vu = _after(v1, u1)
    vu_fixed, vvstar_fixed = vu_fixed_indices(1, ball)
    for h in ball.interior_indices():
        fixed = vu[h] == h
        assert fixed == (h in vu_fixed)
    vvstar = _after(v1, _adjoint(v1))
    for h in ball.interior_indices():
        fixed = vvstar[h] == h
        assert fixed == (h in vvstar_fixed)
    # V_1 U_1 is far from the identity: only powers of g_1 are fixed, and a
    # word like (2, 1) comes back as the different word (1, 2)
    assert len(vu_fixed) < len(ball.interior_indices())
    assert all(all(v == 1 for v in ball.words[h]) for h in vu_fixed)
    moved = vu[ball.index[(2, 1)]]
    assert moved == ball.index[(1, 2)]


def test_dual_system_report_shape_and_verdict():
    report = dual_system_report(2, 4)
    assert report["n"] == 2 and report["R"] == 4
    assert report["ball_size"] == ball_size(2, 4)
    assert report["interior_count"] == ball_size(2, 3)
    assert report["all_pass"]
    assert len(report["pairs"]) == 4
    for pair in report["pairs"]:
        assert pair["pass"] and pair["defect"] == "0"


def test_dual_system_report_builds_each_operator_once(monkeypatch):
    calls = {"left_regular": 0, "dual_op": 0}

    def counted(name):
        build = getattr(freegroup, name)

        def wrapper(i, ball):
            calls[name] += 1
            return build(i, ball)

        return wrapper

    for name in calls:
        monkeypatch.setattr(freegroup, name, counted(name))
    assert dual_system_report(3, 4)["all_pass"]
    assert calls == {"left_regular": 3, "dual_op": 3}


def test_wrong_dual_operators_fail_every_pair(monkeypatch):
    # with V_j replaced by U_j the identity breaks on every pair: off the
    # diagonal U_i U_j e != U_j U_i e, and on it the delta_e term is left over
    monkeypatch.setattr(freegroup, "dual_op", left_regular)
    report = dual_system_report(2, 4)
    assert not report["all_pass"]
    assert len(report["pairs"]) == 4
    for pair in report["pairs"]:
        assert pair["defect"] != "0" and not pair["pass"]


def test_dual_system_scales_to_large_balls():
    start = time.perf_counter()
    report = dual_system_report(2, 8)
    assert time.perf_counter() - start < 1.0
    assert report["all_pass"]
    start = time.perf_counter()
    big = dual_system_report(2, 11)
    assert time.perf_counter() - start < 1.0
    assert big["ball_size"] == 354293 <= BALL_SIZE_GUARD
    assert big["all_pass"]
    assert [p["defect"] for p in big["pairs"]] == ["0"] * 4

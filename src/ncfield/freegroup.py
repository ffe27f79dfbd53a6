"""Truncated left regular representation of a free group, with dual operators.

Words of the free group on n generators are stored as tuples of nonzero
integers, +i for the generator g_i and -i for its inverse, always in reduced
form.  The ball of radius R (all reduced words of length at most R) carries
truncated versions of the left regular operators U_i = lambda(g_i) and of the
dual operators V_i, which act by right multiplication with g_i^{-1} on words
ending with g_i and by zero on all other words.

On interior basis vectors (words of length at most R-1, which cannot leave
the ball under a single U_i) the pair satisfies the exact commutator relation

    (U_i V_j - V_j U_i) delta_h = -delta_{ij} <delta_h, delta_e> delta_e.

Both sides vanish unless i = j and h = e, where U_iV_i kills delta_e while
V_iU_i returns it, so the sign on the right is forced.  Equivalently the
operators -V_1, ..., -V_n form a dual system for U_1, ..., U_n, which is the
finite-dimensional shadow of the criterion for maximal free entropy-like
defect of the generators.  Everything in this module runs in exact
arithmetic; there is no floating point anywhere, so a nonzero defect is a
genuine failure and not noise.

Note on one-sided inverses: U_i is injective on the interior, but V_i U_i is
not the identity there.  V_i U_i prepends g_i and then strips a trailing
g_i, which reproduces h only when prepending and appending agree, that is,
when h is a power of g_i (including the empty word).  Words that merely end
with g_i come back as a different word, and everything else dies.  The
honest one-sided identity pairs V_i with its adjoint (right multiplication
by g_i): V_i V_i* fixes every interior vector whose word does not end with
g_i^{-1}.  Both facts are exposed through ``vu_fixed_indices`` and checked
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .errors import InputError

Word = Tuple[int, ...]

# Refuse to materialize balls beyond this many words.
BALL_SIZE_GUARD = 10**6


def ball_size(n: int, radius: int) -> int:
    """Number of reduced words of length <= radius over n free generators.

    Closed form 1 + sum_{k=1..R} 2n (2n-1)^(k-1): a reduced word extends by
    any of the 2n letters except the inverse of its last one.
    """
    if n < 1:
        raise InputError(f"need at least one generator, got n={n}")
    if radius < 0:
        raise InputError(f"ball radius must be nonnegative, got {radius}")
    total = 1
    shell = 2 * n
    for _ in range(radius):
        total += shell
        shell *= 2 * n - 1
    return total


def left_multiply(letter: int, word: Word) -> Word:
    """Reduced product g_letter * word (letter is +i or -i)."""
    if word and word[0] == -letter:
        return word[1:]
    return (letter,) + word


def right_multiply(word: Word, letter: int) -> Word:
    """Reduced product word * g_letter."""
    if word and word[-1] == -letter:
        return word[:-1]
    return word + (letter,)


def word_str(word: Word) -> str:
    """Human-readable form of a word, empty word rendered as 'e'."""
    if not word:
        return "e"
    return ".".join(f"g{v}" if v > 0 else f"g{-v}^-1" for v in word)


@dataclass(frozen=True)
class GroupBall:
    """All reduced words of length <= radius, in length-then-lex order.

    Letters are ordered g_1 < g_1^{-1} < g_2 < g_2^{-1} < ...; the empty
    word sits at index 0.  ``index`` maps each word back to its position.
    """

    n: int
    radius: int
    words: Tuple[Word, ...]
    index: Dict[Word, int] = field(compare=False)

    def __len__(self) -> int:
        return len(self.words)

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def interior_count(self) -> int:
        """Number of words of length <= radius - 1 (safe under one U_i)."""
        return ball_size(self.n, self.radius - 1)

    def interior_indices(self) -> range:
        """Indices of the interior words, a prefix of the canonical order."""
        return range(self.interior_count)

    def contains(self, word: Word) -> bool:
        return word in self.index


def build_ball(n: int, radius: int) -> GroupBall:
    """Enumerate the ball of the given radius in canonical order."""
    if n < 1:
        raise InputError(f"need at least one generator, got n={n}")
    if radius < 1:
        raise InputError(f"ball radius must be at least 1, got {radius}")
    # Count shell by shell and stop at the guard, so a huge radius is
    # refused at once instead of forming a count with thousands of digits.
    count, shell_size = 1, 2 * n
    for _ in range(radius):
        count += shell_size
        if count > BALL_SIZE_GUARD:
            raise InputError(
                f"ball of radius {radius} over {n} generators holds more "
                f"than {BALL_SIZE_GUARD} words"
            )
        shell_size *= 2 * n - 1
    letters: List[int] = []
    for i in range(1, n + 1):
        letters.extend((i, -i))
    words: List[Word] = [()]
    shell: List[Word] = [()]
    for _ in range(radius):
        grown: List[Word] = []
        for w in shell:
            last = w[-1] if w else 0
            for ltr in letters:
                if ltr != -last:
                    grown.append(w + (ltr,))
        words.extend(grown)
        shell = grown
    index = {w: k for k, w in enumerate(words)}
    return GroupBall(n=n, radius=radius, words=tuple(words), index=index)


def left_regular(i: int, ball: GroupBall) -> np.ndarray:
    """Truncation of U_i = lambda(g_i) as an index array.

    Entry h holds the index of g_i h, or -1 where that word leaves the ball;
    U_i is a partial permutation, so this array is the whole operator.
    Dropping the images that leave the ball is exactly why the commutator
    identity is only asserted on interior vectors.
    """
    _check_generator(i, ball)
    index = ball.index
    return np.fromiter(
        (index.get(left_multiply(i, w), -1) for w in ball.words),
        dtype=np.int64,
        count=ball.size,
    )


def dual_op(i: int, ball: GroupBall) -> np.ndarray:
    """The dual operator V_i: delta_h -> delta_{h g_i^{-1}} if h ends with g_i.

    Returned as an index array like ``left_regular``: -1 marks the words not
    ending with g_i (including the empty word), which V_i sends to zero.
    Right multiplication by g_i^{-1} shortens the word, so every other image
    stays inside the ball.
    """
    _check_generator(i, ball)
    index = ball.index
    return np.fromiter(
        (index[w[:-1]] if w and w[-1] == i else -1 for w in ball.words),
        dtype=np.int64,
        count=ball.size,
    )


def _check_generator(i: int, ball: GroupBall) -> None:
    if not 1 <= i <= ball.n:
        raise InputError(f"generator index {i} outside 1..{ball.n}")


def _then(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Index array of ``second`` after ``first``; -1 (zero) stays -1."""
    return np.where(first >= 0, second[first], -1)


def commutator_defect(i: int, j: int, ball: GroupBall) -> Tuple[int, bool]:
    """Exact check of (U_i V_j - V_j U_i) delta_h = -delta_ij <delta_h, delta_e> delta_e.

    The identity is evaluated on every interior basis vector (word length
    <= radius - 1).  Both sides are zero except at i = j and h = e, where
    U_iV_i delta_e = 0 while V_iU_i delta_e = delta_e, so the commutator
    acts as minus the projection onto delta_e.  Each side maps delta_h to a
    basis vector or to zero, so the difference has integer entries; the
    defect is the largest of their absolute values, together with a pass
    flag.  A passing run reports a defect of exactly 0.
    """
    return _defect(i == j, left_regular(i, ball), dual_op(j, ball), ball.interior_count)


def _defect(
    same: bool, u_op: np.ndarray, v_op: np.ndarray, interior: int
) -> Tuple[int, bool]:
    """``commutator_defect`` from the index arrays of U_i and V_j."""
    forward = _then(v_op[:interior], u_op)
    backward = _then(u_op[:interior], v_op)
    # Off h = e each side is one basis vector or zero, so the difference has
    # entries +-1 exactly where the two index arrays disagree.
    worst = int(np.any(forward[1:] != backward[1:]))
    # At h = e the difference is delta_f - delta_b, plus delta_e when i = j.
    at_e: Dict[int, int] = {0: 1} if same else {}
    for image, sign in ((int(forward[0]), 1), (int(backward[0]), -1)):
        if image >= 0:
            at_e[image] = at_e.get(image, 0) + sign
    worst = max([worst] + [abs(v) for v in at_e.values()])
    return worst, worst == 0


def vu_fixed_indices(i: int, ball: GroupBall) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Interior indices fixed by V_i U_i and by V_i V_i*, respectively.

    V_i U_i delta_h is delta_{g_i h} with a trailing g_i stripped, so the
    fixed words are exactly the powers of g_i, the empty word included.
    The second tuple holds the interior words not ending with g_i^{-1},
    which V_i V_i* fixes because the adjoint of V_i acts by right
    multiplication with g_i on exactly those words.
    """
    _check_generator(i, ball)
    vu_fixed: List[int] = []
    vvstar_fixed: List[int] = []
    for h in ball.interior_indices():
        word = ball.words[h]
        if all(v == i for v in word):
            vu_fixed.append(h)
        if not word or word[-1] != -i:
            vvstar_fixed.append(h)
    return tuple(vu_fixed), tuple(vvstar_fixed)


def dual_system_report(n: int, radius: int) -> dict:
    """Run all (i, j) commutator checks and package the results."""
    ball = build_ball(n, radius)
    u_ops = [left_regular(i, ball) for i in range(1, n + 1)]
    v_ops = [dual_op(j, ball) for j in range(1, n + 1)]
    interior = ball.interior_count
    pairs = []
    all_pass = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            defect, ok = _defect(i == j, u_ops[i - 1], v_ops[j - 1], interior)
            all_pass = all_pass and ok
            pairs.append(
                {"i": i, "j": j, "defect": str(defect), "pass": ok}
            )
    return {
        "n": n,
        "R": radius,
        "ball_size": ball.size,
        "interior_count": ball.interior_count,
        "pairs": pairs,
        "all_pass": all_pass,
    }

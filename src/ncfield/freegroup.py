"""Truncated left regular representation of a free group, with dual operators.

Words of the free group on n generators are reduced words in the letters g_i
and g_i^{-1}.  The ball of radius R (all reduced words of length at most R)
carries truncated versions of the left regular operators U_i = lambda(g_i)
and of the dual operators V_i, which act by right multiplication with
g_i^{-1} on words ending with g_i and by zero on all other words.

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

Array layout.  A letter is stored as a slot, g_i -> 2(i-1) and
g_i^{-1} -> 2(i-1)+1, so the inverse of slot s is s ^ 1.  The ball lists its
words by length, then lexicographically by slot, with the empty word at
index 0.  Shell k (the words of length k) starts at off[k] = ball_size(n,
k-1) and holds 2n q^(k-1) words, q = 2n-1.  Inside a shell the order is a
mixed-radix code: the word s_0 s_1 ... s_{k-1} sits at index off[k] + pos,

    pos = s_0 q^(k-1) + d_1 q^(k-2) + ... + d_{k-1},
    d_t = s_t - [s_t > s_{t-1} ^ 1],

where the digit d_t ranks s_t among the q letters allowed after s_{t-1}.  A
``GroupBall`` stores the offsets and, for every word, the slots of its first
and last letters (-1 for the empty word); no word tuples are formed unless
``words`` or ``index`` is read.

Operators.  For the slot a of g_i, U_i sends a word of length k < R whose
first slot s_0 is not a ^ 1 to

    off[k+1] + a q^k + pos - [s_0 > a ^ 1] q^(k-1),

the empty word to 1 + a, and a word starting with a ^ 1 to its tail.  Both
moves keep the order, so U_i is two order-preserving matchings: the interior
words not starting with g_i^{-1} onto the words starting with g_i, and the
words starting with g_i^{-1} onto the interior words not starting with g_i.
In the same way V_j matches the words ending with g_j, in order, onto the
interior words not ending with g_j^{-1}: the word at off[k] + pos goes to
off[k-1] + pos // q.  Each operator is a few whole-array numpy calls.

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
from functools import cached_property
from typing import Dict, List, Optional, Tuple

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


def word_str(word: Word) -> str:
    """Human-readable form of a word, empty word rendered as 'e'."""
    if not word:
        return "e"
    return ".".join(f"g{v}" if v > 0 else f"g{-v}^-1" for v in word)


@dataclass(frozen=True)
class GroupBall:
    """All reduced words of length <= radius, in length-then-lex order.

    Letters are ordered g_1 < g_1^{-1} < g_2 < g_2^{-1} < ...; the empty
    word sits at index 0.  ``offsets[k]`` is the index of the first word of
    length k (``offsets[radius + 1]`` is the size), and ``first_slot`` and
    ``last_slot`` give the slot of each word's first and last letter, -1 at
    the empty word (see the module docstring).  ``words`` and ``index``
    (word -> position) are derived from these arrays on first use, for
    display and tests.
    """

    n: int
    radius: int
    offsets: Tuple[int, ...] = field(repr=False)
    first_slot: np.ndarray = field(compare=False, repr=False)
    last_slot: np.ndarray = field(compare=False, repr=False)

    def __len__(self) -> int:
        return self.size

    @property
    def size(self) -> int:
        return self.offsets[-1]

    @property
    def interior_count(self) -> int:
        """Number of words of length <= radius - 1 (safe under one U_i)."""
        return self.offsets[-2]

    def interior_indices(self) -> range:
        """Indices of the interior words, a prefix of the canonical order."""
        return range(self.interior_count)

    @cached_property
    def words(self) -> Tuple[Word, ...]:
        """Every word as a tuple (+i for g_i, -i for g_i^{-1}), in order.

        Each word is its parent, the word at off[k-1] + pos // q, followed
        by its last letter.
        """
        q, off, last = 2 * self.n - 1, self.offsets, self.last_slot
        letters = ((last // 2 + 1) * (1 - 2 * (last & 1))).tolist()
        out: List[Word] = [()]
        out.extend((v,) for v in letters[1 : off[2]])
        for k in range(2, self.radius + 1):
            for h in range(off[k], off[k + 1]):
                out.append(out[off[k - 1] + (h - off[k]) // q] + (letters[h],))
        return tuple(out)

    @cached_property
    def index(self) -> Dict[Word, int]:
        return {w: k for k, w in enumerate(self.words)}


def build_ball(n: int, radius: int) -> GroupBall:
    """Lay out the ball of the given radius in canonical order."""
    if n < 1:
        raise InputError(f"need at least one generator, got n={n}")
    if radius < 1:
        raise InputError(f"ball radius must be at least 1, got {radius}")
    # Count shell by shell and stop at the guard, so a huge radius is
    # refused at once instead of forming a count with thousands of digits.
    offsets, shell_size = [0, 1], 2 * n
    for _ in range(radius):
        if offsets[-1] + shell_size > BALL_SIZE_GUARD:
            raise InputError(
                f"ball of radius {radius} over {n} generators holds more "
                f"than {BALL_SIZE_GUARD} words"
            )
        offsets.append(offsets[-1] + shell_size)
        shell_size *= 2 * n - 1
    q, size = 2 * n - 1, offsets[-1]
    slots = np.arange(2 * n)
    # follow[s] lists, in slot order, the q slots allowed after slot s.  The
    # words of shell k are the children of shell k-1 in order, so their last
    # slots are the parents' last slots each replaced by its row of follow,
    # and their first slots are the parents' first slots each repeated q times.
    digits = np.arange(q)
    follow = digits + (digits >= (slots ^ 1)[:, None])
    first = np.empty(size, dtype=np.int64)
    last = np.empty(size, dtype=np.int64)
    first[0] = last[0] = -1
    first[1 : offsets[2]] = last[1 : offsets[2]] = slots
    for k in range(2, radius + 1):
        start, stop, end = offsets[k - 1], offsets[k], offsets[k + 1]
        first[stop:end] = first[start:stop].repeat(q)
        # A contiguous slice reshapes to a view, so take writes into last.
        follow.take(last[start:stop], axis=0, out=last[stop:end].reshape(-1, q))
    return GroupBall(
        n=n, radius=radius, offsets=tuple(offsets), first_slot=first, last_slot=last
    )


def left_regular(i: int, ball: GroupBall) -> np.ndarray:
    """Truncation of U_i = lambda(g_i) as an index array.

    Entry h holds the index of g_i h, or -1 where that word leaves the ball;
    U_i is a partial permutation, so this array is the whole operator.
    Dropping the images that leave the ball is exactly why the commutator
    identity is only asserted on interior vectors.  Prepending g_i and
    cancelling a leading g_i^{-1} both keep the canonical order, so each is
    an order-preserving matching between sets read off ``first_slot``.
    """
    _check_generator(i, ball)
    a = 2 * (i - 1)
    first, interior = ball.first_slot, ball.interior_count
    cancels = first == a + 1
    image = np.empty(ball.size, dtype=np.int64)
    image.fill(-1)
    image[:interior][~cancels[:interior]] = (first == a).nonzero()[0]
    image[cancels] = (first[:interior] != a).nonzero()[0]
    return image


def dual_op(i: int, ball: GroupBall) -> np.ndarray:
    """The dual operator V_i: delta_h -> delta_{h g_i^{-1}} if h ends with g_i.

    Returned as an index array like ``left_regular``: -1 marks the words not
    ending with g_i (including the empty word), which V_i sends to zero.
    Right multiplication by g_i^{-1} shortens the word, so every other image
    stays inside the ball; it keeps the canonical order, so V_i matches the
    words ending with g_i onto the interior words not ending with g_i^{-1}.
    """
    _check_generator(i, ball)
    a = 2 * (i - 1)
    last = ball.last_slot
    image = np.empty(ball.size, dtype=np.int64)
    image.fill(-1)
    image[last == a] = (last[: ball.interior_count] != a + 1).nonzero()[0]
    return image


def _check_generator(i: int, ball: GroupBall) -> None:
    if not 1 <= i <= ball.n:
        raise InputError(f"generator index {i} outside 1..{ball.n}")


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
    u_op, v_op = _padded([left_regular(i, ball)]), _padded([dual_op(j, ball)])
    return _defects(u_op[0], v_op, ball.interior_count, 0 if i == j else None)[0]


def _padded(ops: List[np.ndarray]) -> np.ndarray:
    """Index arrays stacked as rows, each with a trailing -1.

    Index -1 stands for the zero vector, and in a padded row it reads that
    trailing -1, so composing two operators is a single fancy index.
    """
    out = np.empty((len(ops), ops[0].size + 1), dtype=np.int64)
    for row, op in zip(out, ops):
        row[:-1] = op
    out[:, -1] = -1
    return out


def _defects(
    u_op: np.ndarray, v_ops: np.ndarray, interior: int, same: Optional[int]
) -> List[Tuple[int, bool]]:
    """``commutator_defect`` of U_i against each row V_j of ``v_ops``.

    All operators are padded (see ``_padded``); ``same`` is the row holding
    V_i, if any, which owes the delta_e term.
    """
    forward = u_op[v_ops[:, :interior]]
    backward = v_ops[:, u_op[:interior]]
    # Off h = e each side is one basis vector or zero, so the difference has
    # entries +-1 exactly where the two index arrays disagree.
    off_e = (forward[:, 1:] != backward[:, 1:]).any(axis=1).tolist()
    results = []
    for row, (worst, f_e, b_e) in enumerate(
        zip(off_e, forward[:, 0].tolist(), backward[:, 0].tolist())
    ):
        # At h = e the difference is delta_f - delta_b, plus delta_e when i = j.
        at_e: Dict[int, int] = {0: 1} if row == same else {}
        for image, sign in ((f_e, 1), (b_e, -1)):
            if image >= 0:
                at_e[image] = at_e.get(image, 0) + sign
        worst = max([int(worst)] + [abs(v) for v in at_e.values()])
        results.append((worst, worst == 0))
    return results


def vu_fixed_indices(i: int, ball: GroupBall) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Interior indices fixed by V_i U_i and by V_i V_i*, respectively.

    V_i U_i delta_h is delta_{g_i h} with a trailing g_i stripped, so the
    fixed words are exactly the powers of g_i, the empty word included.
    g_i^k sits at off[k] + a (1 + q + ... + q^(k-1)) for the slot a of g_i,
    and 1 + q + ... + q^(k-1) = (off[k+1] - 1) / 2n.  The second tuple holds
    the interior words not ending with g_i^{-1}, which V_i V_i* fixes
    because the adjoint of V_i acts by right multiplication with g_i on
    exactly those words.
    """
    _check_generator(i, ball)
    a, off = 2 * (i - 1), ball.offsets
    powers = tuple(
        off[k] + a * ((off[k + 1] - 1) // (2 * ball.n)) for k in range(ball.radius)
    )
    last = ball.last_slot[: ball.interior_count]
    return powers, tuple(np.flatnonzero(last != a + 1).tolist())


def dual_system_report(n: int, radius: int) -> dict:
    """Run all (i, j) commutator checks and package the results."""
    ball = build_ball(n, radius)
    u_ops = _padded([left_regular(i, ball) for i in range(1, n + 1)])
    v_ops = _padded([dual_op(j, ball) for j in range(1, n + 1)])
    interior = ball.interior_count
    pairs = []
    for i, u_op in enumerate(u_ops, 1):
        for j, (defect, ok) in enumerate(_defects(u_op, v_ops, interior, i - 1), 1):
            pairs.append({"i": i, "j": j, "defect": str(defect), "pass": ok})
    return {
        "n": n,
        "R": radius,
        "ball_size": ball.size,
        "interior_count": interior,
        "pairs": pairs,
        "all_pass": all(p["pass"] for p in pairs),
    }

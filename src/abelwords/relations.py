"""Block-wise Parikh relations between words, and commutation witnesses.

Two words of one length relate under ~_n when ALL their length-n blocks
(from both words) share a single Parikh vector; the weaker parallel
relation only compares block i of one word with block i of the other.
Commutation is constructive: ux ~_n xu holds exactly when u and x split
into alternating alpha/beta parts with |alpha_i beta_i| = n, all alphas
Parikh-equal and all betas Parikh-equal; commute_check constructs that
witness and validates it before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .parikh import Word, _BlockSums, _sorted_blocks, has_a_root_of_length
from .primitivity import _maximal_root


@dataclass(frozen=True)
class CommutationWitness:
    r: int
    s: int
    alphas: tuple[Word, ...]
    betas: tuple[Word, ...]


def _check_pair(u: Word, x: Word, n: int) -> None:
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    if len(u) != len(x):
        raise ValueError(f"words must have equal length, got {len(u)} and {len(x)}")
    if len(u) % n:
        raise ValueError(f"block length {n} must divide the word length {len(u)}")


def sim_n(u: Word, x: Word, n: int) -> bool:
    """All 2m length-n blocks of u and x share one Parikh vector."""
    _check_pair(u, x, n)
    # n divides |u|, so the blocks of u + x are u's blocks, then x's
    return len(u) == 0 or has_a_root_of_length(u + x, n)


def simeq_n(u: Word, x: Word, n: int) -> bool:
    """Parallel blocks only: Parikh of block i of u equals block i of x."""
    _check_pair(u, x, n)
    return bool(np.array_equal(_sorted_blocks(u.letters, n), _sorted_blocks(x.letters, n)))


def _counts(wd: Word, k: int) -> tuple[int, ...]:
    # Parikh vector padded to a common alphabet size
    return tuple(int(c) for c in np.bincount(wd.letters, minlength=k))


def witness_is_valid(u: Word, x: Word, n: int, wit: CommutationWitness) -> bool:
    """Check conditions (a), (b), (c) directly against u and x."""
    r, s = wit.r, wit.s
    if r < 1 or not 1 <= s <= r:
        return False
    if len(wit.alphas) != r or len(wit.betas) != r:
        return False
    if any(len(a) + len(b) != n for a, b in zip(wit.alphas, wit.betas)):
        return False
    k = max([u.alphabet_size, x.alphabet_size]
            + [p.alphabet_size for p in wit.alphas + wit.betas])
    if len({_counts(a, k) for a in wit.alphas}) > 1:
        return False
    if len({_counts(b, k) for b in wit.betas}) > 1:
        return False
    u_parts = []
    for i in range(s - 1):
        u_parts.append(wit.alphas[i].letters)
        u_parts.append(wit.betas[i].letters)
    u_parts.append(wit.alphas[s - 1].letters)
    x_parts = [wit.betas[s - 1].letters]
    for i in range(s, r):
        x_parts.append(wit.alphas[i].letters)
        x_parts.append(wit.betas[i].letters)
    return bool(np.array_equal(np.concatenate(u_parts), u.letters)) and bool(
        np.array_equal(np.concatenate(x_parts), x.letters)
    )


def commute_check(u: Word, x: Word, n: int) -> Optional[CommutationWitness]:
    """Witness that ux ~_n xu, or None when the relation fails.

    The witness splits each length-n block of ux at offset |u| mod n:
    the left parts are the alphas, the right parts the betas, and the
    block containing the u/x boundary has index s. When n divides |u|
    the boundary is block-aligned and the alphas degenerate to empty
    words, the boundary case the witness shape explicitly permits.
    """
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    if len(u) == 0 or len(x) == 0:
        raise ValueError("commute_check requires nonempty words")
    if (len(u) + len(x)) % n:
        raise ValueError(f"block length {n} must divide |u| + |x| = {len(u) + len(x)}")
    ux = u + x
    if not sim_n(ux, x + u, n):
        return None
    r = len(ux) // n
    q = len(u) % n
    s = len(u) // n + 1
    k = ux.alphabet_size
    alphas = []
    betas = []
    for i in range(r):
        block = ux.letters[i * n : (i + 1) * n]
        alphas.append(Word(block[:q], k))
        betas.append(Word(block[q:], k))
    wit = CommutationWitness(r, s, tuple(alphas), tuple(betas))
    if not witness_is_valid(u, x, n, wit):
        raise RuntimeError(
            "internal error: commutation witness failed validation although "
            "the block relation holds"
        )
    return wit


def shared_root_check(u: Word, x: Word, n: int) -> Optional[Word]:
    """Common-root evidence for commuting words.

    Preconditions: n divides |u| and |x|, and commute_check(u, x, n)
    succeeds. If u's length-n prefix is an A-primitive root of u, every
    length-n block of x shares its Parikh vector, so x has an A-root of
    length n too; x's length-n prefix is returned as the evidence.
    Returns None when u's prefix is not an A-primitive root of u.
    """
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    if len(u) == 0 or len(x) == 0:
        raise ValueError("shared_root_check requires nonempty words")
    if len(u) % n or len(x) % n:
        raise ValueError(f"block length {n} must divide both |u| and |x|")
    ux = u + x
    sums = _BlockSums(ux)
    # n divides |u| and |x|, so ux ~_n xu says exactly that every
    # length-n block of ux, hence of u and of x, shares one Parikh vector
    if not sums.blocks_agree(len(ux), n):
        raise ValueError("precondition failed: u and x do not commute at this block length")
    if _maximal_root(sums, n) is not None:
        return None
    return x.prefix(n)

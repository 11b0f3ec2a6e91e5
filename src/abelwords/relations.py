"""Block-wise Parikh relations between words, and commutation witnesses.

Two words of one length relate under ~_n when ALL their length-n blocks
(from both words) share a single Parikh vector; the weaker parallel
relation simeq_n only compares block i of one word with block i of the
other. Commutation is constructive: ux ~_n xu holds exactly when there
are 1 <= s <= r and words alpha_1, beta_1, ..., alpha_r, beta_r with

  (a) u = alpha_1 beta_1 ... alpha_{s-1} beta_{s-1} alpha_s and
      x = beta_s alpha_{s+1} beta_{s+1} ... alpha_r beta_r;
  (b) |alpha_i beta_i| = n for every i;
  (c) all alphas share one Parikh vector, and all betas share one.

By (a) and (b), alpha_i beta_i is the i-th length-n block of ux, every
alpha has length q = |u| mod n and s = |u| div n + 1, so a witness is
stored as the offsets r, s, q and the word ux itself. Since the witness
is forced, commute_check decides the relation by checking that one
candidate against (c). sim_n and shared_root_check test u's and x's
blocks where they lie, and the only word this module concatenates is a
witness's ux.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .parikh import Word, _blocks_agree, _deferred_numpy, _sorted_blocks, has_a_root_of_length
from .primitivity import is_a_primitive

np = _deferred_numpy()


class CommutationWitness(NamedTuple):
    """ux in r blocks, u ending in block s, each block cut after q letters;
    the alphas (left parts) and betas (right parts) are built when read."""

    r: int
    s: int
    q: int
    ux: Word

    def _parts(self, lo: int, hi: int | None) -> tuple[Word, ...]:
        blocks = self.ux.letters.reshape(self.r, -1)
        return tuple(Word(block[lo:hi], self.ux.alphabet_size) for block in blocks)

    @property
    def alphas(self) -> tuple[Word, ...]:
        return self._parts(0, self.q)

    @property
    def betas(self) -> tuple[Word, ...]:
        return self._parts(self.q, None)


def _check_pair(u: Word, x: Word, n: int) -> None:
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    if len(u) != len(x):
        raise ValueError(f"words must have equal length, got {len(u)} and {len(x)}")
    if len(u) % n:
        raise ValueError(f"block length {n} must divide the word length {len(u)}")


def _blocks_share_one_vector(u: Word, x: Word, n: int) -> bool:
    """Every length-n block of u and of x has one Parikh vector; n divides
    both lengths and neither word is empty. The first blocks are compared
    sorted, as letter values, so words of different alphabet sizes relate
    as their concatenation would."""
    first = [_sorted_blocks(w.letters[:n], n) for w in (u, x)]
    return bool(np.array_equal(*first)) and all(has_a_root_of_length(w, n) for w in (u, x))


def sim_n(u: Word, x: Word, n: int) -> bool:
    """All 2m length-n blocks of u and x share one Parikh vector."""
    _check_pair(u, x, n)
    return len(u) == 0 or _blocks_share_one_vector(u, x, n)


def simeq_n(u: Word, x: Word, n: int) -> bool:
    """Parallel blocks only: Parikh of block i of u equals block i of x."""
    _check_pair(u, x, n)
    return bool(np.array_equal(_sorted_blocks(u.letters, n), _sorted_blocks(x.letters, n)))


def witness_is_valid(u: Word, x: Word, n: int, wit: CommutationWitness) -> bool:
    """Check conditions (a), (b), (c) directly against u and x."""
    r, s, q, ux = wit.r, wit.s, wit.q, wit.ux
    if r * n != len(ux) or not 1 <= s <= r or not 0 <= q < n or (s - 1) * n + q != len(u):
        return False
    cut = len(u)
    if not (np.array_equal(ux.letters[:cut], u.letters)
            and np.array_equal(ux.letters[cut:], x.letters)):
        return False
    return _parts_agree(wit)


def _parts_agree(wit: CommutationWitness) -> bool:
    """Condition (c): the alphas share one Parikh vector and so do the betas."""
    # column j of the r x n block table holds letter j of every block; the
    # parts are tested where they lie, and one row (r = 1) agrees with itself
    blocks = wit.ux.letters.reshape(wit.r, -1)
    return all(
        part.shape[1] in _blocks_agree(part.ravel(), [part.shape[1]], wit.ux.alphabet_size)
        for part in (blocks[:, :wit.q], blocks[:, wit.q:])
        if part.size
    )


def commute_check(u: Word, x: Word, n: int) -> Optional[CommutationWitness]:
    """Witness that ux ~_n xu, or None when the relation fails.

    Conditions (a) and (b) force the witness: it cuts each length-n
    block of ux at offset q = |u| mod n into alpha_i beta_i, and the
    block containing the u/x boundary has index s = |u| div n + 1. The
    candidate's ux is u + x itself, so (a) and (b) hold by construction,
    and it is returned exactly when (c) holds. That decides the
    relation: the blocks of xu are beta_i alpha_(i+1), indices taken
    cyclically, so they and the blocks alpha_i beta_i of ux all share
    one Parikh vector exactly when the alphas share one and the betas
    share one. When n divides |u| the boundary is block-aligned and the
    alphas are empty words, the boundary case the witness shape
    explicitly permits.
    """
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    if len(u) == 0 or len(x) == 0:
        raise ValueError("commute_check requires nonempty words")
    if (len(u) + len(x)) % n:
        raise ValueError(f"block length {n} must divide |u| + |x| = {len(u) + len(x)}")
    ux = u + x
    wit = CommutationWitness(len(ux) // n, len(u) // n + 1, len(u) % n, ux)
    return wit if _parts_agree(wit) else None


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
    # n divides |u| and |x|, so ux ~_n xu says exactly that every
    # length-n block of u and of x shares one Parikh vector
    if not _blocks_share_one_vector(u, x, n):
        raise ValueError("precondition failed: u and x do not commute at this block length")
    if not is_a_primitive(u.prefix(n)).is_a_primitive:
        return None
    return x.prefix(n)

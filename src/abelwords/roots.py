"""Enumeration of the Abelian roots and A-primitive roots of a word.

A-roots are prefixes by definition: the root of an Abelian-power
decomposition is its first block. The profile lists every proper
divisor of |w| whose blocks share a Parikh vector, and the subset whose
prefix is itself A-primitive. Distinct A-primitive root lengths are
always division-free: if d divided d', the d'-prefix would have an
A-root of length d and could not be A-primitive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numtheory import divisors
from .parikh import Word, _BlockSums
from .primitivity import _maximal_root


@dataclass(frozen=True)
class RootProfile:
    word_length: int
    a_root_lengths: tuple[int, ...]
    a_primitive_root_lengths: tuple[int, ...]


def root_profile(w: Word) -> RootProfile:
    """Scan all proper divisors of |w| (not only maximal ones).

    The root tests and the A-primitivity of each root prefix all run on
    one set of block sums over w.
    """
    n = len(w)
    if n < 2:
        raise ValueError("root profiles need |w| >= 2: an Abelian power has at least 2 blocks")
    sums = _BlockSums(w)
    roots = [d for d in divisors(n)[:-1] if sums.blocks_agree(n, d)]
    prim = [d for d in roots if _maximal_root(sums, d) is None]
    return RootProfile(n, tuple(roots), tuple(prim))


def a_primitive_roots(w: Word) -> list[Word]:
    """The A-primitive root prefixes of w, shortest first."""
    return [w.prefix(d) for d in root_profile(w).a_primitive_root_lengths]


def count_distinct_a_primitive_roots(w: Word) -> int:
    return len(root_profile(w).a_primitive_root_lengths)

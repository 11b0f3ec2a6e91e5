"""Enumeration of the Abelian roots and A-primitive roots of a word.

A-roots are prefixes by definition: the root of an Abelian-power
decomposition is its first block. The profile lists every proper
divisor of |w| whose blocks share a Parikh vector, and the subset whose
prefix is itself A-primitive. A root of length d lifts to every multiple
of d dividing |w|, so the profile walks the divisor lattice top down and
skips d once some upper cover d·p is no root. A root that a smaller
root divides is not A-primitive (its prefix has that root), so only the
minimal roots get a prefix decision, and distinct A-primitive root
lengths are always division-free.

Every test reads one grid of good cuts, built once per word. An A-root
of length d splits w into n/d blocks of one Parikh vector, so n/d
divides n and every letter count: with g = n / gcd(n, P(w)), every
A-root length is a multiple of g. The grid keeps one byte per multiple
c of g, which marks c bad when the prefix Parikh vector at c is not
(c/n)·P(w). The length-d blocks of w agree exactly when the cuts d, 2d,
..., n are all good, so a test is one strided read. A root of length m
has prefix vector (m/n)·P(w), so its blocks of length d agree exactly
when the cuts d, 2d, ..., m are good: the same grid decides its prefix,
and a word with g = n has no proper A-root.
"""

from __future__ import annotations

from typing import NamedTuple

from .numtheory import divisors, factorize
from .parikh import Word, _PrefixGrid


class RootProfile(NamedTuple):
    word_length: int
    a_root_lengths: tuple[int, ...]
    a_primitive_root_lengths: tuple[int, ...]


def root_profile(w: Word) -> RootProfile:
    """Test the proper divisors d of |w| in descending order, each only
    when every upper cover d·p (p prime) is |w| or an A-root; then decide
    the prefixes of the roots that no smaller root divides.

    One grid of good cuts serves every test. A word whose step
    g = n / gcd(n, P(w)) is n itself gets the empty profile without one;
    any other A-primitive word fails its top layer, the n/p, and no lower
    divisor is tested.
    """
    n = len(w)
    if n < 2:
        raise ValueError("root profiles need |w| >= 2: an Abelian power has at least 2 blocks")
    grid = _PrefixGrid(w)
    if grid.step == n:
        return RootProfile(n, (), ())
    primes = factorize(n).primes
    found = {n}
    for d in reversed(divisors(n)[:-1]):
        if all(d * p in found for p in primes if n % (d * p) == 0) and grid.blocks_agree(n, d):
            found.add(d)
    roots = sorted(found - {n})
    # the lower covers d/p are the maximal divisors of the prefix: no
    # smaller root divides d exactly when none is a root of w, and the
    # prefix is A-primitive exactly when none is a root of the prefix
    covers = {d: [d // p for p in primes if d % p == 0] for d in roots}
    prim = [d for d in roots if found.isdisjoint(covers[d])
            and not any(grid.blocks_agree(d, c) for c in covers[d])]
    return RootProfile(n, tuple(roots), tuple(prim))


def a_primitive_roots(w: Word) -> list[Word]:
    """The A-primitive root prefixes of w, shortest first."""
    return [w.prefix(d) for d in root_profile(w).a_primitive_root_lengths]


def count_distinct_a_primitive_roots(w: Word) -> int:
    return len(root_profile(w).a_primitive_root_lengths)

"""Deciders for Abelian primitivity.

A word of length n is an Abelian power if it splits into at least two
equal-length blocks whose Parikh vectors all agree; it is A-primitive
otherwise. The oracle tries every proper divisor of n. The production
decider tests only the maximal proper divisors n/p, which suffices
because an A-root of length d lifts to every multiple of d dividing n.
Their blocks agree exactly when the prefix Parikh vector at each cut
t·n/p is t/p of the word's, so the decider hands those lengths to the
block engine: when the cuts, at most sum(p) of them, are few, it counts
the word once between consecutive cuts in fixed-size chunks; otherwise
it builds prefix sums at every letter. Either way a verdict costs O(n)
time and memory whatever the alphabet size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .numtheory import divisors, factorize
from .parikh import Word, _BlockSums, has_a_root_of_length


@dataclass(frozen=True)
class PrimitivityVerdict:
    is_a_primitive: bool
    witness_root_length: Optional[int] = None

    def __post_init__(self):
        if self.is_a_primitive != (self.witness_root_length is None):
            raise ValueError("witness must be present exactly when not A-primitive")


def _require_nonempty(w: Word) -> int:
    n = len(w)
    if n == 0:
        raise ValueError("the empty word has no primitivity classification")
    return n


def is_a_primitive_oracle(w: Word) -> PrimitivityVerdict:
    """Definition-chasing decider: try every proper divisor, smallest first."""
    n = _require_nonempty(w)
    for d in divisors(n)[:-1]:
        if has_a_root_of_length(w, d):
            return PrimitivityVerdict(False, d)
    return PrimitivityVerdict(True)


def _maximal_divisors(m: int) -> list[int]:
    """m/p for the primes p dividing m, in ascending p."""
    return [m // p for p in factorize(m).primes]


def _maximal_root(sums: _BlockSums, m: int, lengths=None) -> Optional[int]:
    """The first of `lengths` (by default the maximal divisors of m) that
    is an A-root of the length-m prefix; None when the prefix is
    A-primitive."""
    if lengths is None:
        lengths = _maximal_divisors(m)
    return next((d for d in lengths if sums.blocks_agree(m, d)), None)


def is_a_primitive(w: Word) -> PrimitivityVerdict:
    """Test the maximal proper divisors n/p in ascending p on block sums
    built for those lengths alone; the witness is the largest of them
    that is an A-root."""
    n = _require_nonempty(w)
    lengths = _maximal_divisors(n)
    d = _maximal_root(_BlockSums(w, lengths), n, lengths)
    return PrimitivityVerdict(d is None, d)


# the linear-time decider and the maximal-divisor decider are one function
is_a_primitive_linear = is_a_primitive

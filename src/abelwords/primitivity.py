"""Deciders for Abelian primitivity.

A word of length n is an Abelian power if it splits into at least two
equal-length blocks whose Parikh vectors all agree; it is A-primitive
otherwise. The oracle tries every proper divisor of n. The production
decider tests only the maximal proper divisors n/p, which suffices
because an A-root of length d lifts to every multiple of d dividing n.
It passes them all, in ascending p, to the block-test entry of
`abelwords.parikh` and takes the first that agrees. The entry counts
the long lengths at their cuts, one tally at a time, so a word whose
lengths all fail costs one pass, and tests the others on the block
table. It never builds the grid of good cuts that `root_profile`
reads. A verdict costs O(n) time per length tested, at most one per
prime factor of n, and O(n) memory whatever the alphabet size.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .numtheory import divisors, factorize
from .parikh import Word, _blocks_agree, has_a_root_of_length


class _Verdict(NamedTuple):
    is_a_primitive: bool
    witness_root_length: Optional[int] = None


class PrimitivityVerdict(_Verdict):
    """A verdict, with a witness root length exactly when not A-primitive;
    the check runs on every construction, `_make` and `_replace` too."""

    __slots__ = ()

    def __new__(cls, is_a_primitive: bool, witness_root_length: Optional[int] = None):
        if is_a_primitive != (witness_root_length is None):
            raise ValueError("witness must be present exactly when not A-primitive")
        return super().__new__(cls, is_a_primitive, witness_root_length)

    _make = classmethod(lambda cls, fields: cls(*fields))


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


def is_a_primitive(w: Word) -> PrimitivityVerdict:
    """Test the maximal proper divisors n/p in ascending p; the witness
    is the largest of them that is an A-root."""
    n = _require_nonempty(w)
    lengths = [n // p for p in factorize(n).primes]
    d = next(_blocks_agree(w.letters, lengths, w.alphabet_size), None)
    return PrimitivityVerdict(d is None, d)


# the linear-time decider and the maximal-divisor decider are one function
is_a_primitive_linear = is_a_primitive

"""Explicit word families with guaranteed root structure.

m_word(p) = aabb(ab)^(p-2) is A-primitive exactly when p is prime; the
family M = {aabb(ab)^(p-2) : p prime} is what is_in_M recognizes.
multiroot_word(n) glues the first n primes into one word of length
2 * p1 * ... * pn with n distinct A-primitive roots. antichain_word(n)
realizes the upper bound s(n): one word of length 2n with an
A-primitive root of length 2t for every t in the middle antichain of n.
ConstructionSpec builds a family by name: it checks the family and the
length of the word against a budget (the counting layer's default)
before anything is allocated, and the family function then checks its
parameter.
"""

from __future__ import annotations

from itertools import islice
from math import prod
from typing import NamedTuple

from .counting import DEFAULT_BUDGET
from .numtheory import is_prime, middle_antichain
from .parikh import Word, _deferred_numpy

np = _deferred_numpy()


class ConstructionBudgetError(Exception):
    """The requested word would be longer than the budget allows."""


class ConstructionSpec(NamedTuple):
    """A named family plus its integer parameter."""

    family: str
    parameter: int

    def validate(self, budget: int | None = None) -> None:
        """Check the family, then the word's length against the budget
        (default DEFAULT_BUDGET letters); the family function checks the
        parameter when build calls it."""
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        limit = DEFAULT_BUDGET if budget is None else int(budget)
        if self._length(limit) > limit:
            raise ConstructionBudgetError(
                f"{self.family} {self.parameter} would build a word of more than "
                f"{limit} letters, over the budget"
            )

    def _length(self, cap: int) -> int:
        """Length of the word: 2p, 2 * (product of the first n primes) or
        2n. The product stops growing once it passes cap; a negative n
        counts no primes."""
        if self.family != "multiroot":
            return 2 * self.parameter
        length = 2
        for p in islice(_primes(), max(self.parameter, 0)):
            if length > cap:
                break
            length *= p
        return length

    def build(self, budget: int | None = None) -> Word:
        self.validate(budget)
        return _BUILDERS[self.family](self.parameter)


def _aabb_ab_power(m: int) -> Word:
    """The word aabb(ab)^m over {a, b}."""
    letters = np.empty(4 + 2 * m, dtype=np.uint8)
    letters[:4] = (0, 0, 1, 1)
    letters[4::2] = 0
    letters[5::2] = 1
    return Word(letters, 2)


def m_word(p: int) -> Word:
    """aabb(ab)^(p-2) for prime p; length 2p, guaranteed A-primitive."""
    if not is_prime(p):
        raise ValueError(f"m_word requires a prime, got {p}")
    return _aabb_ab_power(p - 2)


def _primes():
    """The primes in ascending order, by incremental trial division."""
    m = 2
    while True:
        if is_prime(m):
            yield m
        m += 1


def first_primes(count: int) -> list[int]:
    """The first `count` primes."""
    return list(islice(_primes(), count))


def multiroot_word(n: int) -> Word:
    """aabb(ab)^((Q-4)/2) where Q = 2 * (product of the first n primes).

    For n >= 2 the prefixes aabb(ab)^(p_m - 2), of length 2 p_m for each
    of the first n primes p_m, are n distinct A-primitive roots.
    """
    if n < 1:
        raise ValueError(f"multiroot_word requires n >= 1, got {n}")
    q = 2 * prod(first_primes(n))
    return _aabb_ab_power((q - 4) // 2)


def antichain_word(n: int) -> Word:
    """A word of length 2n with an A-primitive root of length 2t for each
    t in middle_antichain(n).

    With t_1 < ... < t_m the sorted multiples closure of the middle
    antichain, the word is a^(t_1) b^(t_1) followed by a^(t_i - t_(i-1))
    b^(t_i - t_(i-1)) for each later t_i. The Parikh vector is (n, n).
    The closure is marked in a boolean array over 0..n, so the word is
    built in O(n) numpy work.
    """
    if n < 2:
        raise ValueError(f"antichain_word requires n >= 2, got {n}")
    marked = np.zeros(n + 1, dtype=bool)
    for d in middle_antichain(n):
        marked[d::d] = True
    gaps = np.diff(np.flatnonzero(marked), prepend=0)
    runs = np.tile(np.array([0, 1], dtype=np.uint8), gaps.size)
    return Word(np.repeat(runs, np.repeat(gaps, 2)), 2)


_BUILDERS = {"mword": m_word, "multiroot": multiroot_word, "antichain": antichain_word}
FAMILIES = tuple(_BUILDERS)


def is_in_M(w: Word) -> bool:
    """Membership in M = {aabb(ab)^(p-2) : p prime}: exact shape plus prime half-length."""
    n = len(w)
    if n < 4 or n % 2:
        return False
    arr = w.letters
    if not (arr[0] == 0 and arr[1] == 0 and arr[2] == 1 and arr[3] == 1):
        return False
    tail = arr[4:]
    if tail.size and not (bool((tail[0::2] == 0).all()) and bool((tail[1::2] == 1).all())):
        return False
    return is_prime(n // 2)

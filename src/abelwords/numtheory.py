"""Exact integer arithmetic used by the word-analysis algorithms.

Factorization is plain trial division with full extraction of each prime
power, written once: `factorize` collects every (prime, exponent) pair
the walk yields and `is_prime` reads only the first. Nothing here uses
sieves or probabilistic primality, so the cost model of the recognition
algorithms stays transparent. Divisors are enumerated once too, as
exponent vectors with their sums: `divisors` sorts them, and the middle
layer of the divisor lattice (the largest division-free set of divisors)
keeps those whose sum is half of n's, rounded down.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple


class Factorization(NamedTuple):
    """Prime factorization as (prime, exponent) pairs, ascending by prime."""

    entries: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.entries)


def _trial_division(n: int):
    """Yield the (prime, exponent) pairs of n >= 1 as trial division finds them.

    Candidate divisors run up to the square root of the shrinking
    cofactor, each prime is extracted to its full power, and whatever
    remains above 1 at the end is itself prime and is yielded last.
    """
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            a = 0
            while m % d == 0:
                m //= d
                a += 1
            yield d, a
        d += 1 if d == 2 else 2
    if m > 1:
        yield m, 1


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    return Factorization(tuple(_trial_division(n)))


def is_prime(n: int) -> bool:
    """n >= 2 is prime when its first prime power is n itself; trial
    division stops at the first factor it finds."""
    return n >= 2 and next(_trial_division(n)) == (n, 1)


def arith(n: int) -> tuple[int, int, int, int]:
    """Return (omega, omega_prime, num_divisors, gpf) for n >= 2.

    omega counts distinct prime factors, omega_prime counts them with
    multiplicity, num_divisors is the product of (exponent + 1), and gpf
    is the greatest prime factor.
    """
    if n < 2:
        raise ValueError(f"arith requires n >= 2, got {n}")
    entries = factorize(n).entries
    omega = len(entries)
    omega_prime = sum(a for _, a in entries)
    num_divisors = prod(a + 1 for _, a in entries)
    return omega, omega_prime, num_divisors, entries[-1][0]


def mobius(n: int) -> int:
    """The Mobius function: 1 at n=1, 0 if n has a square factor, else (-1)^omega."""
    if n < 1:
        raise ValueError(f"mobius requires n >= 1, got {n}")
    entries = factorize(n).entries
    if any(a >= 2 for _, a in entries):
        return 0
    return -1 if len(entries) % 2 else 1


def _exponent_walk(n: int) -> list[tuple[int, int]]:
    """(d, sum of d's prime exponents) for every divisor d of n >= 1, one
    exponent vector at a time; the last pair is n itself."""
    walk = [(1, 0)]
    for p, a in factorize(n).entries:
        walk = [(d * p**b, s + b) for d, s in walk for b in range(a + 1)]
    return walk


def divisors(n: int) -> list[int]:
    """All divisors of n >= 1, ascending, including 1 and n."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    return sorted(d for d, _ in _exponent_walk(n))


def middle_antichain(n: int) -> list[int]:
    """The middle layer of the divisor lattice of n >= 2, sorted ascending.

    These are the divisors p1^b1 ... pk^bk with bi <= ai whose exponents
    sum to floor(omega_prime(n)/2). The result is division-free and has
    maximum size among all division-free sets of divisors of n, so its
    length is the bound s(n) on the number of distinct A-primitive roots
    a word of length n can have. It keeps those divisors from the walk
    over every exponent vector that `divisors` sorts; n itself carries
    the largest exponent sum, omega_prime(n).
    """
    if n < 2:
        raise ValueError(f"middle_antichain requires n >= 2, got {n}")
    walk = _exponent_walk(n)
    target = walk[-1][1] // 2
    return sorted(d for d, s in walk if s == target)


def multiples_closure(n: int) -> list[int]:
    """All multiples <= n of middle_antichain(n) elements, sorted, deduplicated."""
    if n < 2:
        raise ValueError(f"multiples_closure requires n >= 2, got {n}")
    seen: set[int] = set()
    for d in middle_antichain(n):
        seen.update(range(d, n + 1, d))
    return sorted(seen)


def is_division_free(s) -> bool:
    """True iff no element of s divides a distinct element of s."""
    vals = sorted(set(s))
    if vals and vals[0] < 1:
        raise ValueError("is_division_free expects positive integers")
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            if y % x == 0:
                return False
    return True

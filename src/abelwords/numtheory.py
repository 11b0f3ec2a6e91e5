"""Exact integer arithmetic used by the word-analysis algorithms.

Factorization is plain trial division with full extraction of each prime
power; nothing here uses sieves or probabilistic primality, so the cost
model of the recognition algorithms stays transparent. The middle layer
of the divisor lattice (the largest division-free set of divisors) is
built from exponent vectors directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, ascending by prime."""

    entries: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.entries)


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division.

    Candidate divisors run up to the square root of the shrinking
    cofactor, each prime is extracted to its full power, and whatever
    remains above 1 at the end is itself prime and is appended.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    entries = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            a = 0
            while m % d == 0:
                m //= d
                a += 1
            entries.append((d, a))
        d += 1 if d == 2 else 2
    if m > 1:
        entries.append((m, 1))
    return Factorization(tuple(entries))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


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


def divisors(n: int) -> list[int]:
    """All divisors of n >= 1, ascending, including 1 and n."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    divs = [1]
    for p, a in factorize(n).entries:
        divs = [d * p ** b for d in divs for b in range(a + 1)]
    return sorted(divs)


def middle_antichain(n: int) -> list[int]:
    """The middle layer of the divisor lattice of n >= 2, sorted ascending.

    These are the divisors p1^b1 ... pk^bk with bi <= ai whose exponents
    sum to floor(omega_prime(n)/2). The result is division-free and has
    maximum size among all division-free sets of divisors of n, so its
    length is the bound s(n) on the number of distinct A-primitive roots
    a word of length n can have. Built by enumerating exponent vectors,
    not by filtering the full divisor list.
    """
    if n < 2:
        raise ValueError(f"middle_antichain requires n >= 2, got {n}")
    entries = factorize(n).entries
    target = sum(a for _, a in entries) // 2
    out: list[int] = []

    def extend(i: int, remaining: int, value: int) -> None:
        if i == len(entries):
            if remaining == 0:
                out.append(value)
            return
        p, alpha = entries[i]
        pw = 1
        for b in range(min(alpha, remaining) + 1):
            extend(i + 1, remaining - b, value * pw)
            pw *= p

    extend(0, target, 1)
    return sorted(out)


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

"""Exact counts of primitive and Abelian-primitive words.

Each count runs one inclusion-exclusion over the nonempty sets S of the
primes dividing n, from one factorization of n; L = prod(S). psi counts
classically primitive words: a word is a power exactly when it is a
p-th power for some prime p, and the words that are a p-th power for
every p in S are the k**(n/L) L-th powers. delta = psi - psi_a counts
the Abelian powers that are not powers: a word is an Abelian power
exactly when it has an A-root of some length n/p, and the words with an
A-root at every n/p for p in S are counted per Parikh vector as a
product of multinomials. So delta sums, term by term, those words less
the k**(n/L) L-th powers among them, and psi_a = psi - delta. A term
with n/L = 1 adds nothing, since both are the k unary words: n = 1 has
no term and a prime n only that one, so their delta is 0 with no
branch. An explicit budget on the size of k**n and on the number of
multinomial factors guards against runaway runs; both are checked
before k**n is evaluated. A row (n, psi, psi_a, delta), which psi_a,
delta, delta_prime_power, count_table and the CLI's count read, is
built in one place: n is factorized once and its terms are listed once.
psi alone keeps its own path, with no budget. At prime powers delta has
a closed form (delta_prime_power), the single |S| = 1 term, read off
the row of p**r, so it refuses exactly where psi_a(k, p**r) does at the
default budget.

All counts are exact unbounded integers.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from typing import NamedTuple

from .numtheory import factorize, is_prime

DEFAULT_BUDGET = 1 << 30


class EnumerationBudgetError(Exception):
    """The size of k**n in 64-bit words, or the counting cost (multinomial
    factors times n), exceeds the budget."""


class CountRow(NamedTuple):
    n: int
    psi: int
    psi_a: int
    delta: int


class CountTable(NamedTuple):
    alphabet_size: int
    rows: tuple[CountRow, ...]
    skipped: tuple[int, ...] = ()


def psi(k: int, n: int) -> int:
    """Number of classically primitive length-n words over k letters."""
    if k < 1 or n < 1:
        raise ValueError("psi requires k >= 1 and n >= 1")
    if k == 1:
        # the one word a^n is a power for n > 1; n is not factorized
        return int(n == 1)
    return _psi(k, k ** n, _inclusion_exclusion(n, factorize(n).primes))


def _psi(k: int, power: int, terms) -> int:
    """power = k**n minus the words that are a p-th power for some prime
    p | n, by inclusion-exclusion: a p-th power for every p in S is a
    (prod S)-th power, and there are k**(n/prod S) of them."""
    return power - sum(sign * k ** unit for sign, unit, _ in terms)


def _inclusion_exclusion(n: int, primes):
    """(sign, n/L, S) for every nonempty set S of the primes dividing n
    (passed in, so n is factorized once), L = prod(S).

    The sign is (-1)^(|S|+1). The multiples of L/p for p in S cut [0, L]
    into sum(S) - |S| + 1 segments, because any two of them share only
    the points 0 and L; their lengths are listed only when the term is
    evaluated, since a budget refusal must not pay for them.
    """
    for size in range(1, len(primes) + 1):
        for s in combinations(primes, size):
            yield (-1) ** (size + 1), n // math.prod(s), s


def _words_with_roots(k: int, unit: int, primes) -> int:
    """Words of length n = unit·L with an A-root of length n/p for every p
    in primes, L the product of the primes.

    Such a word with Parikh vector V has prefix Parikh vector t*V/n at
    every multiple t of each n/p, so V is L times a vector u summing to
    unit, and a segment of g*unit letters between consecutive cuts has
    Parikh vector g*u. The count is the sum over u of the product of the
    segments' multinomials; equal-length segments share one multinomial
    raised to their number.
    """
    lcm = math.prod(primes)
    cuts = sorted({t * (lcm // p) for p in primes for t in range(p + 1)})
    gaps = Counter(b - a for a, b in zip(cuts, cuts[1:]))
    total = 0
    for u in _compositions(unit, k):
        term = 1
        for g, repeats in gaps.items():
            term *= _multinomial(g * unit, [g * x for x in u]) ** repeats
        total += term
    return total


def _count_row(k: int, n: int, budget: int | None, ready=lambda: None) -> CountRow:
    """The row (n, psi, psi_a, delta) that psi_a, delta, delta_prime_power,
    count_table and the CLI's count read; no other code builds a CountRow.

    In order: validate k and n, check the size of k**n, answer k = 1,
    factorize n (so an oversized n is never factorized) and list its
    terms, and check their cost: n times the multinomial factors of every
    term with n/L > 1. Then ready() runs, delta_prime_power's primality
    test, and only then is k**n evaluated, once, for psi, so a refusal
    never pays for it. delta is summed term by term: the term
    (sign, n/L, S) adds sign * (words with an A-root at every n/p for p
    in S, minus the k**(n/L) L-th powers). At n/L = 1 both are the k
    unary words, so only terms with n/L > 1 are costed and summed; n = 1
    has no term and a prime n only one with n/L = 1, so their rows cost
    0 and sum nothing.
    """
    if k < 1 or n < 1:
        raise ValueError("psi_a requires k >= 1 and n >= 1")
    limit = DEFAULT_BUDGET if budget is None else int(budget)
    # k**n < 2**(n*b) for b = bit_length(k-1), the bits of one letter
    words = -(-n * (k - 1).bit_length() // 64)
    if words > limit:
        raise EnumerationBudgetError(
            f"psi_a over {k} letters at n={n}: k**n takes {words} 64-bit words, "
            f"over the budget of {limit}"
        )
    if k == 1:
        ready()
        one = int(n == 1)
        return CountRow(n, one, one, 0)
    terms = list(_inclusion_exclusion(n, factorize(n).primes))
    summed = [(sign, unit, s) for sign, unit, s in terms if unit > 1]
    cost = n * sum(math.comb(unit + k - 1, k - 1) * (sum(s) - len(s) + 1)
                   for _, unit, s in summed)
    if cost > limit:
        raise EnumerationBudgetError(
            f"counting A-primitive words over {k} letters at n={n} costs {cost} "
            f"(multinomial factors times n), over the budget of {limit}"
        )
    ready()
    full = _psi(k, k ** n, terms)
    gap = sum(sign * (_words_with_roots(k, unit, s) - k ** unit) for sign, unit, s in summed)
    return CountRow(n, full, full - gap, gap)


def psi_a(k: int, n: int, *, budget: int | None = None) -> int:
    """Number of A-primitive length-n words over k letters, psi - delta.

    First the size of k**n, n letters of bit_length(k-1) bits in 64-bit
    words, is checked against the budget, and k = 1 answers, before n is
    factorized. delta, the Abelian powers that are not powers, is then
    counted by inclusion-exclusion over the sets S of maximal divisors
    n/p: each set with n/L > 1, L = prod(S), sums over the
    C(n/L+k-1, k-1) Parikh vectors with entries divisible by L, with one
    multinomial factor per segment, less the k**(n/L) L-th powers. Sets
    with n/L = 1 add nothing, so at n = 1 and prime n, psi_a = psi.
    Before any term is evaluated, the total factor count times n is
    checked against the budget. Either check raises
    EnumerationBudgetError when it is over.
    """
    return _count_row(k, n, budget).psi_a


def delta(k: int, n: int, *, budget: int | None = None) -> int:
    """psi - psi_a; nonnegative, zero when n is 1 or prime."""
    return _count_row(k, n, budget).delta


def _compositions(total: int, parts: int):
    """All ordered tuples of `parts` nonnegative integers summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _multinomial(total: int, parts) -> int:
    out = 1
    remaining = total
    for p in parts:
        out *= math.comb(remaining, p)
        remaining -= p
    return out


def delta_prime_power(k: int, p: int, r: int) -> int:
    """Closed form for delta(k, p**r), r >= 2, p prime: the single
    |S| = 1 term of delta, the words with an A-root of length p**(r-1)
    less the k**(p**(r-1)) p-th powers. Over the Parikh vectors summing
    to p**(r-1), each with multinomial count C, it is the sum of
    C * (C**(p-1) - 1).

    It reads delta off the row of p**r at DEFAULT_BUDGET, so it raises
    EnumerationBudgetError exactly where psi_a(k, p**r) does. p's
    primality is tested once both budget checks pass and before any term
    is summed: over k >= 2 letters a p**r that passes the size check is
    at most 2**36, so p takes at most about 512 trial divisions.
    """
    if k < 1 or p < 2 or r < 2:
        raise ValueError(f"delta_prime_power requires k >= 1, prime p and r >= 2, "
                         f"got k={k}, p={p}, r={r}")

    def prime_p():
        if not is_prime(p):
            raise ValueError(f"delta_prime_power requires prime p, got {p}")

    return _count_row(k, p ** r, None, prime_p).delta


def count_table(k: int, max_n: int, *, budget: int | None = None) -> CountTable:
    """Rows (n, psi, psi_a, delta) for n = 1..max_n.

    Every row is the one psi_a checks, so n = 1 and prime rows are exact
    at any size; rows over the budget are skipped and recorded in the
    skipped field.
    """
    if k < 1 or max_n < 1:
        raise ValueError("count_table requires k >= 1 and max_n >= 1")
    rows = []
    skipped = []
    for n in range(1, max_n + 1):
        try:
            rows.append(_count_row(k, n, budget))
        except EnumerationBudgetError:
            skipped.append(n)
    return CountTable(k, tuple(rows), tuple(skipped))

"""Shared fixtures, reference oracles, and the acceptance summary hook.

The reference oracles here are deliberately independent implementations
(Counter comparisons, full divisor scans, a Moebius sum for psi, a
stars-and-bars sum for delta at prime powers, a sieve of smallest prime
factors, a from-scratch vectorized sweep) so the library is always
checked against something written separately from it.
"""

import itertools
import math
import os
import pathlib
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

# ------------------------------------------------------- child processes


def child_env() -> dict[str, str]:
    """Environment for a child Python that imports the same abelwords as
    this process, installed or not."""
    import abelwords

    src = str(pathlib.Path(abelwords.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


# ---------------------------------------------------------------- oracles


def ref_has_root(s, d: int) -> bool:
    """Do all len(s)/d consecutive blocks of s share one letter multiset?"""
    n = len(s)
    if n % d:
        raise ValueError("d must divide the length")
    first = Counter(s[:d])
    return all(Counter(s[i : i + d]) == first for i in range(d, n, d))


def ref_a_primitive(s) -> bool:
    """Abelian primitivity by scanning every proper divisor length."""
    n = len(s)
    return not any(n % d == 0 and ref_has_root(s, d) for d in range(1, n))


def ref_a_root_lengths(s) -> list[int]:
    n = len(s)
    return [d for d in range(1, n) if n % d == 0 and ref_has_root(s, d)]


def ref_mobius(n: int) -> int:
    """Moebius function by trial division: 0 on a square factor, else
    (-1) to the number of prime factors."""
    sign, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


@lru_cache(maxsize=None)
def ref_smallest_factors(limit: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes: entry n is the smallest prime dividing n,
    for 2 <= n < limit (limit >= 2; entries 0 and 1 are 0). n >= 2 is
    prime exactly when its entry is n itself."""
    spf = list(range(limit))
    spf[0] = spf[1] = 0
    for p in range(2, math.isqrt(limit - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, limit, p):
                if spf[m] == m:
                    spf[m] = p
    return tuple(spf)


def ref_big_omega(n: int, spf) -> int:
    """Prime factors of n >= 1 counted with multiplicity, read off a
    smallest-factor table from ref_smallest_factors."""
    count = 0
    while n > 1:
        n //= spf[n]
        count += 1
    return count


def ref_psi(k: int, n: int) -> int:
    """Classically primitive words by definition: the Moebius sum over a
    scan of every divisor d of n, each contributing mu(n/d) * k**d."""
    return sum(ref_mobius(n // d) * k**d for d in range(1, n + 1) if n % d == 0)


def ref_delta_prime_power(k: int, p: int, r: int) -> int:
    """delta(k, p**r) in closed form, p prime and r >= 2: an Abelian
    power that is not a power has an A-root of length m = p**(r-1), so it
    is p blocks of m letters sharing one Parikh vector. For each vector
    (an ordered k-tuple summing to m, listed by stars and bars) with
    multinomial count C, that makes C**p words, C of them p-th powers."""
    m = p ** (r - 1)
    total = 0
    for bars in itertools.combinations(range(m + k - 1), k - 1):
        parts = [b - a - 1 for a, b in zip((-1,) + bars, bars + (m + k - 1,))]
        c = math.factorial(m) // math.prod(math.factorial(x) for x in parts)
        total += c**p - c
    return total


def max_division_free_size(values) -> int:
    """Largest subset of `values` with no element dividing another.

    Depth-first search over sorted values with a simple remaining-count
    bound; exact, independent of any lattice theory.
    """
    vals = sorted(set(values))
    best = 0

    def go(i: int, chosen: list[int]) -> None:
        nonlocal best
        if len(chosen) + (len(vals) - i) <= best:
            return
        if i == len(vals):
            best = max(best, len(chosen))
            return
        v = vals[i]
        if all(v % c for c in chosen):
            chosen.append(v)
            go(i + 1, chosen)
            chosen.pop()
        go(i + 1, chosen)

    go(0, [])
    return best


# ------------------------------------- exhaustive root sweep (vectorized)
#
# A self-contained enumeration of every length-n word over k letters that
# reports, per word, which proper divisors are A-root lengths and which of
# those are A-primitive-root lengths. Written from scratch on plain numpy
# so it shares no code with the package under test.

_SWEEP_SPAN = 1 << 18


def _proper_divisors(n: int) -> list[int]:
    return [d for d in range(1, n) if n % d == 0]


def _digit_block(k: int, n: int, lo: int, hi: int) -> np.ndarray:
    """Letters of words lo..hi, most significant first, shape (n, hi-lo)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((n, hi - lo), dtype=np.uint8)
    for j in range(n - 1, -1, -1):
        out[j] = idx % k
        idx //= k
    return out


def _root_masks(letters: np.ndarray, k: int, divs) -> dict[int, np.ndarray]:
    """For each d in divs: per-word bool, all n/d blocks share letter counts."""
    n = letters.shape[0]
    masks = {}
    for d in divs:
        ok = np.ones(letters.shape[1], dtype=bool)
        for c in range(k - 1):
            counts = (letters == c).reshape(n // d, d, -1).sum(axis=1)
            ok &= (counts[1:] == counts[:1]).all(axis=0)
        masks[d] = ok
    return masks


@lru_cache(maxsize=None)
def _prim_table(k: int, n: int) -> np.ndarray:
    """Bool array over all k**n words: word is Abelian primitive."""
    letters = _digit_block(k, n, 0, k**n)
    masks = _root_masks(letters, k, _proper_divisors(n))
    power = np.zeros(k**n, dtype=bool)
    for m in masks.values():
        power |= m
    return ~power


def sweep_root_profiles(k: int, n: int):
    """Yield (words_lo, root_masks, prim_root_masks) over all k**n words.

    Both mask dicts map each proper divisor d to a bool array: the word
    has an A-root of length d / an A-primitive root of length d.
    """
    divs = _proper_divisors(n)
    total = k**n
    for lo in range(0, total, _SWEEP_SPAN):
        hi = min(lo + _SWEEP_SPAN, total)
        letters = _digit_block(k, n, lo, hi)
        roots = _root_masks(letters, k, divs)
        prim_roots = {}
        for d in divs:
            prefix_ids = np.arange(lo, hi, dtype=np.int64) // (k ** (n - d))
            prim_roots[d] = roots[d] & _prim_table(k, d)[prefix_ids]
        yield lo, roots, prim_roots


def sweep_violations(k: int, n: int) -> dict[str, int]:
    """Count violations of the root-structure laws over all k**n words.

    Checks, exhaustively: division-freeness of A-primitive-root length
    sets, pairwise gcd >= 2 of those lengths, root count <= bound from
    the middle divisor layer, and upward closure of A-root lengths.
    """
    divs = _proper_divisors(n)
    bound = _middle_layer_size(n)
    out = {"division": 0, "gcd": 0, "bound": 0, "closure": 0}
    for _, roots, prim_roots in sweep_root_profiles(k, n):
        for i, d1 in enumerate(divs):
            for d2 in divs[i + 1 :]:
                if d2 % d1 == 0:
                    out["division"] += int((prim_roots[d1] & prim_roots[d2]).sum())
                    out["closure"] += int((roots[d1] & ~roots[d2]).sum())
                if math.gcd(d1, d2) == 1:
                    out["gcd"] += int((prim_roots[d1] & prim_roots[d2]).sum())
        if divs:
            counts = np.zeros(prim_roots[divs[0]].shape, dtype=np.int16)
            for d in divs:
                counts += prim_roots[d]
            out["bound"] += int((counts > bound).sum())
    return out


def _middle_layer_size(n: int) -> int:
    """Size of the middle exponent layer of n's divisors, from scratch."""
    exps = []
    m, p = n, 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            exps.append(e)
        p += 1
    if m > 1:
        exps.append(1)
    target = sum(exps) // 2
    ways = {0: 1}
    for e in exps:
        new: dict[int, int] = {}
        for total, cnt in ways.items():
            for add in range(e + 1):
                new[total + add] = new.get(total + add, 0) + cnt
        ways = new
    return ways.get(target, 1)


# ------------------------------------------------- acceptance summary hook

_RESULTS: dict[int, tuple[str, str]] = {}
_RANK = {"FAIL": 0, "SKIP": 1, "PASS": 2}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, label): criterion covered by this test; the run "
        "summary prints one pass/fail line per criterion",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num, label = marker.args
    status = "PASS" if rep.passed else ("SKIP" if rep.skipped else "FAIL")
    prev = _RESULTS.get(num)
    if prev is None or _RANK[status] < _RANK[prev[1]]:
        _RESULTS[num] = (label, status)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        label, status = _RESULTS[num]
        terminalreporter.write_line(f"criterion {num}: {status}  {label}")

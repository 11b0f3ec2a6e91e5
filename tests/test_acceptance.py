"""End-to-end acceptance checks.

Each test covers one numbered criterion; the run summary prints one
PASS/FAIL line per criterion (see conftest). The reference counts below
are frozen known values the counting functions must reproduce exactly.
"""

import statistics
import time

import numpy as np
import pytest

from abelwords import (
    Word,
    antichain_word,
    arith,
    commute_check,
    count_distinct_a_primitive_roots,
    count_table,
    delta_prime_power,
    divisors,
    is_a_primitive,
    is_a_primitive_linear,
    is_a_primitive_oracle,
    middle_antichain,
    multiroot_word,
    psi,
    psi_a,
    root_profile,
    sim_n,
    simeq_n,
    witness_is_valid,
)
from conftest import (
    _digit_block,
    _prim_table,
    max_division_free_size,
    ref_delta_prime_power,
    ref_psi,
    sweep_violations,
)

# A-primitive word counts by alphabet size and length.
REF_K2 = [2, 2, 6, 10, 30, 36, 126, 186, 456, 740,
          2046, 2972, 8190, 12824, 30030, 52666, 131070, 202392, 524286, 859180]
REF_K3 = [3, 6, 24, 66, 240, 612, 2184, 5922, 19302, 54300,
          177144, 490488, 1594320]
REF_K4 = [4, 12, 60, 228, 1020, 3792, 16380, 62820, 260952, 1016880,
          4194300, 16354320]
REF_K5 = [5, 20, 120, 580, 3120, 15000, 78120, 382740, 1950420]

# prime-length cells, including the large ones beyond enumeration reach
REF_PRIME_CELLS = {
    2: {2: 2, 3: 6, 5: 30, 7: 126, 11: 2046, 13: 8190,
        17: 131070, 19: 524286},
    3: {2: 6, 3: 24, 5: 240, 7: 2184, 11: 177144, 13: 1594320,
        17: 129140160, 19: 1162261464},
    4: {2: 12, 3: 60, 5: 1020, 7: 16380, 11: 4194300, 13: 67108860,
        17: 17179869180, 19: 274877906940},
    5: {2: 20, 3: 120, 5: 3120, 7: 78120, 11: 48828120, 13: 1220703120,
        17: 762939453120, 19: 19073486328120},
}


@pytest.mark.acceptance(1, "exact A-primitive counts for k=2..5 reference table")
def test_criterion_1_reference_table():
    start = time.perf_counter()
    refs = {2: REF_K2, 3: REF_K3, 4: REF_K4, 5: REF_K5}
    for k, column in refs.items():
        for n, expected in enumerate(column, start=1):
            assert psi_a(k, n) == expected, (k, n)
    assert time.perf_counter() - start < 300


@pytest.mark.acceptance(2, "prime lengths use the k^n - k identity")
def test_criterion_2_prime_closed_form():
    for k, cells in REF_PRIME_CELLS.items():
        for p, expected in cells.items():
            assert k**p - k == expected, (k, p)
        # budget 1 forbids every enumeration, so these rows must come
        # from the identity alone
        table = count_table(k, 19, budget=1)
        got = {row.n: row.psi_a for row in table.rows if row.n in cells}
        assert got == cells
    # the identity agrees with brute-force enumeration where that is cheap
    for k, p in ((2, 2), (2, 7), (2, 13), (3, 5), (4, 5), (5, 7)):
        assert psi_a(k, p) == k**p - k


@pytest.mark.acceptance(3, "deciders agree with the reference on all short binary and ternary words")
def test_criterion_3_decider_equivalence():
    start = time.perf_counter()
    checked = 0
    for k, max_n in ((2, 16), (3, 9)):
        for n in range(1, max_n + 1):
            total = k**n
            expected = _prim_table(k, n)
            for lo in range(0, total, 1 << 16):
                hi = min(lo + (1 << 16), total)
                rows = np.ascontiguousarray(_digit_block(k, n, lo, hi).T)
                for i, row in enumerate(rows, start=lo):
                    w = Word(row, k)
                    a = is_a_primitive_oracle(w)
                    b = is_a_primitive(w)
                    c = is_a_primitive_linear(w)
                    assert a.is_a_primitive == b.is_a_primitive == c.is_a_primitive
                    assert a.is_a_primitive == expected[i], (k, n, i)
                    checked += 1
    assert checked == (2**17 - 2) + (3**10 - 3) // 2
    assert time.perf_counter() - start < 60


@pytest.mark.acceptance(4, "prime-power delta closed form matches enumeration")
def test_criterion_4_delta_prime_power():
    cases = {(2, 2, 2): 2, (2, 2, 3): 54, (2, 2, 4): None, (3, 2, 2): None,
             (2, 3, 2): None, (3, 3, 2): None, (4, 2, 2): None}
    for (k, p, r), pinned in cases.items():
        n = p**r
        direct = delta_prime_power(k, p, r)
        assert direct == ref_delta_prime_power(k, p, r), (k, p, r)
        assert direct == ref_psi(k, n) - int(_prim_table(k, n).sum()), (k, p, r)
        if pinned is not None:
            assert direct == pinned


@pytest.mark.acceptance(5, "constructed words carry their promised roots")
def test_criterion_5_root_multiplicity():
    for n in range(2, 6):
        w = multiroot_word(n)
        profile = root_profile(w)
        primes = []
        m = 2
        while len(primes) < n:
            if all(m % q for q in primes):
                primes.append(m)
            m += 1
        assert count_distinct_a_primitive_roots(w) == n
        assert set(profile.a_primitive_root_lengths) == {2 * p for p in primes}

    for n in range(2, 201):
        z = antichain_word(n)
        middle = middle_antichain(n)
        lengths = set(root_profile(z).a_primitive_root_lengths)
        assert {2 * t for t in middle} <= lengths, n
        assert count_distinct_a_primitive_roots(z) >= len(middle), n

    assert antichain_word(30).to_text() == (
        "aabbababababaabbababaabbaabbababaabbaabbababaabbababababaabb"
    )


@pytest.mark.acceptance(6, "root-structure laws hold for all binary words to length 16")
def test_criterion_6_root_laws():
    zeros = {"division": 0, "gcd": 0, "bound": 0, "closure": 0}
    for n in range(2, 17):
        assert sweep_violations(2, n) == zeros, n


@pytest.mark.acceptance(7, "commutation witnesses match the block relation exactly")
def test_criterion_7_commutation():
    wit = commute_check(Word.from_text("cbabc"), Word.from_text("abca"), 3)
    assert wit is not None and (wit.r, wit.s) == (3, 2)
    u2, x2 = Word.from_text("baa"), Word.from_text("a")
    assert not sim_n(u2 + x2, x2 + u2, 2)
    assert simeq_n(u2 + x2, x2 + u2, 2)
    assert commute_check(u2, x2, 2) is None

    words = {
        length: [
            Word(np.ascontiguousarray(col), 2)
            for col in _digit_block(2, length, 0, 2**length).T
        ]
        for length in range(1, 12)
    }
    for total in range(2, 13):
        for n in divisors(total):
            # the pair commutes at block length n exactly when both ux
            # and xu split into blocks sharing one Parikh vector
            word_root = _has_root_mask(total, n)
            for ulen in range(1, total):
                xlen = total - ulen
                for ui, u in enumerate(words[ulen]):
                    for xi, x in enumerate(words[xlen]):
                        expected = bool(
                            word_root[ui * 2**xlen + xi]
                            and word_root[xi * 2**ulen + ui]
                        )
                        wit = commute_check(u, x, n)
                        assert (wit is not None) == expected, (total, n, ui, xi)
                        if wit is not None:
                            assert witness_is_valid(u, x, n, wit)


def _has_root_mask(length: int, d: int) -> np.ndarray:
    """Per-word bool over all binary words: the d-blocks share a Parikh
    vector; computed from scratch for use as the expected side."""
    letters = _digit_block(2, length, 0, 2**length)
    counts = (letters == 0).reshape(length // d, d, -1).sum(axis=1)
    return np.asarray((counts[1:] == counts[:1]).all(axis=0))


@pytest.mark.acceptance(8, "linear-time decider scales linearly")
def test_criterion_8_linear_scaling():
    unary = Word(np.zeros(10_000_000, dtype=np.uint8), 1)
    best = min(_timed_runs(unary, 3))
    assert best < 2.0, f"10^7-letter word took {best:.3f}s"

    # every sample spends the same 2^23 letters, in 8 calls at 2^20 down
    # to 1 call at 2^23, and the sizes take turns; the median of 15 rounds
    # per size keeps a burst of the host's memory timing noise out of the
    # ratio, where one call of 0.06-0.5 ms, or one size's runs back to
    # back, would carry it in. A fresh array reads slower for its first
    # few passes, so each sample follows one untimed call
    words = {}
    for e in (20, 21, 22, 23):
        letters = np.zeros(1 << e, dtype=np.uint8)
        letters[-1] = 1
        words[e] = Word(letters, 2)
    samples = {e: [] for e in words}
    for _ in range(15):
        for e, w in words.items():
            is_a_primitive_linear(w)
            calls = 1 << (23 - e)
            t = time.perf_counter()
            for _ in range(calls):
                is_a_primitive_linear(w)
            samples[e].append((time.perf_counter() - t) / calls)
    per_call = {e: statistics.median(times) for e, times in samples.items()}
    for e in (20, 21, 22):
        ratio = per_call[e + 1] / per_call[e]
        assert 1.5 <= ratio <= 3.0, f"2^{e+1}/2^{e} ratio {ratio:.2f}"


def _timed_runs(w: Word, runs: int) -> list[float]:
    is_a_primitive_linear(w)  # warm caches before timing
    out = []
    for _ in range(runs):
        t = time.perf_counter()
        is_a_primitive_linear(w)
        out.append(time.perf_counter() - t)
    return out


@pytest.mark.acceptance(9, "arithmetic bounds and middle-layer maximality")
def test_criterion_9_number_theory():
    top = 10**6
    omega = np.zeros(top + 1, dtype=np.int8)
    gpf = np.zeros(top + 1, dtype=np.int32)
    for p in range(2, top + 1):
        if gpf[p] == 0:
            omega[p::p] += 1
            gpf[p::p] = p
    assert np.all(3 * omega[2:].astype(np.int64) <= 2 * gpf[2:].astype(np.int64))

    # the sieve itself cross-checked against the library's factorizer
    rng = np.random.default_rng(5)
    for n in rng.integers(2, top, size=300):
        w, _, _, g = arith(int(n))
        assert omega[n] == w and gpf[n] == g

    checked = 0
    for n in range(2, 2001):
        ds = divisors(n)
        if len(ds) > 20:
            continue
        assert len(middle_antichain(n)) == max_division_free_size(ds), n
        checked += 1
    assert checked > 1900

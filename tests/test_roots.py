import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abelwords import (
    Word,
    a_primitive_roots,
    count_distinct_a_primitive_roots,
    factorize,
    is_a_primitive_linear,
    is_division_free,
    middle_antichain,
    multiroot_word,
    root_profile,
)
from abelwords import primitivity
from abelwords.parikh import _PrefixGrid
from conftest import (
    ref_a_primitive,
    ref_a_root_lengths,
    sweep_root_profiles,
    sweep_violations,
)


def test_profile_of_known_words():
    p = root_profile(Word.from_text("aabbabababab"))
    assert p.word_length == 12
    assert p.a_primitive_root_lengths == (4, 6)

    p = root_profile(Word.from_text("aaaa"))
    assert p.a_root_lengths == (1, 2)
    assert p.a_primitive_root_lengths == (1,)

    p = root_profile(Word.from_text("aabbab"))
    assert p.a_root_lengths == ()
    assert p.a_primitive_root_lengths == ()


def test_profile_rejects_short_words():
    with pytest.raises(ValueError):
        root_profile(Word.from_text("a"))
    with pytest.raises(ValueError):
        root_profile(Word.from_text(""))


def test_materialized_roots():
    w2 = multiroot_word(2)
    assert [r.to_text() for r in a_primitive_roots(w2)] == ["aabb", "aabbab"]
    assert [r.to_text() for r in a_primitive_roots(Word.from_text("abab"))] == ["ab"]
    assert [r.to_text() for r in a_primitive_roots(Word.from_text("aabbabab"))] == [
        "aabb"
    ]
    assert count_distinct_a_primitive_roots(w2) == 2
    assert count_distinct_a_primitive_roots(Word.from_text("aabbabab")) == 1


@given(st.text(alphabet="abc", min_size=2, max_size=24))
def test_profile_matches_reference(s):
    w = Word.from_text(s, alphabet_size=3)
    p = root_profile(w)
    assert list(p.a_root_lengths) == ref_a_root_lengths(s)
    assert list(p.a_primitive_root_lengths) == [
        d for d in ref_a_root_lengths(s) if ref_a_primitive(s[:d])
    ]


@given(st.text(alphabet="ab", min_size=2, max_size=30))
def test_profile_properties(s):
    w = Word.from_text(s, alphabet_size=2)
    p = root_profile(w)
    n = len(s)
    assert is_division_free(p.a_primitive_root_lengths)
    assert all(n % d == 0 for d in p.a_root_lengths)
    assert set(p.a_primitive_root_lengths) <= set(p.a_root_lengths)
    assert len(p.a_primitive_root_lengths) <= len(middle_antichain(n))
    assert (not p.a_root_lengths) == is_a_primitive_linear(w).is_a_primitive
    for d1 in p.a_primitive_root_lengths:
        for d2 in p.a_primitive_root_lengths:
            if d1 < d2:
                assert math.gcd(d1, d2) >= 2


def test_root_laws_exhaustive_binary():
    # every law, every binary word of length 2..12, by the independent sweep
    for n in range(2, 13):
        assert sweep_violations(2, n) == {
            "division": 0,
            "gcd": 0,
            "bound": 0,
            "closure": 0,
        }


def test_gcd_law_exhaustive_ternary_16():
    """No ternary word of length <= 16 has coprime distinct
    A-primitive-root lengths.

    Lengths 2..10 are swept against every law; 11 and 13 are prime, so
    no word of those lengths has two proper root lengths to pair up,
    and sweeping the gcd law over 12, 14, 15 and 16 covers the rest.
    """
    for n in range(2, 11):
        assert sweep_violations(3, n) == {
            "division": 0,
            "gcd": 0,
            "bound": 0,
            "closure": 0,
        }
    for n in (12, 14, 15, 16):
        assert sweep_violations(3, n)["gcd"] == 0


def test_count_never_exceeds_middle_layer():
    for n in range(2, 7):
        w = multiroot_word(n)
        assert count_distinct_a_primitive_roots(w) <= len(
            middle_antichain(len(w))
        )


@pytest.mark.parametrize("k, top", [(2, 12), (3, 8)])
def test_profile_matches_exhaustive_sweep(k, top):
    # every word of length 2..top, against the independent sweep's masks
    for n in range(2, top + 1):
        words = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.uint8)
        divs = [d for d in range(1, n) if n % d == 0]
        for lo, roots, prim_roots in sweep_root_profiles(k, n):
            for j in range(roots[1].size):
                p = root_profile(Word(words[lo + j], k))
                s = words[lo + j].tolist()
                assert p.a_root_lengths == tuple(d for d in divs if roots[d][j]), s
                assert p.a_primitive_root_lengths == tuple(
                    d for d in divs if prim_roots[d][j]
                ), s


@pytest.fixture
def engine_calls(monkeypatch):
    """Counts the grid's block tests, and the lengths passed to the
    block-test entry that the decider and one-length tests call."""
    calls = {"tests": 0, "entry": 0}
    agree = _PrefixGrid.blocks_agree
    parikh_module = sys.modules["abelwords.parikh"]
    entry = parikh_module._blocks_agree

    def counted_agree(self, m, d):
        calls["tests"] += 1
        return agree(self, m, d)

    def counted_entry(letters, lengths, k):
        calls["entry"] += len(lengths)
        return entry(letters, lengths, k)

    monkeypatch.setattr(_PrefixGrid, "blocks_agree", counted_agree)
    monkeypatch.setattr(parikh_module, "_blocks_agree", counted_entry)
    monkeypatch.setattr(primitivity, "_blocks_agree", counted_entry)
    return calls


@pytest.mark.parametrize("k, n", [(3, 720_720), (4, 6_291_456)])
def test_a_primitive_word_tests_only_its_top_layer(engine_calls, k, n):
    # a random word of either length is A-primitive: it is tested at most
    # at the n/p, neither the decider nor the block-test entry runs, and
    # the profile takes no copy of the word, let alone sums at every letter
    w = Word(np.random.default_rng([k, n]).integers(0, k, n, dtype=np.uint8), k)
    tracemalloc.start()
    try:
        p = root_profile(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (p.a_root_lengths, p.a_primitive_root_lengths) == ((), ())
    assert peak < 2**18, peak
    assert engine_calls["tests"] <= len(factorize(n).primes)
    assert engine_calls["entry"] == 0


def test_power_of_a_block_tests_few_divisors(engine_calls):
    n = 360_360
    block = np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8)  # aaab, babb: A-primitive
    rng = np.random.default_rng(8)
    w = Word(np.concatenate([block] + [rng.permutation(block) for _ in range(n // 8 - 1)]), 2)
    p = root_profile(w)
    assert p.a_root_lengths == tuple(d for d in range(8, n, 8) if n % d == 0)
    assert p.a_primitive_root_lengths == (8,)
    # 191 proper divisors, 47 of them roots: the walk tests the roots,
    # the n/p and the lower covers of roots, and only the 8-prefix is
    # decided, on the same grid
    assert engine_calls["tests"] + engine_calls["entry"] < 60, engine_calls
    assert engine_calls["entry"] == 0


@pytest.mark.parametrize("k, top", [(2, 12), (3, 8)])
def test_root_lengths_are_multiples_of_the_step(k, top):
    # an A-root of length d makes n/d divide n and every letter count, so
    # d is a multiple of the step n / gcd(n, P(w)) that root_profile's
    # grid rests on; checked on the independent sweep's masks
    for n in range(2, top + 1):
        words = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.uint8)
        counts = np.stack([(words == c).sum(axis=1) for c in range(k)], axis=1)
        steps = n // np.gcd(n, np.gcd.reduce(counts, axis=1))
        for lo, roots, prim_roots in sweep_root_profiles(k, n):
            off_step = {d: d % steps[lo : lo + roots[d].size] != 0 for d in roots}
            assert not any((roots[d] & off_step[d]).any() for d in roots), n
            assert not any((prim_roots[d] & off_step[d]).any() for d in roots), n


def test_multiroot_profile_keeps_one_byte_per_row():
    # 1,021,020 letters with step 2: the grid keeps one byte per row, and
    # builds one letter's row counts at a time, 4 bytes a row in n's type
    w = multiroot_word(7)
    tracemalloc.start()
    try:
        p = root_profile(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.a_primitive_root_lengths == (4, 6, 10, 14, 22, 26, 34)
    assert peak < 3 * 2**20, peak


@pytest.mark.parametrize("k, block, n, bound", [
    # a k = 26 power whose block holds each letter twice: the step is 26;
    # the bincount adds the letters into its int64 tags in place, so the
    # peak is one array of n tags, about 4.4 MiB
    (26, np.repeat(np.arange(26), 2), 288_288, 5.5 * 2**20),
    # eight letters over k = 2^40: the letters are ranked once per word
    (2**40, np.array([0, 1, 5, 77, 12_345, 3**20, 2**39, 2**40 - 1]), 2**17, 8 * 2**20),
    # eight letters over k = 1000 < n: the absent letters get no column
    (1000, np.array([0, 1, 5, 77, 345, 512, 998, 999]), 2**17, 8 * 2**20),
], ids=["k26", "k2^40", "k1000"])
def test_wide_alphabet_power_profile(k, block, n, bound):
    rng = np.random.default_rng(9)
    copies = rng.permuted(np.tile(block, n // block.size - 1).reshape(-1, block.size), axis=1)
    # the first block is sorted, so A-primitive; every later one is shuffled
    w = Word(np.concatenate([block, copies.ravel()]), k)
    tracemalloc.start()
    try:
        p = root_profile(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.a_root_lengths == tuple(d for d in range(block.size, n, block.size) if n % d == 0)
    assert p.a_primitive_root_lengths == (block.size,)
    assert peak < bound, peak

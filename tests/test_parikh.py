import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelwords import (
    Word,
    block_parikhs,
    commute_check,
    has_a_root_of_length,
    is_a_primitive,
    is_a_primitive_linear,
    parikh,
    root_profile,
    shared_root_check,
    sim_n,
)
from abelwords.parikh import _CHUNK, _CUT_COST, _PrefixGrid, _blocks_agree, _cuts_agree
from conftest import ref_a_primitive, ref_a_root_lengths, ref_has_root

# the module, not the function `parikh` that the package exports
parikh_module = importlib.import_module("abelwords.parikh")

words = st.text(alphabet="abcd", min_size=1, max_size=40)


def as_text(w: Word) -> str:
    return w.to_text()


# ------------------------------------------------------------------ Word


def test_from_text_round_trip():
    for s in ("a", "abba", "zz", "aabbab", "cbabcabca"):
        w = Word.from_text(s)
        assert w.to_text() == s
        assert len(w) == len(s)


def test_alphabet_inference():
    assert Word.from_text("aba").alphabet_size == 2
    assert Word.from_text("d").alphabet_size == 4
    assert Word.from_text("abc", alphabet_size=7).alphabet_size == 7


def test_rejects_letters_outside_alphabet():
    with pytest.raises(ValueError):
        Word(np.array([0, 3], dtype=np.uint8), 3)
    with pytest.raises(ValueError):
        Word(np.array([-1, 0]), 2)
    with pytest.raises(ValueError):
        Word.from_text("ab", alphabet_size=1)


def test_from_text_rejects_non_letters():
    # below "a" ("A", "`", " ") and above "z" ("{")
    for s in ("abA", "ab{", "ab`", "a b"):
        with pytest.raises(ValueError):
            Word.from_text(s)


def test_rejects_bad_shapes_and_dtypes():
    with pytest.raises(ValueError):
        Word(np.zeros((2, 2), dtype=np.uint8), 2)
    with pytest.raises(ValueError):
        Word(np.array([0.5, 1.0]), 2)


def test_word_is_immutable():
    w = Word.from_text("abab")
    with pytest.raises(AttributeError):
        w.alphabet_size = 3
    with pytest.raises((ValueError, RuntimeError)):
        w.letters[0] = 1


def test_storage_is_not_aliased_to_caller():
    arr = np.array([0, 1, 0, 1], dtype=np.uint8)
    w = Word(arr, 2)
    arr[0] = 1  # caller may keep mutating their own buffer
    assert w.to_text() == "abab"
    assert arr.flags.writeable


def test_equality_includes_alphabet():
    a = Word.from_text("ab")
    b = Word.from_text("ab", alphabet_size=3)
    assert a != b
    assert a == Word.from_text("ab")
    assert hash(a) == hash(Word.from_text("ab"))


def test_prefix_and_concat():
    w = Word.from_text("abcabc")
    assert w.prefix(3).to_text() == "abc"
    assert (Word.from_text("ab") + Word.from_text("ba")).to_text() == "abba"
    with pytest.raises(ValueError):
        w.prefix(7)
    with pytest.raises(ValueError):
        w.prefix(-1)


def test_concat_copies_its_letters_once():
    u, x = (Word(np.zeros(1 << 20, dtype=np.uint8), 2) for _ in range(2))
    tracemalloc.start()
    try:
        ux = u + x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ux) == 2 << 20 and not ux.letters.flags.writeable
    # the new array is frozen and kept, not copied again
    assert peak < 3 << 20, peak


def test_prefix_carries_alphabet():
    w = Word.from_text("abcabc")
    assert w.prefix(2).alphabet_size == w.alphabet_size


def test_large_alphabet_storage():
    w = Word(np.arange(300, dtype=np.int64), 300)
    assert len(w) == 300
    assert parikh(w) == tuple([1] * 300)
    with pytest.raises(ValueError):
        w.to_text()  # only a..z render as text
    # letters take the narrowest unsigned type that holds k - 1
    assert w.letters.dtype == np.uint16
    assert Word(np.arange(256), 256).letters.dtype == np.uint8
    assert Word([0, 1], 65_536).letters.dtype == np.uint16
    assert Word([0, 1], 70_000).letters.dtype == np.uint32
    assert Word([0, 1], 2**70).letters.dtype == np.uint64
    v = Word(list(range(300)), 300)
    assert v == w and hash(v) == hash(w)


def test_empty_word_is_legal():
    # empty pieces arise as commutation-witness blocks, so Word allows them
    w = Word.from_text("")
    assert len(w) == 0
    assert w.alphabet_size == 1
    assert parikh(w) == (0,)
    assert Word.from_text("ab").prefix(0).to_text() == ""


# ---------------------------------------------------------------- parikh


def test_parikh_examples():
    assert parikh(Word.from_text("aabbab")) == (3, 3)
    assert parikh(Word.from_text("cbabcabca")) == (3, 3, 3)
    assert parikh(Word.from_text("a", alphabet_size=3)) == (1, 0, 0)


@given(words, words)
def test_parikh_additive(s, t):
    joint = parikh(Word.from_text(s + t, alphabet_size=4))
    left = parikh(Word.from_text(s, alphabet_size=4))
    right = parikh(Word.from_text(t, alphabet_size=4))
    assert joint == tuple(x + y for x, y in zip(left, right))


@given(words, st.randoms(use_true_random=False))
def test_parikh_permutation_invariant(s, rng):
    shuffled = list(s)
    rng.shuffle(shuffled)
    k = 4
    assert parikh(Word.from_text(s, k)) == parikh(
        Word.from_text("".join(shuffled), k)
    )


def test_block_parikhs_matches_slices():
    w = Word.from_text("aabbababab")
    assert block_parikhs(w, 5) == [(3, 2), (2, 3)]
    assert block_parikhs(w, 10) == [parikh(w)]
    assert block_parikhs(w, 1) == [
        (1, 0) if c == "a" else (0, 1) for c in "aabbababab"
    ]
    with pytest.raises(ValueError):
        block_parikhs(w, 3)
    with pytest.raises(ValueError):
        block_parikhs(w, 0)


def test_block_parikhs_refuses_uint64_words_before_allocating():
    # over 2^32 letters a word is stored as uint64, and each of its blocks
    # would list more than 2^32 counts
    w = Word([0, 1, 2**40, 3], 2**41)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"k = {2**41} is over 2"):
            block_parikhs(w, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak


# ----------------------------------------------------- has_a_root_of_length


@given(words)
def test_root_detection_matches_reference(s):
    w = Word.from_text(s, alphabet_size=4)
    n = len(s)
    for d in range(1, n + 1):
        if n % d == 0:
            assert has_a_root_of_length(w, d) == ref_has_root(s, d)


def test_root_rejects_non_divisors():
    w = Word.from_text("abab")
    for d in (0, 3, 5, -2):
        with pytest.raises(ValueError):
            has_a_root_of_length(w, d)


def test_full_length_root_always_exists():
    for s in ("a", "ab", "xyz", "abcd"):
        w = Word.from_text(s)
        assert has_a_root_of_length(w, len(s))


def test_prefix_grid_modes_match_reference():
    rng = np.random.default_rng(42)
    for n, k in ((12, 2), (60, 3), (2048, 4), (4100, 3), (720, 20), (2080, 26)):
        samples = [rng.integers(0, k, size=n).astype(np.uint8) for _ in range(6)]
        for block_len in (d for d in (1, 2, 4, n // 2) if n % d == 0):
            tiled = np.tile(rng.integers(0, k, size=block_len), n // block_len)
            samples.append(tiled.astype(np.uint8))
        if n % (2 * k) == 0:
            # every letter twice a block: the step is k, below the root length 2k
            samples.append(_shuffled_power(rng, np.tile(np.arange(k, dtype=np.uint8), n // k),
                                           2 * k))
        divs = [d for d in range(1, n + 1) if n % d == 0]
        for letters in samples:
            # stored over k, over 70 + k (absent letters are ranked away)
            # and over 16; more than 16 letters present count rows by
            # bincount, fewer by the block table's row counts. A grid
            # tests the word itself and the prefixes that are its roots,
            # so every other prefix gets a grid of its own
            for m in divs:
                prefix = letters[:m]
                grids = [_PrefixGrid(Word(prefix.astype(np.int64), 70 + k))]
                grids += [_PrefixGrid(Word(prefix, j)) for j in {k, max(k, 16)}]
                if m == n or ref_has_root(letters.tolist(), m):
                    grids.append(_PrefixGrid(Word(letters, k)))
                for d in (d for d in divs if m % d == 0):
                    expected = ref_has_root(prefix.tolist(), d)
                    assert [g.blocks_agree(m, d) for g in grids] == [expected] * len(grids), (
                        n, k, m, d)


@pytest.mark.parametrize("n", [255, 256, 65_535, 65_536])
def test_prefix_grid_wraps_exactly_where_its_type_widens(n):
    # the grid sums each letter's deviation from its share in
    # np.min_scalar_type(n), unsigned: uint8 up to n = 255, uint16 up to
    # 65,535 and uint32 beyond. Runs of one letter, as in a^(n/2) b^(n/2),
    # wrap the deviations below zero and make them large, up to n/4
    assert np.min_scalar_type(n).itemsize == (1 if n < 256 else 2 if n < 65_536 else 4)
    def runs(d, k):
        # k runs of near-equal lengths: letter c fills [c·d/k, (c+1)·d/k)
        return (np.arange(d) * k // d).astype(np.uint8)

    rng = np.random.default_rng(n)
    primes = [p for p in (2, 3, 5, 17, 257) if n % p == 0]
    for k in (2, 3):
        samples = [runs(n, k)]
        for p in primes:
            power = np.tile(runs(n // p, k), p)
            samples += [power, _shuffled_power(rng, power, n // p)]
        for letters in samples:
            s = letters.tolist()
            roots = ref_a_root_lengths(s)
            profile = root_profile(Word(letters, k))
            assert list(profile.a_root_lengths) == roots, (n, k)
            assert list(profile.a_primitive_root_lengths) == [
                d for d in roots if ref_a_primitive(s[:d])], (n, k)
            grid = _PrefixGrid(Word(letters, k))
            for m in [n] + roots:
                for d in (d for d in range(1, m + 1) if m % d == 0):
                    assert grid.blocks_agree(m, d) == ref_has_root(s[:m], d), (n, k, m, d)


def _shuffled_power(rng, letters: np.ndarray, d: int) -> np.ndarray:
    """n/d copies of the first length-d block of letters, each shuffled."""
    copies = np.tile(letters[:d], letters.size // d).reshape(-1, d)
    return rng.permuted(copies, axis=1).ravel()


def test_cut_counter_and_block_sums_agree():
    rng = np.random.default_rng(7)
    # 720720 = 2^4·3^2·5·7·11·13: 41 cuts, few enough for k <= 26; at
    # 6186 = 2·3·1031 and k = 2 the entry counts 3093 and 2062 at their
    # cuts and tests 6 on the block table
    for n, k, lengths in [(720_720, k, [720_720 // p for p in (2, 3, 5, 7, 11, 13)])
                          for k in (1, 2, 3, 4, 5, 16, 17, 26, 300)] + [
                              (1 << 21, 2048, [1 << 20]), (6186, 2, [3093, 2062, 6])]:
        # k = 300 as a Word stores it, in uint16
        dtype = np.uint8 if k <= 256 else np.uint16 if k == 300 else np.int64
        base = [rng.integers(0, k, n).astype(dtype) for _ in range(2)]
        samples = base + [_shuffled_power(rng, base[0], d) for d in lengths]
        for c in range(min(k - 1, 2)):
            # powers whose last block, or first, has one letter c made
            # top: the length drops out at its last cut
            samples += [_made_top(_shuffled_power(rng, base[1], d), b, d, k, c)
                        for d in lengths for b in (n // d - 1, 0)]
        for letters in samples:
            w = Word(letters, k)
            expected = [d for d in lengths
                        if all(np.array_equal(np.bincount(block, minlength=k),
                                              np.bincount(letters[:d], minlength=k))
                               for block in letters.reshape(-1, d))]
            assert _cuts_agree(letters, lengths, k) == expected, (n, k)
            assert list(_blocks_agree(letters, lengths, k)) == expected, (n, k)
            grid = _PrefixGrid(w)
            assert [d for d in lengths if grid.blocks_agree(n, d)] == expected
            assert [d for d in lengths if has_a_root_of_length(w, d)] == expected
            assert is_a_primitive(w).witness_root_length == next(iter(expected), None)


def test_upward_closure_exhaustive_binary_12():
    n = 12
    pairs = [(a, b) for a in (1, 2, 3, 4, 6) for b in (2, 3, 4, 6) if b % a == 0 and a != b]
    for bits in range(2**n):
        letters = np.array([(bits >> i) & 1 for i in range(n)], dtype=np.uint8)
        w = Word(letters, 2)
        roots = {d for d in (1, 2, 3, 4, 6) if has_a_root_of_length(w, d)}
        for a, b in pairs:
            if a in roots:
                assert b in roots


@settings(max_examples=300)
@given(st.integers(1, 3**10 - 1))
def test_upward_closure_ternary_sampled(x):
    n = 10
    letters = np.array([(x // 3**i) % 3 for i in range(n)], dtype=np.uint8)
    w = Word(letters, 3)
    roots = {d for d in (1, 2, 5) if has_a_root_of_length(w, d)}
    if 1 in roots:
        assert {2, 5} <= roots


def test_wide_alphabet_memory_stays_linear():
    # 2^14 letters over 4096: a count table per block would take
    # (n/d)·k·8 bytes, hundreds of MiB at small d
    w = Word(np.random.default_rng(3).integers(0, 4096, 2**14), 4096)
    for run in (is_a_primitive_linear, root_profile):
        tracemalloc.start()
        try:
            run(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (run.__name__, peak)


def test_block_tests_stay_linear_whatever_k():
    # over k = 2^40 one count vector would take 8 TiB: the block tests
    # rank the letters present, and the first blocks of a pair compare sorted
    k = 2**40
    rng = np.random.default_rng(13)
    w = Word(rng.integers(0, k, 2**17), k)
    block = rng.integers(0, k, 4)
    u, x = (Word(_shuffled_power(rng, np.tile(block, 25), 4), k) for _ in range(2))
    assert not has_a_root_of_length(w, 2**16) and is_a_primitive(w).is_a_primitive
    assert sim_n(u, x, 4) and shared_root_check(u, x, 4) == x.prefix(4)
    for run, *args in [(has_a_root_of_length, w, 2**16), (is_a_primitive, w),
                       (root_profile, w), (sim_n, u, x, 4), (shared_root_check, u, x, 4)]:
        peak = _peak_bytes(run, *args)
        assert peak < 8 * 2**20, (run.__name__, peak)


def test_commute_check_memory_stays_linear():
    # 200,000 letters a side at n=2: a Word per block half would take
    # tens of MiB; the witness keeps offsets into ux
    flips = np.random.default_rng(4).integers(0, 2, (2, 100_000)).astype(np.uint8)
    u, x = (Word(np.stack([f, 1 - f], axis=1).ravel(), 2) for f in flips)
    tracemalloc.start()
    try:
        wit = commute_check(u, x, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert wit is not None
    assert peak < 16 * 2**20, peak


def _peak_bytes(run, *args) -> int:
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decider_memory_does_not_grow_with_the_word():
    # one maximal divisor: two segments, counted in fixed-size chunks; the
    # Abelian squares run every tally, past 16 letters bincounts of chunks
    rng = np.random.default_rng(5)
    words = [Word(rng.integers(0, 5, 1 << 22).astype(np.uint8), 5)]
    for k, dtype in ((26, np.uint8), (300, np.uint16)):
        half = rng.integers(0, k, 1 << 21).astype(dtype)
        words.append(Word(np.concatenate([half, rng.permutation(half)]), k))
    for w in words:
        assert is_a_primitive(w).is_a_primitive == (w.alphabet_size == 5)
        peak = _peak_bytes(is_a_primitive, w)
        assert peak < 2 * 2**20, (w.alphabet_size, peak)


@pytest.fixture
def tallies_run(monkeypatch):
    """The counting calls of the cut counter, in order: "nonzero" for a
    nonzero tally of a segment, c for a comparison tally of letter c, and
    "bincount" for each bincount of a chunk."""
    run = []
    count_nonzero, bincount, letter_count = np.count_nonzero, np.bincount, parikh_module._letter_count

    def counted_nonzero(a, *args, **kwargs):
        if a.dtype != bool:  # a comparison tally counts a mask
            run.append("nonzero")
        return count_nonzero(a, *args, **kwargs)

    def counted_bincount(*args, **kwargs):
        run.append("bincount")
        return bincount(*args, **kwargs)

    def counted_letter(segment, c):
        run.append(c)
        return letter_count(segment, c)

    monkeypatch.setattr(np, "count_nonzero", counted_nonzero)
    monkeypatch.setattr(np, "bincount", counted_bincount)
    monkeypatch.setattr(parikh_module, "_letter_count", counted_letter)
    return run


def test_cut_counter_runs_a_later_tally_only_for_a_surviving_length(tallies_run):
    # 720720 = 2^4·3^2·5·7·11·13: every n/p is at least 512·26 letters, so
    # the cut counter takes them all
    rng = np.random.default_rng(14)
    n = 720_720
    for k in (4, 26):
        w = Word(rng.integers(0, k, n).astype(np.uint8), k)
        tallies_run.clear()
        assert is_a_primitive(w).is_a_primitive
        # every n/p drops in the nonzero tally, and nothing else is counted
        assert tallies_run and set(tallies_run) == {"nonzero"}, (k, tallies_run)
    # an Abelian square: n/2 holds through both segments of every tally,
    # k - 1 of them, and the nonzero count is never taken again; n/3,
    # ..., n/13 drop at their second cut in the nonzero tally
    for k in (4, 26):
        half = rng.integers(0, k, n // 2).astype(np.uint8)
        w = Word(np.concatenate([half, rng.permutation(half)]), k)
        tallies_run.clear()
        assert is_a_primitive(w).witness_root_length == n // 2
        nonzero = tallies_run.count("nonzero")
        assert tallies_run[:nonzero] == ["nonzero"] * nonzero, k
        chunks = -(-n // 2 // _CHUNK)
        assert tallies_run[nonzero:] == ([2, 2, 3, 3] if k == 4 else ["bincount"] * 2 * chunks)


def test_decider_builds_no_cut_list_for_dense_cuts():
    # n = 2·999983 has 999985 cuts: each n/p is tested on its own, with
    # no per-cut structure and no prefix sums at every letter (8 bytes
    # a letter); random words and Abelian squares
    rng = np.random.default_rng(6)
    for k in (2, 3):
        random = rng.integers(0, k, 2 * 999_983).astype(np.uint8)
        for letters in (random, _shuffled_power(rng, random, 999_983)):
            peak = _peak_bytes(is_a_primitive, Word(letters, k))
            assert peak < 4 * 2**20, (k, peak)


# --------------------------------------------------- one-length block test


def _made_top(letters: np.ndarray, block: int, d: int, k: int, c: int) -> np.ndarray:
    """A copy of letters whose given length-d block has its first letter c
    turned into letter k-1: only the counts of letters c and k-1 change.
    With c = 0 the block's nonzero count changes, which the cut counter's
    first tally sees; with c = 1 and k >= 3 it stays, so only a later
    tally, of letter k-1 or by bincount, sees the change."""
    out = letters.copy()
    part = out[block * d : (block + 1) * d]
    part[np.flatnonzero(part == c)[0]] = k - 1
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 5, 16, 17, 26])
def test_one_length_test_matches_reference(k):
    # d on both sides of every branch: the column sums below 24, the row
    # sums, sorted blocks past 16 letters, and the cut counter from
    # _CUT_COST·k letters
    rng = np.random.default_rng(k)
    cut = _CUT_COST * k
    for d in (1, 2, 23, 24, 31, 32, cut - 1, cut, 1 << 15, 1 << 16, 3 << 15):
        n = 3 << 16 if d >= 1 << 15 else 48 * d
        base = rng.integers(0, k, d).astype(np.uint8)
        base[0] = 0  # every block of the power has a letter 0 to change
        if k > 2 and d > 1:
            base[1] = 1  # and a letter 1
        power = _shuffled_power(rng, np.tile(base, n // d), d)
        samples = [rng.integers(0, k, n).astype(np.uint8) for _ in range(2)] + [power]
        # the last block, or the first, differs in letter k-1 and letter
        # 0, or letter 1 where blocks have one
        for c in range(min(k - 1, 2, d)):
            samples += [_made_top(power, b, d, k, c) for b in (n // d - 1, 0)]
        for letters in samples:
            expected = ref_has_root(letters.tolist(), d)
            assert has_a_root_of_length(Word(letters, k), d) == expected, (k, d)
        assert has_a_root_of_length(Word(power, k), d)


@pytest.fixture
def grids_built(monkeypatch):
    """Lengths of the words that a `_PrefixGrid`, the grid of good cuts
    that `root_profile` reads, is built on."""
    built = []
    init = _PrefixGrid.__init__

    def counted_init(self, w):
        built.append(len(w))
        init(self, w)

    monkeypatch.setattr(_PrefixGrid, "__init__", counted_init)
    return built


def test_one_length_tests_build_no_block_sums(grids_built):
    n = 1000
    rng = np.random.default_rng(11)
    power = _shuffled_power(rng, rng.integers(0, 3, 400_000).astype(np.uint8), n)
    u, x = Word(power[:200_000], 3), Word(power[200_000:], 3)
    assert has_a_root_of_length(u, n)
    assert sim_n(u, x, n)
    assert commute_check(u, x, n) is not None
    # the decider that shared_root_check runs on u's prefix builds none either
    assert shared_root_check(u, x, n) == x.prefix(n)
    assert grids_built == []


def test_one_length_test_memory_does_not_grow_per_letter():
    # prefix sums at every letter take 8 bytes per letter; the block
    # table about one
    rng = np.random.default_rng(12)
    d = 1000
    w = Word(_shuffled_power(rng, rng.integers(0, 3, 2_000_000).astype(np.uint8), d), 3)
    assert has_a_root_of_length(w, d)
    peak = _peak_bytes(has_a_root_of_length, w, d)
    assert peak < 6 * 2**20, peak

import math
import sys

import pytest

from abelwords import (
    FAMILIES,
    ConstructionBudgetError,
    ConstructionSpec,
    Word,
    antichain_word,
    count_distinct_a_primitive_roots,
    factorize,
    first_primes,
    has_a_root_of_length,
    is_a_primitive,
    is_a_primitive_linear,
    is_a_primitive_oracle,
    is_in_M,
    is_prime,
    m_word,
    middle_antichain,
    multiples_closure,
    multiroot_word,
    parikh,
    root_profile,
)
from conftest import ref_a_primitive

Z30 = "aabbababababaabbababaabbaabbababaabbaabbababaabbababababaabb"


def test_first_primes():
    assert first_primes(1) == [2]
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]
    assert first_primes(0) == []


def test_m_word_shape():
    assert m_word(2).to_text() == "aabb"
    assert m_word(3).to_text() == "aabbab"
    assert m_word(5).to_text() == "aabbababab"
    assert len(m_word(97)) == 194


def test_m_word_rejects_non_primes():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            m_word(bad)


def test_m_word_is_a_primitive_for_primes():
    for p in first_primes(25):  # up to 97
        w = m_word(p)
        assert is_a_primitive_linear(w).is_a_primitive, p
        assert parikh(w) == (p, p)


def test_membership_in_M():
    # exactly the words aabb(ab)^(p-2) with p prime pass
    for m in range(0, 29):
        s = "aabb" + "ab" * m
        expected = (m + 2) in set(first_primes(20))
        assert is_in_M(Word.from_text(s, alphabet_size=2)) == expected, s
    for s in ("abab", "aabba", "bbaa", "ab", "aab", "aabbba", "abababab"):
        assert not is_in_M(Word.from_text(s, alphabet_size=2)), s


def test_composite_aabb_ab_words_are_abelian_powers():
    # the converse half of A-primitive ∩ aabb(ab)* = M: at composite q,
    # aabb(ab)^(q-2) has an A-root of length 2q/p for every prime p | q
    for q in range(4, 201):
        primes = factorize(q).primes
        if primes == (q,):
            continue
        w = Word.from_text("aabb" + "ab" * (q - 2), alphabet_size=2)
        assert not is_a_primitive(w).is_a_primitive, q
        assert not is_a_primitive_oracle(w).is_a_primitive, q
        assert not ref_a_primitive(w.to_text()), q
        for p in primes:
            assert has_a_root_of_length(w, 2 * q // p), (q, p)
        assert not is_in_M(w), q


def test_multiroot_words_have_expected_roots():
    for n in range(2, 6):
        w = multiroot_word(n)
        primes = first_primes(n)
        assert len(w) == 2 * math.prod(primes)
        assert count_distinct_a_primitive_roots(w) == n
        profile = root_profile(w)
        assert set(profile.a_primitive_root_lengths) == {2 * p for p in primes}


def test_multiroot_word_smallest_case():
    # the n=1 member is aabb, which is A-primitive outright, so its
    # profile of proper roots is empty
    w = multiroot_word(1)
    assert w.to_text() == "aabb"
    assert is_a_primitive_linear(w).is_a_primitive
    assert count_distinct_a_primitive_roots(w) == 0


def test_antichain_word_shape():
    for n in (2, 3, 12, 30, 60, 100):
        z = antichain_word(n)
        assert len(z) == 2 * n
        assert parikh(z) == (n, n)


def test_antichain_word_has_predicted_roots():
    for n in range(2, 120):
        z = antichain_word(n)
        predicted = {2 * t for t in middle_antichain(n)}
        assert predicted <= set(root_profile(z).a_primitive_root_lengths), n


def test_antichain_word_30_exact():
    assert antichain_word(30).to_text() == Z30


def test_antichain_word_matches_closure_runs():
    # a^g b^g for each gap g between consecutive elements of the closure
    for n in range(2, 301):
        closure = multiples_closure(n)
        gaps = [t - s for s, t in zip([0] + closure, closure)]
        expected = "".join("a" * g + "b" * g for g in gaps)
        assert antichain_word(n).to_text() == expected, n


def test_construction_spec_dispatch():
    assert set(FAMILIES) == {"mword", "multiroot", "antichain"}
    assert ConstructionSpec("mword", 5).build().to_text() == "aabbababab"
    assert ConstructionSpec("multiroot", 2).build() == multiroot_word(2)
    assert ConstructionSpec("antichain", 30).build().to_text() == Z30


def test_mword_spec_tests_primality_once(monkeypatch):
    constructions = sys.modules["abelwords.constructions"]
    calls = []

    def counted_is_prime(p):
        calls.append(p)
        return is_prime(p)

    monkeypatch.setattr(constructions, "is_prime", counted_is_prime)
    word = ConstructionSpec("mword", 7).build()
    assert calls == [7]
    assert word == m_word(7)


def test_construction_spec_validation():
    with pytest.raises(ValueError):
        ConstructionSpec("unknown", 3).build()
    with pytest.raises(ValueError):
        ConstructionSpec("mword", 4).build()
    with pytest.raises(ValueError):
        ConstructionSpec("antichain", 1).build()
    # the spec checks the family and the length; the family function
    # checks the parameter, and a negative multiroot count lists no primes
    for family in FAMILIES:
        for parameter in (0, -1):
            with pytest.raises(ValueError):
                ConstructionSpec(family, parameter).build()


def test_construction_spec_checks_length_before_building():
    # the word's length is known up front: 2p, 2·(first n primes), 2n
    assert ConstructionSpec("antichain", 30).build(budget=60).to_text() == Z30
    for family, parameter, budget in (("antichain", 30, 59), ("mword", 5, 9),
                                      ("multiroot", 2, 11), ("multiroot", 12, None),
                                      ("antichain", 10**12, None),
                                      ("mword", 10**18 + 3, None)):
        with pytest.raises(ConstructionBudgetError):
            ConstructionSpec(family, parameter).build(budget=budget)

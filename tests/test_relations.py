import itertools

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from abelwords import (
    CommutationWitness,
    Word,
    commute_check,
    has_a_root_of_length,
    is_a_primitive_linear,
    parikh,
    shared_root_check,
    sim_n,
    simeq_n,
    witness_is_valid,
)
from conftest import ref_has_root

W = Word.from_text


def all_words(length: int, letters: str = "ab"):
    for chars in itertools.product(letters, repeat=length):
        yield "".join(chars)


# ------------------------------------------------------------- relations


def test_sim_known_pairs():
    assert sim_n(W("abcacbabc"), W("cbabcabca"), 3)
    assert not sim_n(W("abaa"), W("baaa"), 2)
    assert sim_n(W("ab"), W("ba"), 2)
    assert not sim_n(W("ab"), W("ba"), 1)
    assert not sim_n(W("aabb"), W("abab"), 2)  # aa and bb blocks differ
    assert sim_n(W("abab"), W("baba"), 2)


def test_simeq_known_pairs():
    assert simeq_n(W("abaa"), W("baaa"), 2)
    assert simeq_n(W("abcacbabc"), W("cbabcabca"), 3)
    assert not simeq_n(W("aabb"), W("bbaa"), 2)
    assert simeq_n(W("aabb"), W("abab"), 2) is False
    # block i against block i, not block multisets: (ab, bb) vs (bb, ab)
    assert not simeq_n(W("abbb"), W("bbab"), 2)


def test_relations_over_mixed_alphabets():
    # u over {a, b} with k=2 and x over {a, b} with k=3: the words relate
    # as their concatenation would, over the larger alphabet
    u, x = W("abba", 2), W("baab", 3)
    assert sim_n(u, x, 2) and sim_n(x, u, 2)
    assert not sim_n(u, W("aabb", 3), 2)
    assert not sim_n(W("abab", 2), W("aaab", 3), 2)  # first blocks differ
    assert shared_root_check(u, x, 2) == W("ba", 3)
    assert shared_root_check(W("aabb", 2), W("baab", 3), 4) == W("baab", 3)
    with pytest.raises(ValueError):
        shared_root_check(u, W("aabb", 3), 2)


def test_relation_argument_errors():
    with pytest.raises(ValueError):
        sim_n(W("ab"), W("abcd"), 2)
    with pytest.raises(ValueError):
        sim_n(W("abab"), W("abab"), 3)
    with pytest.raises(ValueError):
        simeq_n(W("ab"), W("ab"), 0)


@given(st.text(alphabet="abc", min_size=1, max_size=24), st.integers(1, 24))
def test_reflexivity(s, n):
    if len(s) % n:
        return
    w = W(s, alphabet_size=3)
    assert simeq_n(w, w, n)
    # the stronger relation relates w to itself only when all of w's own
    # blocks agree, i.e. exactly when w has an A-root of length n
    assert sim_n(w, w, n) == has_a_root_of_length(w, n)


@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.data(),
)
def test_relations_symmetric_transitive(n, m, data):
    length = n * m
    s = data.draw(st.text(alphabet="ab", min_size=length, max_size=length))
    t = data.draw(st.text(alphabet="ab", min_size=length, max_size=length))
    v = data.draw(st.text(alphabet="ab", min_size=length, max_size=length))
    ws, wt, wv = W(s, 2), W(t, 2), W(v, 2)
    assert sim_n(ws, wt, n) == sim_n(wt, ws, n)
    assert simeq_n(ws, wt, n) == simeq_n(wt, ws, n)
    if sim_n(ws, wt, n) and sim_n(wt, wv, n):
        assert sim_n(ws, wv, n)
    if simeq_n(ws, wt, n) and simeq_n(wt, wv, n):
        assert simeq_n(ws, wv, n)
    if sim_n(ws, wt, n):
        assert simeq_n(ws, wt, n)


# ---------------------------------------------------------- commute_check


def test_commute_witness_example():
    wit = commute_check(W("cbabc"), W("abca"), 3)
    assert wit is not None
    assert (wit.r, wit.s, wit.q) == (3, 2, 2)
    assert wit.ux == W("cbabcabca")
    assert [a.to_text() for a in wit.alphas] == ["cb", "bc", "bc"]
    assert [b.to_text() for b in wit.betas] == ["a", "a", "a"]
    assert witness_is_valid(W("cbabc"), W("abca"), 3, wit)


def test_commute_negative():
    assert commute_check(W("baa"), W("a"), 2) is None
    # ... even though the parallel-blocks relation holds there
    assert simeq_n(W("baa") + W("a"), W("a") + W("baa"), 2)


def test_commute_whole_length_block():
    # one block per side: any pair commutes at n = |u|+|x|
    wit = commute_check(W("ab"), W("bbab"), 6)
    assert wit is not None
    assert witness_is_valid(W("ab"), W("bbab"), 6, wit)


def test_commute_argument_errors():
    with pytest.raises(ValueError):
        commute_check(W("ab"), W("ab"), 3)
    with pytest.raises(ValueError):
        commute_check(W("ab"), W("ab"), 0)
    with pytest.raises(ValueError):
        commute_check(W(""), W("ab"), 1)


def assert_commute_matches_relation(u, x, n):
    """commute_check decides ux ~_n xu as the definition does, and each
    witness it returns is the forced one and passes witness_is_valid."""
    wit = commute_check(u, x, n)
    assert (wit is not None) == sim_n(u + x, x + u, n)
    if wit is not None:
        assert (wit.r, wit.s, wit.q, wit.ux) == (
            (len(u) + len(x)) // n, len(u) // n + 1, len(u) % n, u + x
        )
        assert witness_is_valid(u, x, n, wit)
    return wit


def test_commute_matches_relation_exhaustively():
    for letters, top in (("ab", 10), ("abc", 7)):
        k = len(letters)
        for total in range(2, top + 1):
            for ulen in range(1, total):
                for n in [d for d in range(1, total + 1) if total % d == 0]:
                    for us in all_words(ulen, letters):
                        for xs in all_words(total - ulen, letters):
                            assert_commute_matches_relation(W(us, k), W(xs, k), n)


@given(st.integers(2, 4), st.integers(1, 5), st.integers(1, 4), st.data())
def test_commute_on_pairs_built_from_a_witness(k, n, r, data):
    # every alpha_i is a shuffle of one word alpha and every beta_i of one
    # word beta, so condition (c) holds and ux ~_n xu by construction
    s = data.draw(st.integers(1, r), label="s")
    q = data.draw(st.integers(0, n - 1), label="q")
    assume((s, q) != (1, 0))  # u is nonempty
    letter = st.integers(0, k - 1)
    alpha = data.draw(st.lists(letter, min_size=q, max_size=q), label="alpha")
    beta = data.draw(st.lists(letter, min_size=n - q, max_size=n - q), label="beta")
    ux = []
    for _ in range(r):
        ux += data.draw(st.permutations(alpha)) + data.draw(st.permutations(beta))
    cut = (s - 1) * n + q
    u, x = Word(ux[:cut], k), Word(ux[cut:], k)
    assert assert_commute_matches_relation(u, x, n) is not None


@given(st.integers(2, 4), st.integers(1, 4), st.integers(1, 8), st.integers(1, 8),
       st.data())
def test_commute_on_random_pairs(k, n, ulen, xlen, data):
    assume((ulen + xlen) % n == 0)
    letter = st.integers(0, k - 1)
    u = Word(data.draw(st.lists(letter, min_size=ulen, max_size=ulen)), k)
    x = Word(data.draw(st.lists(letter, min_size=xlen, max_size=xlen)), k)
    assert_commute_matches_relation(u, x, n)


def test_witness_rejects_tampering():
    u, x = W("cbabc"), W("abca")
    wit = commute_check(u, x, 3)
    assert (wit.r, wit.s, wit.q) == (3, 2, 2)
    changed = wit.ux.letters.copy()
    changed[-1] = 1
    tampered = {
        "one block too many": CommutationWitness(wit.r + 1, wit.s, wit.q, wit.ux),
        "s past the last block": CommutationWitness(wit.r, wit.r + 1, wit.q, wit.ux),
        "q equal to n": CommutationWitness(wit.r, wit.s, 3, wit.ux),
        "q one short": CommutationWitness(wit.r, wit.s, wit.q - 1, wit.ux),
        # the cut moved one letter on, to the start of the next block
        "q one over, s adjusted": CommutationWitness(wit.r, wit.s + 1, 0, wit.ux),
        "a changed letter in ux": CommutationWitness(wit.r, wit.s, wit.q, Word(changed, 3)),
    }
    for label, bad in tampered.items():
        assert not witness_is_valid(u, x, 3, bad), label
    # right shape and right ux for a pair that does not commute: alphas
    # b and a differ in Parikh vector, so condition (c) rejects it
    u2, x2 = W("baa"), W("a")
    assert not witness_is_valid(u2, x2, 2, CommutationWitness(2, 2, 1, u2 + x2))


# ------------------------------------------------------- shared_root_check


def test_shared_root_positive():
    u, x = W("aabbabab"), W("bbaa")
    got = shared_root_check(u, x, 4)
    assert got is not None
    assert got.to_text() == "bbaa"
    assert parikh(got) == parikh(u.prefix(4))


def test_shared_root_none_when_prefix_not_primitive():
    # every 4-block here is a permutation of aabb, but u's prefix abab
    # is itself an Abelian square, so no A-primitive-root claim is made
    assert shared_root_check(W("abababab"), W("abab"), 4) is None


def test_shared_root_evidence_may_be_non_primitive():
    # the guarantee is an A-root of the right length and Parikh vector,
    # deliberately not A-primitivity of that root
    u, x = W("aabbabab"), W("abababab")
    got = shared_root_check(u, x, 4)
    assert got is not None
    assert got.to_text() == "abab"
    assert not is_a_primitive_linear(got).is_a_primitive


def test_shared_root_errors():
    with pytest.raises(ValueError):
        shared_root_check(W("aabb"), W("aaab"), 4)  # fails ux ~ xu
    with pytest.raises(ValueError):
        shared_root_check(W("aabb"), W("ab"), 4)  # 4 does not divide |x|
    with pytest.raises(ValueError):
        shared_root_check(W(""), W("ab"), 1)


@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 4), st.data())
def test_shared_root_agrees_with_direct_computation(n, mu, mx, ku, kx, data):
    # u and x may have different alphabet sizes; the relation is that of
    # their concatenation over the larger alphabet
    us = data.draw(st.text(alphabet="abcd"[:ku], min_size=n * mu, max_size=n * mu))
    xs = data.draw(st.text(alphabet="abcd"[:kx], min_size=n * mx, max_size=n * mx))
    u, x = W(us, ku), W(xs, kx)
    commute = ref_has_root(us + xs, n)
    if mu == mx:
        assert sim_n(u, x, n) == commute
    if not commute:
        with pytest.raises(ValueError):
            shared_root_check(u, x, n)
        return
    got = shared_root_check(u, x, n)
    prefix_primitive = is_a_primitive_linear(u.prefix(n)).is_a_primitive
    if not prefix_primitive:
        assert got is None
    else:
        assert got == x.prefix(n)
        assert has_a_root_of_length(x, n)
        assert sorted(got.to_text()) == sorted(us[:n])


def test_shared_root_exhaustive_small():
    for n in (1, 2, 3):
        for mu in (1, 2):
            for mx in (1, 2):
                for us in all_words(n * mu):
                    for xs in all_words(n * mx):
                        u, x = W(us, 2), W(xs, 2)
                        if not sim_n(u + x, x + u, n):
                            continue
                        got = shared_root_check(u, x, n)
                        want_none = not is_a_primitive_linear(
                            u.prefix(n)
                        ).is_a_primitive
                        assert (got is None) == want_none
                        if got is not None:
                            assert has_a_root_of_length(x, n)

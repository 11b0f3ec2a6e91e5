import time
import tracemalloc

import pytest

from abelwords import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    count_table,
    delta,
    delta_prime_power,
    psi,
    psi_a,
)
from abelwords import counting
from abelwords.cli import main
from conftest import _prim_table, ref_a_primitive, ref_delta_prime_power, ref_psi


def every_word(k: int, n: int):
    for x in range(k**n):
        digits = []
        for _ in range(n):
            digits.append(x % k)
            x //= k
        yield digits


def classically_primitive(s) -> bool:
    n = len(s)
    return not any(
        n % d == 0 and s == s[:d] * (n // d) for d in range(1, n)
    )


# -------------------------------------------------------------------- psi


def test_psi_small_values():
    assert psi(2, 1) == 2
    assert psi(2, 2) == 2
    assert psi(2, 4) == 12
    assert psi(2, 6) == 54
    assert psi(3, 4) == 72
    assert psi(4, 2) == 12


def test_psi_brute_force():
    for k in (2, 3):
        for n in range(1, 11 if k == 2 else 8):
            expect = sum(1 for w in every_word(k, n) if classically_primitive(w))
            assert psi(k, n) == expect, (k, n)


def test_psi_against_mobius_oracle():
    sympy = pytest.importorskip("sympy")
    for k in (2, 3, 4, 5):
        for n in range(1, 40):
            expect = sum(
                sympy.mobius(n // d) * k**d for d in sympy.divisors(n)
            )
            assert psi(k, n) == expect


def test_psi_against_conftest_oracle():
    for k in range(1, 6):
        for n in range(1, 40):
            assert psi(k, n) == ref_psi(k, n), (k, n)


def test_psi_rejects_bad_args():
    for k, n in ((0, 3), (2, 0), (-1, -1)):
        with pytest.raises(ValueError):
            psi(k, n)


# ------------------------------------------------------------------ psi_a


def test_psi_a_brute_force():
    for k, top in ((2, 11), (3, 8), (4, 6)):
        for n in range(1, top):
            letters = "abcdef"[:k]
            expect = sum(
                1
                for w in every_word(k, n)
                if ref_a_primitive("".join(letters[c] for c in w))
            )
            assert psi_a(k, n) == expect, (k, n)


def test_psi_a_known_cells():
    assert psi_a(2, 4) == 10
    assert psi_a(2, 6) == 36
    assert psi_a(2, 12) == 2972
    assert psi_a(3, 10) == 54300
    assert psi_a(4, 10) == 1016880
    assert psi_a(5, 8) == 382740
    assert psi_a(2, 20) == 859180


def test_psi_a_unary():
    assert psi_a(1, 1) == 1
    for n in (2, 3, 6, 12):
        assert psi_a(1, n) == 0


def test_psi_a_matches_enumeration_oracle():
    for k, top in ((2, 16), (3, 10), (4, 8), (5, 7)):
        for n in range(1, top + 1):
            assert psi_a(k, n) == int(_prim_table(k, n).sum()), (k, n)


def test_psi_a_prime_rows_beyond_enumeration():
    # k**n * n is far over the default budget at these primes
    for k, p in ((2, 31), (3, 23), (2, 1009)):
        assert psi_a(k, p) == k**p - k


def test_a_primitive_words_are_classically_primitive():
    # a classical k-th power is an Abelian k-th power, so psi_a <= psi
    for k in (2, 3, 4):
        for n in range(1, 10):
            a, c = psi_a(k, n), psi(k, n)
            assert a <= c
            if n in (2, 3, 5, 7):
                assert a == c


# ----------------------------------------------------------------- budget


def test_budget_error_names_the_numbers():
    with pytest.raises(EnumerationBudgetError) as info:
        psi_a(2, 40, budget=1000)
    msg = str(info.value)
    # n = 40 = 2**3 * 5 has the prime sets {2}, {5}, {2, 5} with
    # 21*2 + 9*5 + 5*6 = 117 multinomial factors, times n = 40
    assert "1000" in msg
    assert "4680" in msg
    # n = 6 has the prime sets {2}, {3}, {2, 3} with n/L = 3, 2, 1; at
    # n/L = 1 both counts are the two unary words, so that term is neither
    # summed nor costed: (4*2 + 3*3) * 6 = 102
    assert psi_a(2, 6, budget=102) == 36
    with pytest.raises(EnumerationBudgetError, match="costs 102 "):
        psi_a(2, 6, budget=101)


def test_default_budget_blocks_huge_enumerations(capsys):
    for k, n in ((2, 10**6), (26, 720720)):
        with pytest.raises(EnumerationBudgetError):
            psi_a(k, n)
    assert main(["count", "--k", "26", "--n", "720720"]) == 3
    assert "budget" in capsys.readouterr().err


def test_default_budget_answers_every_enumerable_row():
    # every row the k**n * n enumeration budget allowed is still answered
    for k in range(2, 7):
        n = 1
        while k**n * n <= DEFAULT_BUDGET:
            assert 0 <= psi_a(k, n) <= psi(k, n), (k, n)
            n += 1


def test_size_of_k_to_the_n_is_checked_before_anything_else(capsys):
    # k**n in 64-bit words: 2**61 and 5**19 take one, 2**67 and 3**41 two
    assert psi_a(2, 61, budget=1) == 2**61 - 2
    assert psi_a(5, 19, budget=1) == 5**19 - 5
    for k, n in ((2, 67), (3, 41)):
        with pytest.raises(EnumerationBudgetError, match="2 64-bit words"):
            psi_a(k, n, budget=1)
    table = count_table(2, 67, budget=1)
    assert 61 in [r.n for r in table.rows] and 67 in table.skipped
    # prime and composite rows far past any budget are refused at once,
    # before trial division or k**n
    for n in (10**12 + 39, 10**18 + 3, 10**18, 10**4000):
        start = time.perf_counter()
        with pytest.raises(EnumerationBudgetError):
            psi_a(2, n)
        with pytest.raises(EnumerationBudgetError):
            delta(2, n)
        assert time.perf_counter() - start < 1, n
    for n in ("1000000000039", "1000000000000000003"):
        start = time.perf_counter()
        assert main(["count", "--k", "2", "--n", n]) == 3
        assert time.perf_counter() - start < 1, n
        out, err = capsys.readouterr()
        assert out == "" and "budget" in err


def test_cost_refusal_comes_before_k_to_the_n():
    # 2**33 is composite and its k**n fits the size check, so only the
    # cost check stands between the call and a number of 2**33 bits
    for count in (psi_a, delta):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(EnumerationBudgetError, match="multinomial factors"):
                count(2, 2**33)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1, count
        assert peak < 1 << 20, (count, peak)


def test_one_factorization_per_row(monkeypatch):
    calls, factorize = [], counting.factorize
    monkeypatch.setattr(counting, "factorize", lambda n: calls.append(n) or factorize(n))
    count_table(3, 30)
    assert calls == list(range(1, 31))
    calls.clear()
    assert main(["count", "--k", "3", "--n", "12"]) == 0
    assert calls == [12]
    calls.clear()
    assert delta_prime_power(3, 2, 5) == ref_delta_prime_power(3, 2, 5)
    assert calls == [32]


def test_budget_env_is_not_read_by_library(monkeypatch):
    monkeypatch.setenv("ABELWORDS_BUDGET", "1")
    assert psi_a(2, 6) == 36  # only the CLI consults the environment


# ------------------------------------------------------------------ delta


def test_delta_values():
    assert delta(2, 4) == 2
    assert delta(2, 6) == 18
    assert delta(2, 8) == 54
    assert delta(2, 9) == 48
    assert delta(3, 4) == 6
    for p in (2, 3, 5, 7, 11, 13):
        assert delta(2, p) == 0
    assert delta(4, 1) == 0


def test_delta_prime_power_closed_form():
    cases = [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 2), (3, 2, 2), (4, 2, 2),
             (2, 2, 6), (2, 3, 3), (3, 5, 2), (2, 7, 2)]
    for k, p, r in cases:
        direct = delta_prime_power(k, p, r)
        assert direct == ref_delta_prime_power(k, p, r), (k, p, r)
        if k ** (p**r) <= 1 << 16:
            assert direct == ref_psi(k, p**r) - int(_prim_table(k, p**r).sum()), (k, p, r)


def test_delta_prime_power_counts_ordered_tuples():
    # Parikh classes are ordered tuples: for k=2, p=2, r=3 the classes
    # (1,3), (2,2), (3,1) contribute 12 + 30 + 12
    assert delta_prime_power(2, 2, 3) == 54
    assert delta_prime_power(2, 2, 2) == 2
    assert delta_prime_power(2, 3, 2) == 48


def test_delta_prime_power_validation():
    with pytest.raises(ValueError):
        delta_prime_power(2, 4, 2)  # p must be prime
    with pytest.raises(ValueError):
        delta_prime_power(2, 2, 1)  # r >= 2
    with pytest.raises(ValueError):
        delta_prime_power(0, 2, 2)
    with pytest.raises(ValueError):
        delta_prime_power(2, 1, 2)  # p < 2 is rejected before any budget check
    # the row of 6**2 over 10 letters costs 369,916,560, inside the budget,
    # and would walk about 5.3M compositions; a composite p is rejected
    # once the budget checks pass, before any term is summed
    start = time.perf_counter()
    with pytest.raises(ValueError, match="requires prime p, got 6"):
        delta_prime_power(10, 6, 2)
    assert time.perf_counter() - start < 1


def _refusal(count, *args):
    """The budget refusal's message, or None when the count answers."""
    try:
        count(*args)
    except EnumerationBudgetError as exc:
        return str(exc)
    return None


def test_delta_prime_power_refuses_exactly_where_psi_a_does(monkeypatch):
    # small default budgets put the boundary among rows cheap to answer;
    # the messages agree too, so both refuse at the same check
    outcomes = set()
    for budget in (100, 10_000):
        monkeypatch.setattr(counting, "DEFAULT_BUDGET", budget)
        for k in (1, 2, 3, 4, 6):
            for p in (2, 3, 5, 7):
                for r in range(2, 14 if p == 2 else 7):
                    refused = _refusal(psi_a, k, p**r)
                    assert _refusal(delta_prime_power, k, p, r) == refused, (budget, k, p, r)
                    outcomes.add(refused and refused.split()[0])
    # answers, size refusals ("psi_a over ...") and cost refusals all occur
    assert outcomes == {None, "psi_a", "counting"}


def test_delta_prime_power_refuses_before_the_primality_test(monkeypatch):
    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) ran before the budget checks")

    monkeypatch.setattr(counting, "is_prime", no_trial_division)
    # 10^18 + 9 would be trial-divided up to 10^9; the size of 2**(p**2) refuses first
    with pytest.raises(EnumerationBudgetError, match="64-bit words"):
        delta_prime_power(2, 10**18 + 9, 2)
    # the loop would walk C(2073, 25) compositions; psi_a(26, 4096) is the same row
    with pytest.raises(EnumerationBudgetError, match="multinomial factors") as info:
        delta_prime_power(26, 2, 12)
    assert str(info.value) == _refusal(psi_a, 26, 4096)
    # 262139, the largest prime below 2**18, passes the size check at r = 2
    # (2**(262139**2) takes 1073700865 64-bit words), so p**2 is
    # trial-divided inside the row before its cost is refused
    start = time.perf_counter()
    with pytest.raises(EnumerationBudgetError, match="multinomial factors"):
        delta_prime_power(2, 262139, 2)
    assert time.perf_counter() - start < 1
    # the benchmark's rows cost 288 and 945, far inside the default budget
    monkeypatch.undo()
    assert delta_prime_power(2, 2, 4) == delta(2, 16)
    assert delta_prime_power(5, 3, 2) == delta(5, 9)


# ------------------------------------------------------------ count_table


def test_count_table_small():
    t = count_table(2, 8)
    assert t.alphabet_size == 2
    assert t.skipped == ()
    assert [r.n for r in t.rows] == list(range(1, 9))
    assert [r.psi_a for r in t.rows] == [2, 2, 6, 10, 30, 36, 126, 186]
    assert all(r.delta == r.psi - r.psi_a for r in t.rows)


def test_count_table_prime_rows_need_no_budget():
    t = count_table(4, 13, budget=10)  # too small for any enumeration
    have = {r.n for r in t.rows}
    assert have == {1, 2, 3, 5, 7, 11, 13}
    assert set(t.skipped) == {4, 6, 8, 9, 10, 12}
    for r in t.rows:
        assert r.psi_a == r.psi
        if r.n > 1:
            assert r.psi_a == 4**r.n - 4


def test_count_table_psi_column_is_psi():
    for k in range(1, 6):
        table = count_table(k, 40)
        assert table.skipped == ()
        for r in table.rows:
            assert r.psi == psi(k, r.n), (k, r.n)


def test_count_table_rejects_bad_args():
    with pytest.raises(ValueError):
        count_table(0, 5)
    with pytest.raises(ValueError):
        count_table(2, 0)

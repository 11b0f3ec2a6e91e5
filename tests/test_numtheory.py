import math
import random
import subprocess
import sys

import pytest

from abelwords import (
    arith,
    divisors,
    factorize,
    is_division_free,
    is_prime,
    middle_antichain,
    mobius,
    multiples_closure,
)
from conftest import child_env, max_division_free_size, ref_big_omega, ref_smallest_factors


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def test_factorize_roundtrip_small():
    for n in range(1, 200_001):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.entries) == n
        primes = [p for p, _ in f.entries]
        assert primes == sorted(primes)
        assert all(e >= 1 for _, e in f.entries)


def test_factorize_roundtrip_sampled():
    rng = random.Random(0xABE1)
    for _ in range(3000):
        n = rng.randrange(2, 10**10)
        f = factorize(n)
        assert math.prod(p**e for p, e in f.entries) == n
        assert all(e >= 1 for _, e in f.entries)


def test_factorize_matches_independent_factorizer():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    samples = list(range(1, 500)) + [rng.randrange(2, 10**10) for _ in range(500)]
    for n in samples:
        assert dict(factorize(n).entries) == sympy.factorint(n)


def test_factorize_rejects_nonpositive():
    for bad in (0, -1, -30):
        with pytest.raises(ValueError):
            factorize(bad)


def test_prime_entries_are_prime():
    # against the sieve, which shares no loop with factorize or is_prime
    spf = ref_smallest_factors(20_000)
    for n in range(2, 20_000):
        for p, _ in factorize(n).entries:
            assert spf[p] == p


def test_is_prime_agrees_with_sieve():
    spf = ref_smallest_factors(20_000)
    for n in range(0, 20_000):
        assert is_prime(n) == (n >= 2 and spf[n] == n)


def test_is_prime_stops_at_the_first_factor():
    # 2**61 - 1 is prime, so a walk that went on past the factor 2 would
    # run for hours; a child process with a timeout fails the test
    # instead of hanging it
    code = "from abelwords import is_prime; print(is_prime(2 * (2**61 - 1)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=10
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_is_prime_agrees_with_oracle():
    sympy = pytest.importorskip("sympy")
    for n in range(0, 20_000):
        assert is_prime(n) == sympy.isprime(n)


def test_arith_against_brute_force():
    for n in range(2, 5000):
        omega, omega_prime, nd, gpf = arith(n)
        primes = [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]
        assert omega == len(primes)
        assert omega_prime == sum(
            max(e for e in range(1, 41) if n % p**e == 0) for p in primes
        )
        assert nd == len(brute_divisors(n))
        assert gpf == max(primes)


def test_arith_bounds():
    # a number below 2**31 has at most 9 distinct prime factors
    for n in (2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23, 2**30, 3**19):
        omega, omega_prime, _, gpf = arith(n)
        assert omega <= 9
        assert omega <= omega_prime
        assert gpf >= 2


def test_mobius_matches_oracle():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 10_000):
        assert mobius(n) == sympy.mobius(n)


def test_mobius_divisor_sum_identity():
    for n in range(1, 3000):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_divisors_sorted_and_complete():
    for n in range(1, 3000):
        ds = divisors(n)
        assert ds == brute_divisors(n)


def test_middle_antichain_known_values():
    assert middle_antichain(12) == [2, 3]
    assert middle_antichain(30) == [2, 3, 5]
    assert middle_antichain(360) == [8, 12, 18, 20, 30, 45]
    assert middle_antichain(7) == [1]
    assert middle_antichain(4) == [2]


def test_middle_antichain_against_brute_force():
    # {d | n : Omega(d) = floor(Omega(n) / 2)}, Omega read off the sieve
    spf = ref_smallest_factors(20_000)
    for n in range(2, 5001):
        target = ref_big_omega(n, spf) // 2
        expect = [d for d in brute_divisors(n) if ref_big_omega(d, spf) == target]
        assert middle_antichain(n) == expect


def test_middle_antichain_is_division_free():
    for n in range(2, 5000):
        ac = middle_antichain(n)
        assert is_division_free(ac)
        assert all(n % d == 0 for d in ac)


def test_middle_antichain_is_maximum():
    # the middle layer should match the true optimum found by search
    sample = list(range(2, 700)) + [720, 840, 960, 1024, 1260, 1680, 2310]
    for n in sample:
        assert len(middle_antichain(n)) == max_division_free_size(divisors(n))


def test_middle_antichain_size_uses_half_exponent_sum():
    for n in (12, 30, 72, 360, 2310):
        _, omega_prime, _, _ = arith(n)
        target = omega_prime // 2
        for d in middle_antichain(n):
            assert sum(e for _, e in factorize(d).entries) == target


def test_multiples_closure_brute_force():
    for n in range(2, 2000):
        ac = middle_antichain(n)
        expect = sorted(m for m in range(1, n + 1) if any(m % d == 0 for d in ac))
        assert multiples_closure(n) == expect


def test_multiples_closure_known_value():
    assert multiples_closure(12) == [2, 3, 4, 6, 8, 9, 10, 12]
    assert len(multiples_closure(30)) == 22


def test_is_division_free():
    assert is_division_free([4, 6, 9])
    assert is_division_free([5])
    assert is_division_free([])
    assert not is_division_free([2, 6])
    assert not is_division_free([3, 4, 9, 10, 12])
    assert is_division_free([7, 7])  # duplicates collapse; sets are the domain
    with pytest.raises(ValueError):
        is_division_free([0, 3])
    with pytest.raises(ValueError):
        is_division_free([-2, 3])

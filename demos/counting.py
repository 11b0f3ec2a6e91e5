"""Count A-primitive words exactly and compare with classical counts.

psi(k, n) counts classically primitive words over k letters at length n;
psi_a(k, n) counts the A-primitive ones. The gap delta = psi - psi_a is
zero exactly at primes and n = 1, where A-primitivity and classical
primitivity coincide and psi_a(k, p) = k^p - k in closed form. Other
lengths are counted exactly by inclusion-exclusion over the maximal
divisors n/p.
"""

from abelwords import count_table, delta_prime_power, psi_a


def main() -> None:
    print("binary words up to length 16:")
    table = count_table(2, 16)
    print("  n    psi       psi_a     delta")
    for row in table.rows:
        print(f"  {row.n:<4} {row.psi:<9} {row.psi_a:<9} {row.delta}")

    # at primes the two notions coincide, so psi_a needs no sum at all
    # and reaches lengths far beyond brute force
    print("\nclosed form at prime lengths:")
    for k, p in ((2, 31), (3, 23), (5, 19)):
        assert psi_a(k, p) == k**p - k
        print(f"  psi_a({k}, {p}) = {k}^{p} - {k} = {k**p - k}")

    # at prime powers p^r the gap is the single term of delta's row for
    # the one maximal divisor p^(r-1): the words made of p blocks that
    # share one Parikh vector, less the p-th powers
    print("\nprime-power gap:")
    for k, p, r in ((2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 6)):
        print(f"  delta_{k}({p**r}) = {delta_prime_power(k, p, r)}")

    # the cost of a composite row is its number of multinomial factors
    # times n; a budget guards it, and prime rows need none
    big = count_table(4, 19, budget=10**6)
    print(f"\ncount_table(4, 19, budget=10^6) skips {list(big.skipped) or 'nothing'}")
    for row in big.rows:
        if row.n in (12, 16, 18, 19):
            print(f"  n={row.n}: psi_a = {row.psi_a}")
    small = count_table(4, 19, budget=1000)
    print(f"count_table(4, 19, budget=1000) skips composites {list(small.skipped)}")


if __name__ == "__main__":
    main()

"""Blockwise commutation and the shared-root story behind it.

Two words u, x commute under the block relation ~_n when ux ~_n xu,
i.e. both concatenations split into length-n blocks sharing one
letter-count vector. The witness cuts every length-n block of ux into
alpha_i beta_i, with |alpha_i| = |u| mod n: the alphas share one
letter-count vector and so do the betas. When the first block is
A-primitive it is a shared A-root.
"""

from abelwords import (
    Word,
    commute_check,
    shared_root_check,
    sim_n,
    simeq_n,
    witness_is_valid,
)


def main() -> None:
    u = Word.from_text("cbabc")
    x = Word.from_text("abca")
    n = 3

    print(f"u = {u.to_text()!r}, x = {x.to_text()!r}, n = {n}")
    print(f"ux ~_n xu: {sim_n(u + x, x + u, n)}")

    wit = commute_check(u, x, n)
    assert wit is not None and witness_is_valid(u, x, n, wit)
    print(f"witness: r={wit.r}, s={wit.s}, q={wit.q}")
    for i, alpha in enumerate(wit.alphas, start=1):
        print(f"  alpha_{i} = {alpha.to_text()!r}")
    for j, beta in enumerate(wit.betas, start=1):
        print(f"  beta_{j} = {beta.to_text()!r}")

    # ~_n is strictly finer than the parallel-block relation simeq_n:
    # ux = ba.aa and xu = ab.aa agree block by block, but the blocks ba
    # and aa of ux differ in Parikh vector, so baa and a do not commute
    u2, x2 = Word.from_text("baa"), Word.from_text("a")
    print(f"\nu = 'baa', x = 'a', n = 2")
    print(f"  parallel blocks agree: {simeq_n(u2 + x2, x2 + u2, 2)}")
    print(f"  all blocks agree:      {sim_n(u2 + x2, x2 + u2, 2)}")
    print(f"  witness: {commute_check(u2, x2, 2)}")

    # when two commuting words both have an A-root at length n, the
    # roots agree; shared_root_check extracts it
    u3, x3 = Word.from_text("aabbabab"), Word.from_text("bbaa")
    root = shared_root_check(u3, x3, 4)
    print(f"\nshared A-root of 'aabbabab' and 'bbaa' at n=4: "
          f"{root.to_text() if root else None}")


if __name__ == "__main__":
    main()

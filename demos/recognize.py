"""Walk through A-primitivity recognition on a few words.

A word is A-primitive when it cannot be cut into two or more equal
blocks that all share one letter-count vector. The decider reports the
shortest block length that works when one exists.
"""

import time

import numpy as np

from abelwords import (
    Word,
    is_a_primitive,
    is_a_primitive_linear,
    is_a_primitive_oracle,
)


def describe(text: str) -> None:
    w = Word.from_text(text)
    verdict = is_a_primitive_oracle(w)
    if verdict.is_a_primitive:
        print(f"  {text!r}: A-primitive")
    else:
        d = verdict.witness_root_length
        blocks = " | ".join(text[i:i + d] for i in range(0, len(text), d))
        print(f"  {text!r}: splits at block length {d}  ->  {blocks}")


def main() -> None:
    print("small words:")
    for text in ["ab", "abab", "abba", "aabbab", "aabbabab", "cbabc", "abccba"]:
        describe(text)

    # abba is classically primitive yet not A-primitive: its halves
    # ab / ba share a letter count. Verdicts are rotation-sensitive:
    print("\nrotation sensitivity:")
    describe("aabbabab")
    describe("bbababaa")

    # the oracle and the production decider (both names) agree; they
    # differ only in how much work they do
    w = Word.from_text("aabbababab")
    assert (
        is_a_primitive_oracle(w).is_a_primitive
        == is_a_primitive(w).is_a_primitive
        == is_a_primitive_linear(w).is_a_primitive
    )

    # the linear-time decider handles very long words comfortably
    n = 10_000_000
    letters = np.zeros(n, dtype=np.uint8)
    letters[-1] = 1
    long_word = Word(letters, 2)
    t = time.perf_counter()
    verdict = is_a_primitive_linear(long_word)
    elapsed = time.perf_counter() - t
    print(f"\n10^7-letter word decided in {elapsed:.3f}s "
          f"(A-primitive: {verdict.is_a_primitive})")


if __name__ == "__main__":
    main()

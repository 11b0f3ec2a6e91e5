"""Independent reference computations that check abelwords' answers.

Nothing here imports abelwords: every check is a separate computation,
written from the definitions, not a stored copy of the program's output.

- Block Parikh vectors come from per-letter prefix counts: the count of
  letter c in block i is the difference of two prefix counts.
- Commutation witnesses are rebuilt into u and x, and their Parikh
  equalities are checked by sorting each block's letters.
- psi_a at primes is k^p - k; at prime powers it is k^n minus the number
  of Abelian p-th powers, summed by a generating function.
- Other composite counts come from `enumerate_psi_a`, a brute-force
  enumerator over all k^n words. Its results are stored in
  reference_counts.json; `python3 perfbench/reference.py regenerate`
  recomputes them.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

STORED_COUNTS_FILE = Path(__file__).with_name("reference_counts.json")
ENUMERATION_CHUNK = 1 << 16  # words per numpy batch in enumerate_psi_a

# composite (k, n) rows, not prime powers, that the workloads ask for
STORED_ROWS = (
    (2, 12), (3, 6), (3, 10), (3, 12), (3, 14),
    (2, 24), (3, 15), (4, 12), (5, 10),
)


# ---------------------------------------------------------------- integers

def factor(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1, ascending."""
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == [(n, 1)]


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending, from the pairs (d, n/d) with d <= sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


def maximal_divisors(n: int) -> list[int]:
    """n/p for each prime p dividing n."""
    return [n // p for p, _ in factor(n)]


def mobius(n: int) -> int:
    f = factor(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


# ------------------------------------------------------------------- text

def to_text(letters: np.ndarray) -> str:
    """Letters 0, 1, ... as the characters a, b, ... ."""
    return (letters.astype(np.uint8) + ord("a")).tobytes().decode("ascii")


def from_text(text: str) -> np.ndarray:
    """The letters of an a..z text, as uint8 indices."""
    return np.frombuffer(text.encode("ascii"), np.uint8) - ord("a")


# ------------------------------------------------------------ block counts

def block_mismatches(letters: np.ndarray, tests) -> dict:
    """For each (length, block) test, the index of the first block of
    letters[:length] whose Parikh vector differs from block 0's, or None
    when every block agrees.

    Block counts are differences of per-letter prefix counts. Letters
    absent from the word never differ, and the last present letter is
    implied by the block length, so it is skipped.
    """
    masks = {t: np.zeros(t[0] // t[1], dtype=bool) for t in set(tests)}
    for c in np.unique(letters)[:-1]:
        prefix = np.cumsum(letters == c, dtype=np.int64)
        for (length, block), mask in masks.items():
            counts = np.diff(prefix[block - 1:length:block], prepend=0)
            mask |= counts != counts[0]
    return {
        t: (int(np.flatnonzero(m)[0]) if m.any() else None) for t, m in masks.items()
    }


def is_a_primitive_ref(letters: np.ndarray) -> bool:
    n = len(letters)
    tests = [(n, d) for d in maximal_divisors(n)]
    return all(i is not None for i in block_mismatches(letters, tests).values())


def antichain_letters(n: int) -> np.ndarray:
    """a^t1 b^t1 a^(t2-t1) b^(t2-t1) ... over the sorted multiples of the
    middle layer of n's divisor lattice (exponent sum floor(Omega/2))."""
    f = factor(n)
    target = sum(e for _, e in f) // 2
    lattice = [(1, 0)]  # (divisor, exponent sum)
    for p, e in f:
        lattice = [(d * p ** b, s + b) for d, s in lattice for b in range(e + 1)]
    middle = [d for d, s in lattice if s == target]
    points = sorted({m for d in middle for m in range(d, n + 1, d)})
    gaps = np.diff(points, prepend=0)
    pattern = np.tile(np.array([0, 1], dtype=np.uint8), len(gaps))
    return np.repeat(pattern, np.repeat(gaps, 2))


def multiroot_letters(count: int) -> np.ndarray:
    """aabb(ab)^((Q-4)/2) with Q = 2 * (product of the first `count` primes)."""
    primes = []
    m = 2
    while len(primes) < count:
        if is_prime(m):
            primes.append(m)
        m += 1
    q = 2 * math.prod(primes)
    letters = np.tile(np.array([0, 1], dtype=np.uint8), q // 2)
    letters[:4] = (0, 0, 1, 1)
    return letters


# ----------------------------------------------------------------- counting

def psi_ref(k: int, n: int) -> int:
    return sum(mobius(d) * k ** (n // d) for d in divisors(n))


def abelian_prime_powers(k: int, p: int, m: int) -> int:
    """Words of p blocks of length m that share one Parikh vector:
    (m!)^p [x^m] (sum_v x^v / (v!)^p)^k."""
    series = [Fraction(1, math.factorial(v) ** p) for v in range(m + 1)]
    power = [Fraction(1)] + [Fraction(0)] * m
    for _ in range(k):
        power = [sum(power[i] * series[j - i] for i in range(j + 1)) for j in range(m + 1)]
    total = power[m] * math.factorial(m) ** p
    if total.denominator != 1:
        raise ArithmeticError("generating-function count is not an integer")
    return int(total)


def load_stored_counts() -> dict[tuple[int, int], int]:
    raw = json.loads(STORED_COUNTS_FILE.read_text())
    return {(row["k"], row["n"]): row["psi_a"] for row in raw["rows"]}


def psi_a_ref(k: int, n: int, stored: dict) -> int:
    if n == 1:
        return k
    f = factor(n)
    if len(f) == 1:
        p, r = f[0]
        if r == 1:
            return k ** n - k
        return k ** n - abelian_prime_powers(k, p, n // p)
    if (k, n) not in stored:
        raise KeyError(f"no stored reference count for k={k}, n={n}")
    return stored[(k, n)]


def enumerate_psi_a(k: int, n: int) -> int:
    """A-primitive words of length n over k letters, by visiting every word.

    A word has an A-root of length d exactly when, for each letter, its
    prefix count at position j*d is j/(n/d) of the letter's total.
    """
    places = k ** np.arange(n, dtype=np.int64)
    total = k ** n
    powers = 0
    for lo in range(0, total, ENUMERATION_CHUNK):
        idx = np.arange(lo, min(lo + ENUMERATION_CHUNK, total), dtype=np.int64)
        words = ((idx[:, None] // places) % k).astype(np.uint8)
        rooted = {d: np.ones(len(idx), dtype=bool) for d in maximal_divisors(n)}
        for c in range(k - 1):
            prefix = np.cumsum(words == c, axis=1, dtype=np.int32)
            whole = prefix[:, -1]
            for d, ok in rooted.items():
                blocks = n // d
                for j in range(1, blocks):
                    ok &= prefix[:, j * d - 1] * blocks == j * whole
        hit = np.zeros(len(idx), dtype=bool)
        for ok in rooted.values():
            hit |= ok
        powers += int(hit.sum())
    return total - powers


def regenerate() -> int:
    rows = []
    for k, n in STORED_ROWS:
        value = enumerate_psi_a(k, n)
        rows.append({"k": k, "n": n, "psi_a": value})
        print(f"k={k} n={n} psi_a={value}", file=sys.stderr)
    lines = ",\n  ".join(json.dumps(row) for row in rows)
    STORED_COUNTS_FILE.write_text(
        '{"source": "perfbench/reference.py enumerate_psi_a",\n'
        f' "rows": [\n  {lines}\n ]}}\n'
    )
    return 0


# ------------------------------------------------------------------ checks

class Checker:
    """Checks one operation's recorded answer against the references.

    `words` maps an input name to its (letters, alphabet size); each
    check returns None when the answer is right and a message otherwise.
    """

    def __init__(self, words: dict, stored: dict):
        self.words = words
        self.stored = stored
        self._mismatch_memo: dict = {}

    def mismatches(self, name: str, tests) -> dict:
        letters = self.words[name][0]
        todo = [t for t in set(tests) if (name, t) not in self._mismatch_memo]
        if todo:
            for t, i in block_mismatches(letters, todo).items():
                self._mismatch_memo[(name, t)] = i
        return {t: self._mismatch_memo[(name, t)] for t in tests}

    # -- words

    def verdict(self, name: str, is_prim, witness) -> str | None:
        n = len(self.words[name][0])
        if is_prim is True:
            if witness is not None:
                return "A-primitive verdict carries a witness"
            found = self.mismatches(name, [(n, d) for d in maximal_divisors(n)])
            agree = [t[1] for t, i in found.items() if i is None]
            if agree:
                return f"claimed A-primitive, but all blocks of length {agree[0]} agree"
            return None
        if is_prim is not False:
            return f"verdict {is_prim!r} is not a bool"
        if not (isinstance(witness, int) and 1 <= witness < n and n % witness == 0):
            return f"witness {witness!r} is not a proper divisor of {n}"
        i = self.mismatches(name, [(n, witness)])[(n, witness)]
        if i is not None:
            return f"witness {witness}: block {i} differs from block 0"
        return None

    def profile(self, name: str, n, roots, prims) -> str | None:
        size = len(self.words[name][0])
        if n != size:
            return f"profile length {n}, word length {size}"
        divs = divisors(size)[:-1]
        tests = [(size, d) for d in divs]
        tests += [(d, d // p) for d in divs for p, _ in factor(d)]
        found = self.mismatches(name, tests)
        want_roots = tuple(d for d in divs if found[(size, d)] is None)
        want_prims = tuple(
            d for d in want_roots
            if all(found[(d, d // p)] is not None for p, _ in factor(d))
        )
        if tuple(roots) != want_roots:
            return f"A-root lengths {tuple(roots)[:8]}..., expected {want_roots[:8]}..."
        if tuple(prims) != want_prims:
            return f"A-primitive root lengths {tuple(prims)}, expected {want_prims}"
        return None

    def commutes(self, u: str, x: str, n: int) -> bool:
        lu, lx = self.words[u][0], self.words[x][0]
        both = np.concatenate([lu, lx, lx, lu])
        key = ("commute", u, x, n)
        if key not in self._mismatch_memo:
            self._mismatch_memo[key] = block_mismatches(both, [(len(both), n)])
        return self._mismatch_memo[key][(len(both), n)] is None

    def witness(self, u: str, x: str, n: int, wit) -> str | None:
        """wit is None or (r, s, alpha lengths, beta lengths, alpha letters,
        beta letters), the lengths and letters as integer arrays."""
        commute = self.commutes(u, x, n)
        if wit is None:
            return "no witness, but the words commute" if commute else None
        if not commute:
            return "witness returned for words that do not commute"
        r, s, alens, blens, alpha, beta = wit
        lu, lx = self.words[u][0], self.words[x][0]
        if not (len(alens) == len(blens) == r and 1 <= s <= r):
            return f"witness shape r={r} s={s} with {len(alens)} alphas"
        if not ((alens + blens) == n).all():
            return "some alpha_i beta_i is not n letters long"
        q = int(alens[0])
        if not (alens == q).all():
            return "alphas differ in length, so not in Parikh vector"
        if (s - 1) * n + q != len(lu):
            return f"s={s}, q={q} put the u/x boundary away from |u|={len(lu)}"
        a = alpha.reshape(r, q)
        b = beta.reshape(r, n - q)
        rebuilt = np.concatenate([a, b], axis=1).ravel()
        if not np.array_equal(rebuilt, np.concatenate([lu, lx]).astype(np.int64)):
            return "alpha/beta blocks do not rebuild u and x"
        for part, label in ((a, "alpha"), (b, "beta")):
            ordered = np.sort(part, axis=1)
            if not (ordered == ordered[0]).all():
                return f"{label} blocks do not share one Parikh vector"
        return None

    def shared_root(self, u: str, x: str, n: int, root) -> str | None:
        if not self.commutes(u, x, n):
            return "shared_root_check on words that do not commute"
        lu, lx = self.words[u][0], self.words[x][0]
        if not is_a_primitive_ref(lu[:n]):
            return None if root is None else "root returned, but u's prefix is not A-primitive"
        if root is None:
            return "no root, but u's length-n prefix is A-primitive"
        if not np.array_equal(root, lx[:n].astype(np.int64)):
            return "returned root is not x's length-n prefix"
        return None

    # -- counts

    def psi_a(self, k: int, n: int, value) -> str | None:
        want = psi_a_ref(k, n, self.stored)
        return None if value == want else f"psi_a({k},{n}) = {value}, expected {want}"

    def psi(self, k: int, n: int, value) -> str | None:
        want = psi_ref(k, n)
        return None if value == want else f"psi({k},{n}) = {value}, expected {want}"

    def delta_prime_power(self, k: int, p: int, r: int, value) -> str | None:
        n = p ** r
        want = psi_ref(k, n) - psi_a_ref(k, n, self.stored)
        return None if value == want else f"delta({k},{p}^{r}) = {value}, expected {want}"

    def count_row(self, k: int, row) -> str | None:
        n, full, part, gap = row
        for err in (self.psi(k, n, full), self.psi_a(k, n, part)):
            if err:
                return err
        return None if gap == full - part else f"delta at n={n} is not psi - psi_a"

    def count_table(self, k: int, max_n: int, rows, skipped) -> str | None:
        if tuple(skipped):
            return f"rows skipped: {tuple(skipped)}"
        if [row[0] for row in rows] != list(range(1, max_n + 1)):
            return "table rows are not n = 1..max_n"
        for row in rows:
            err = self.count_row(k, row)
            if err:
                return err
        return None


if __name__ == "__main__":
    if sys.argv[1:] != ["regenerate"]:
        print("usage: python3 perfbench/reference.py regenerate", file=sys.stderr)
        sys.exit(2)
    sys.exit(regenerate())

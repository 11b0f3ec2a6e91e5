"""Words over an indexed alphabet, Parikh vectors, and block tests.

A word stores its letters as a numpy array of symbol indices so that
counting stays cheap on multi-megabyte inputs. Parikh vectors are plain
tuples of per-letter counts. The central primitive is the block test:
do all length-d blocks of a word's length-m prefix share one Parikh
vector? Every A-root test in the package asks it of `_BlockSums`.
"""

from __future__ import annotations

import numpy as np

ParikhVector = tuple[int, ...]


class Word:
    """Immutable word over the alphabet {0, ..., alphabet_size - 1}.

    Text round-trips use a..z, capping textual alphabets at 26 letters;
    the in-memory representation has no such limit.
    """

    __slots__ = ("letters", "alphabet_size")

    def __init__(self, letters, alphabet_size: int):
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        arr = np.asarray(letters)
        if arr.ndim != 1:
            raise ValueError("letters must be one-dimensional")
        if arr.size:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError("letters must be integers")
            lo, hi = int(arr.min()), int(arr.max())
            if lo < 0 or hi >= alphabet_size:
                raise ValueError(
                    f"letter out of range for alphabet of size {alphabet_size}"
                )
        dtype = np.uint8 if alphabet_size <= 256 else np.int64
        arr = arr.astype(dtype, copy=False)
        if arr.flags.writeable:
            # never freeze or alias storage the caller still owns
            if arr is letters or arr.base is not None:
                arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "letters", arr)
        object.__setattr__(self, "alphabet_size", alphabet_size)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return self.letters.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return (
            self.alphabet_size == other.alphabet_size
            and self.letters.size == other.letters.size
            and bool(np.array_equal(self.letters, other.letters))
        )

    def __hash__(self) -> int:
        return hash((self.alphabet_size, self.letters.tobytes()))

    def __repr__(self) -> str:
        if self.alphabet_size <= 26 and len(self) <= 40:
            return f"Word({self.to_text()!r}, k={self.alphabet_size})"
        return f"Word(<{len(self)} letters>, k={self.alphabet_size})"

    @classmethod
    def from_text(cls, text: str, alphabet_size: int | None = None) -> "Word":
        """Parse a word over a..z; k defaults to the largest letter present."""
        raw = text.encode("ascii", errors="strict")
        arr = np.frombuffer(raw, dtype=np.uint8) - ord("a")
        if arr.size and (arr.min() < 0 or arr.max() > 25):
            raise ValueError("textual words must use letters a..z")
        if alphabet_size is None:
            alphabet_size = int(arr.max()) + 1 if arr.size else 1
        return cls(arr, alphabet_size)

    def to_text(self) -> str:
        if self.alphabet_size > 26:
            raise ValueError("only alphabets up to 26 letters serialize as text")
        return (self.letters.astype(np.uint8) + ord("a")).tobytes().decode("ascii")

    def prefix(self, d: int) -> "Word":
        if not 0 <= d <= len(self):
            raise ValueError(f"prefix length {d} out of range")
        return Word(self.letters[:d], self.alphabet_size)

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        k = max(self.alphabet_size, other.alphabet_size)
        return Word(np.concatenate([self.letters, other.letters]), k)


def parikh(w: Word) -> ParikhVector:
    """Per-letter occurrence counts of w."""
    counts = np.bincount(w.letters, minlength=w.alphabet_size)
    return tuple(int(c) for c in counts)


def _block_count_table(letters: np.ndarray, d: int, k: int) -> np.ndarray:
    """Per-block letter counts as an (n/d, k) int64 table."""
    nblocks = letters.size // d
    tags = np.repeat(np.arange(nblocks, dtype=np.int64) * k, d)
    return np.bincount(tags + letters, minlength=nblocks * k).reshape(nblocks, k)


def block_parikhs(w: Word, d: int) -> list[ParikhVector]:
    """Parikh vectors of the consecutive length-d blocks of w, in order."""
    if d < 1 or len(w) % d:
        raise ValueError(f"block length {d} must be >= 1 and divide {len(w)}")
    table = _block_count_table(w.letters, d, w.alphabet_size)
    return [tuple(int(c) for c in row) for row in table]


def _sorted_blocks(letters: np.ndarray, d: int) -> np.ndarray:
    # two blocks are equal once sorted exactly when their Parikh vectors are
    return np.sort(letters.reshape(-1, d), axis=1, kind="stable")


class _BlockSums:
    """Exact block tests on the prefixes of one word, built once per word.

    `blocks_agree(m, d)`: do all length-d blocks of the length-m prefix
    share one Parikh vector (d divides m)? With b = bit_length(n//2) and
    (k-1)*b <= 64, letter c > 0 weighs 2^(b*(c-1)): a block of at most
    n/2 letters then packs its counts into disjoint b-bit fields, so a
    difference of prefix sums is its Parikh vector, exact even when the
    sums wrap, and a test costs O(m/d). Wider alphabets sort the blocks
    instead, in O(m) memory whatever k is.
    """

    __slots__ = ("letters", "sums")

    def __init__(self, w: Word):
        k = w.alphabet_size
        bits = (len(w) // 2).bit_length()
        width = (k - 1) * bits
        # the narrowest dtype: 8- and 16-bit letters sort by radix in O(m)
        self.letters = w.letters.astype(np.min_scalar_type(k - 1), copy=False)
        self.sums = None
        if width <= 64:
            dtype = np.uint32 if width <= 32 else np.uint64
            table = np.array([0] + [1 << (bits * (c - 1)) for c in range(1, k)], dtype=dtype)
            # a binary word's letters are their own weights
            weights = w.letters.astype(dtype) if k <= 2 else table[w.letters]
            self.sums = np.cumsum(weights, out=weights)

    def blocks_agree(self, m: int, d: int) -> bool:
        if self.sums is None:
            blocks = _sorted_blocks(self.letters[:m], d)
            return bool((blocks[1:] == blocks[0]).all())
        ends = self.sums[d - 1 : m : d]
        return bool((np.diff(ends) == ends[0]).all())


def has_a_root_of_length(w: Word, d: int) -> bool:
    """True iff all length-d blocks of w share one Parikh vector.

    d = |w| is the single-block reading and returns True; callers
    interested in proper roots must pass d < |w|.
    """
    n = len(w)
    if d < 1 or d > n or n % d:
        raise ValueError(f"root length {d} must satisfy 1 <= d <= |w| and d | |w|")
    if d == n:
        return True
    return _BlockSums(w).blocks_agree(n, d)

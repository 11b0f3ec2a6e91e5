"""Words over an indexed alphabet, Parikh vectors, and block tests.

A word stores its letters as a numpy array of symbol indices, in the
narrowest unsigned type that holds k - 1 (uint8 up to 256 letters,
uint16 up to 65,536), so that counting stays cheap on multi-megabyte
inputs and 8- and 16-bit letters sort by radix. Parikh vectors are plain
tuples of per-letter counts, k entries each, so `parikh` costs O(n + k)
and `block_parikhs`, one vector per block, O(n + k·n/d).

The central primitive is the block test: do all length-d blocks of a
word's length-m prefix share one Parikh vector? Every block test goes
through one entry, `_blocks_agree(letters, lengths, k)`, which yields
the lengths whose blocks agree, in the order given, and picks the kernel
by one rule:

- A word with fewer letters than k is first ranked to the letters it
  contains, so no count is k wide and every test is O(m) whatever k is.
- Each length d >= _CUT_COST·k goes to the cut counter, `_cuts_agree`,
  all such lengths together: the length-d blocks agree exactly when
  the prefix Parikh vectors at the cuts d, 2d, ..., m step by one
  vector. It runs one tally at a time, the nonzero count first, then
  each letter c >= 2 (or, past _NARROW letters, all letters by
  bincount), each in one pass between consecutive cuts of the lengths
  still live, and drops each length at its first cut that breaks the
  step; a random word's lengths all drop in the first pass.
- Each other length goes to the block table, `_table_agrees`: it views
  the letters as an (m/d, d) table and counts each letter in every row
  in one vectorized pass, stopping at the first letter whose counts
  differ; wider alphabets than _NARROW compare sorted blocks.

The entry serves `has_a_root_of_length` (hence the oracle, `sim_n` and
`shared_root_check`), the decider, which passes all its lengths n/p at
once, and the column test of commutation witnesses. `root_profile`
alone tests every divisor of every prefix, on one `_PrefixGrid` per
word: an A-root length is a multiple of g = n / gcd(n, P(w)), because
the number of blocks divides n and every letter count, so the grid
marks, one byte per multiple c of g, whether the prefix Parikh vector
at c misses its share (c/n)·P(w), counted once on the (n/g, g) table
with the block table's row counts. The blocks of a test agree exactly
when none of its cuts is marked, so each test is one strided read.

numpy is imported lazily (`_deferred_numpy`): the module is registered
at import time but executed at its first attribute access, which is the
first `Word`. The counting layer never touches it, so `abelwords count`
and `table` start without paying for numpy's import.
"""

from __future__ import annotations

import importlib.util
import sys


def _deferred_numpy():
    """numpy, executed at its first attribute access rather than here.

    A numpy that is already imported is returned as it is. A missing
    numpy still raises ModuleNotFoundError here, at import time.
    """
    if sys.modules.get("numpy") is not None:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _deferred_numpy()

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
        # the narrowest unsigned type that holds k - 1: uint8 up to 256
        # letters, uint16 up to 65,536; any numpy integer letter fits uint64
        arr = arr.astype(np.min_scalar_type(min(alphabet_size - 1, 2**64 - 1)), copy=False)
        if arr.flags.writeable:
            # never freeze or alias storage the caller still owns
            if arr is letters or arr.base is not None:
                arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "letters", arr)
        object.__setattr__(self, "alphabet_size", alphabet_size)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        # __setattr__ refuses, so pickle rebuilds the word through __init__
        return Word, (self.letters, self.alphabet_size)

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
        # uint8 subtraction wraps: bytes below "a" land above 25 as well
        arr = np.frombuffer(raw, dtype=np.uint8) - ord("a")
        top = int(arr.max()) if arr.size else 0
        if top > 25:
            raise ValueError("textual words must use letters a..z")
        # no caller holds this new array: frozen, the word keeps it uncopied
        arr.setflags(write=False)
        return cls(arr, top + 1 if alphabet_size is None else alphabet_size)

    def to_text(self) -> str:
        if self.alphabet_size > 26:
            raise ValueError("only alphabets up to 26 letters serialize as text")
        return (self.letters + ord("a")).tobytes().decode("ascii")

    def prefix(self, d: int) -> "Word":
        if not 0 <= d <= len(self):
            raise ValueError(f"prefix length {d} out of range")
        return Word(self.letters[:d], self.alphabet_size)

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        k = max(self.alphabet_size, other.alphabet_size)
        arr = np.concatenate([self.letters, other.letters])
        # no caller holds this new array: frozen, the word keeps it uncopied
        arr.setflags(write=False)
        return Word(arr, k)


def parikh(w: Word) -> ParikhVector:
    """Per-letter occurrence counts of w: k entries, O(len(w) + k)."""
    counts = np.bincount(w.letters, minlength=w.alphabet_size)
    return tuple(int(c) for c in counts)


def _block_count_table(letters: np.ndarray, d: int, k: int) -> np.ndarray:
    """Per-block letter counts as an (n/d, k) int64 table."""
    nblocks = letters.size // d
    tags = np.repeat(np.arange(nblocks, dtype=np.int64) * k, d)
    tags += letters  # in place, so no second int64 array of n tags
    return np.bincount(tags, minlength=nblocks * k).reshape(nblocks, k)


def block_parikhs(w: Word, d: int) -> list[ParikhVector]:
    """Parikh vectors of the consecutive length-d blocks of w, in order:
    k entries per block, so O(len(w) + k·len(w)/d) time and memory.

    Raises ValueError for alphabets over 2^32 letters, stored as uint64,
    before anything is allocated: each block would list over 2^32 counts.
    """
    if d < 1 or len(w) % d:
        raise ValueError(f"block length {d} must be >= 1 and divide {len(w)}")
    if w.alphabet_size > 2**32:
        raise ValueError(f"block_parikhs lists k counts per block, and k = {w.alphabet_size} "
                         "is over 2**32")
    table = _block_count_table(w.letters, d, w.alphabet_size)
    return [tuple(int(c) for c in row) for row in table]


def _sorted_blocks(letters: np.ndarray, d: int) -> np.ndarray:
    # two blocks are equal once sorted exactly when their Parikh vectors are
    return np.sort(letters.reshape(-1, d), axis=1, kind="stable")


# segments are counted in chunks of this many letters, so scratch memory
# does not grow with the word
_CHUNK = 1 << 16
# alphabets up to this size count by comparisons, wider ones by bincount
_NARROW = 16


def _chunks(segment: np.ndarray):
    return (segment[lo : lo + _CHUNK] for lo in range(0, segment.size, _CHUNK))


def _letter_count(segment: np.ndarray, c: int) -> int:
    """How often letter c occurs in one segment, by comparison, one chunk
    of at most _CHUNK letters at a time."""
    return sum(np.count_nonzero(chunk == c) for chunk in _chunks(segment))


def _tallies(k: int):
    """The cut counter's tallies, in the order it runs them: each maps a
    segment to a list of counts, and together with the segment's length
    they fix its Parikh vector over k letters. The nonzero count comes
    first, which is the whole vector when k <= 2; then each letter c >= 2
    by comparison, or past _NARROW letters all k counts by bincount, one
    chunk of at most _CHUNK letters at a time."""
    yield lambda segment: [np.count_nonzero(segment)]
    if k > _NARROW:
        yield lambda segment: sum(np.bincount(chunk, minlength=k)
                                  for chunk in _chunks(segment)).tolist()
    else:
        yield from (lambda segment, c=c: [_letter_count(segment, c)] for c in range(2, k))


def _segment_counts(segment: np.ndarray, k: int) -> list[int]:
    """Letter counts of one segment, from its length and its tallies."""
    counts = [segment.size] + [count for tally in _tallies(k) for count in tally(segment)]
    if k > _NARROW:
        return counts[2:]
    # letter 1 follows from the nonzero count and letter 0 from the length
    counts[1] -= sum(counts[2:])
    counts[0] -= sum(counts[1:])
    return counts[:k]


def _cuts_agree(letters: np.ndarray, lengths, k: int) -> list[int]:
    """The cut counter: the lengths d, in the given order, whose length-d
    blocks of `letters` all share one Parikh vector over k letters; each
    d must divide letters.size.

    The blocks agree exactly when the prefix Parikh vector at each cut
    t·d is t times the first block's, and so exactly when every tally of
    that prefix is: its length t·d fixes its count of letter 0 from the
    others, and its nonzero count fixes letter 1 from letters c >= 2.
    The tallies run one at a time over the lengths still live. Each
    counts the letters once, segment by segment between consecutive cuts
    of those lengths; a length drops at its first cut where the tally
    breaks the rule, and once every length has dropped no later tally
    runs. So a word whose lengths all fail costs one pass whatever k is,
    and a length that holds costs k - 1 passes, or two past _NARROW
    letters. Time O(letters.size·tallies + cuts·k), scratch memory
    O(_CHUNK + cuts).
    """
    live = list(lengths)
    for tally in _tallies(k):
        if not live:
            break
        first, start = {}, 0
        for end in sorted({t for d in live for t in range(d, letters.size + 1, d)}):
            at = [d for d in live if end % d == 0]
            if not at:
                continue
            segment = tally(letters[start:end])
            prefix = [a + b for a, b in zip(prefix, segment)] if start else segment
            start = end
            for d in at:
                if prefix != [end // d * c for c in first.setdefault(d, prefix)]:
                    live.remove(d)
            if not live:
                break
    return live


# below this block length, adding up the columns of the block table beats
# a row reduction, which costs about 20 ns per row (measured crossover)
_SHORT_ROW = 24


def _row_counts(letters: np.ndarray, d: int, k: int, dtype):
    """Yield, for each letter c = 1, ..., k-1 in turn, its count in every
    row of the (m/d, d) table of `letters`, as a new array of `dtype`:
    rows shorter than _SHORT_ROW add up their columns, longer ones reduce
    each row. Letter 0 follows from d."""
    table = letters.reshape(-1, d)
    for c in range(1, k):
        # a binary table holds the letter-1 indicators itself
        hits = table if k == 2 else table == c
        if d < _SHORT_ROW:
            counts = hits[:, 0].astype(dtype)
            for j in range(1, d):
                counts += hits[:, j]
            yield counts
        else:
            yield hits.sum(axis=1, dtype=dtype)


def _table_agrees(letters: np.ndarray, d: int, k: int) -> bool:
    """The block table: do all length-d blocks of `letters` share one
    Parikh vector over k letters? d must divide letters.size.

    Wider alphabets than _NARROW compare sorted blocks. Otherwise each
    letter c >= 1 is counted in every row of the (m/d, d) table at once,
    stopping at the first letter whose counts differ: O(m) time, and
    about one byte per letter of scratch.
    """
    if d == 1:
        # one pass with no scratch: blocks of one letter agree when all letters do
        return bool(letters.min() == letters.max())
    if k > _NARROW:
        blocks = _sorted_blocks(letters, d)
        return bool((blocks[1:] == blocks[0]).all())
    rows = _row_counts(letters, d, k, np.min_scalar_type(d))
    return all(counts.min() == counts.max() for counts in rows)


# A length's tallies take about one numpy call per alphabet letter at
# each cut: one call per tally, k - 1 tallies up to _NARROW letters, and
# past it a bincount with k-entry sums. Each call is worth what a pass
# over this many letters costs: a length d is counted at its cuts when
# d >= _CUT_COST·k, so that its letters.size/d cuts cost at most
# letters.size/_CUT_COST such passes.
_CUT_COST = 512


def _ranked(letters: np.ndarray):
    """The letters ranked to the letters present, and how many are
    present: no count over the ranks is wider than the word."""
    present, ranks = np.unique(letters, return_inverse=True)
    # narrow unsigned ranks: the table adds its columns in place
    return ranks.astype(np.min_scalar_type(present.size - 1)), present.size


def _blocks_agree(letters: np.ndarray, lengths: list[int], k: int):
    """Yield the lengths d, in the given order, whose length-d blocks of
    `letters` all share one Parikh vector over k letters; each d must
    divide letters.size. Every block test in the package comes here.

    Fewer letters than k are first ranked to the letters present, so no
    count is k wide. The lengths with d >= _CUT_COST·k are then counted
    together by the cut counter, at the first `next`, and each other
    length goes to the block table when it is reached: O(letters.size)
    time and memory per length, whatever k is.
    """
    letters, k = _ranked(letters) if letters.size < k else (letters, k)
    counted = _cuts_agree(letters, [d for d in lengths if d >= _CUT_COST * k], k)
    for d in lengths:
        if d in counted or d < _CUT_COST * k and _table_agrees(letters, d, k):
            yield d


class _PrefixGrid:
    """The good cuts of one word at the multiples of its step g, one byte
    per cut, built once per word for `root_profile`.

    A word with an A-root of length d is a power of n/d blocks, so n/d
    divides n and every letter count: with g = n / gcd(n, P(w)), every
    A-root length is a multiple of g, and so is every A-root length of a
    prefix that is itself an A-root, whose g is the same. A cut c = i·g
    is good when its prefix Parikh vector is (c/n)·P(w). The letters form
    an (n/g, g) table; for each letter but letter 0 in turn, its count in
    every row, less its share u = count·g/n (an integer, since n/g
    divides every count), is summed down the rows, which leaves the
    prefix's deviation from its share at each cut, and `bad` marks the
    cuts where any letter deviates. A word with absent letters, a word
    shorter than k among them, is ranked as `_blocks_agree` ranks one,
    so absent letters get no row counts, and a unary word has none: each
    of its cuts is good. A word with g = n has no proper A-root: `bad` is
    built only when g < n.

    `blocks_agree(m, d)`, for m = n or an A-root m of the word and d
    dividing m: do all length-d blocks of the length-m prefix share one
    Parikh vector? They do exactly when every cut d, 2d, ..., m is good,
    since the length-m prefix of a root has vector (m/n)·P(w). True when
    d = m, False when g does not divide d; otherwise one strided read of
    m/d bytes of `bad`.
    """

    def __init__(self, w: Word):
        letters, k, n = w.letters, w.alphabet_size, len(w)
        # no count is k wide, and no column is an absent letter's
        letters, k = _ranked(letters) if n < k else (letters, k)
        if 0 in (counts := _segment_counts(letters, k)):
            letters, k = _ranked(letters)
            counts = [c for c in counts if c]
        self.step = g = n // int(np.gcd.reduce(counts, initial=n))
        if g < n:
            # each letter's row counts, in n's unsigned type (int64 past
            # _NARROW letters): a prefix deviation lies within n of 0, so
            # wraparound is exact
            columns = (_block_count_table(letters, g, k).T[1:] if k > _NARROW
                       else _row_counts(letters, g, k, np.min_scalar_type(n)))
            self.bad = np.zeros(n // g, dtype=bool)
            for count, column in zip(counts[1:], columns):
                # each row minus the letter's share, summed down the rows:
                # the deviation of the prefix at each cut
                column -= int(count) // (n // g)
                np.logical_or(self.bad, np.cumsum(column, out=column), out=self.bad)

    def blocks_agree(self, m: int, d: int) -> bool:
        if d % self.step or d == m:
            # one block always agrees, a length off the step never does
            return d == m
        return not self.bad[d // self.step - 1 : m // self.step : d // self.step].any()


def has_a_root_of_length(w: Word, d: int) -> bool:
    """True iff all length-d blocks of w share one Parikh vector.

    d = |w| is the single-block reading and returns True; callers
    interested in proper roots must pass d < |w|.
    """
    n = len(w)
    if d < 1 or d > n or n % d:
        raise ValueError(f"root length {d} must satisfy 1 <= d <= |w| and d | |w|")
    return d == n or d in _blocks_agree(w.letters, [d], w.alphabet_size)

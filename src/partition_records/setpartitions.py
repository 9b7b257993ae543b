"""Set partitions in canonical sequential form and their record statistics.

A set partition of {1, ..., n} is encoded as a restricted growth string
(RGS): a word w1 .. wn where wi is the index of the block containing i,
blocks numbered in order of their minimal elements.  Valid words start
with 1 and never jump more than one above the running maximum.

A *record* of a word is a strict left-to-right maximum.  The statistics
computed here:

    rec_count  -- number of records
    srec       -- sum of record positions (1-based)
    swrec      -- sum of position * value over all records

For a valid RGS with k blocks the records turn out to be exactly the
first occurrences of 1 .. k; the functions below nevertheless compute
records from the general definition, and the test-suite checks the
first-occurrence characterisation by enumeration instead of assuming it.
``records`` lists the records themselves; the three statistics read their
values from one private scan, ``_record_sums``, which the tests check
against ``records``.

Everything here is exhaustive enumeration and direct counting: this
module is the independent oracle the generating-function and
closed-form layers are verified against.

``enumerate_rgs``, ``swrec_histogram`` and ``total_swrec_bruteforce``
share one private lexicographic walk over the words of length n - 1.
For each position it keeps the running maximum and the swrec of the
prefix ending there.  After a bump at position i the tail is reset to
1s, which are never records, so the tail inherits position i's maximum
and swrec and nothing is rescanned.  Each caller then loops over the
last letter explicitly, so every word of length n is still visited by
exactly one loop iteration; the last letter adds n * letter to swrec iff
it exceeds the prefix maximum, the record definition applied one letter
at a time.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, NamedTuple, Sequence

Word = tuple[int, ...]

# Full enumeration of P_12 is ~4.2M words; anything larger needs an
# explicit opt-in via the cap argument.
DEFAULT_ENUMERATION_CAP = 12


class RecordEntry(NamedTuple):
    position: int  # 1-based
    value: int


def is_valid_rgs(word: Sequence[int]) -> bool:
    """True iff ``word`` is a restricted growth string (the empty word is)."""
    if len(word) == 0:
        return True
    if word[0] != 1:
        return False
    top = 1
    for v in word[1:]:
        if not 1 <= v <= top + 1:
            return False
        if v > top:
            top = v
    return True


def _check_size(n: int, k: int | None = None) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if k is not None and k < 1:
        raise ValueError("k must be >= 1 when given")


def enumerate_rgs(n: int, k: int | None = None) -> Iterator[Word]:
    """All restricted growth strings of length n, in lexicographic order.

    With ``k`` given, only words with exactly k blocks (maximum letter k)
    are produced; ``k > n`` yields an empty stream.  ``n = 0`` yields the
    single empty word.
    """
    _check_size(n, k)
    if k is not None and k > n:
        return
    if n == 0:
        yield ()
        return
    for w, top, _ in _walk(n - 1):
        prefix = tuple(w)
        for v in range(1, top + 2):
            if k is None or k == (v if v > top else top):
                yield prefix + (v,)


def _walk(length: int) -> Iterator[tuple[list[int], int, int]]:
    """Every RGS of the given length as (word, maximum, swrec), in
    lexicographic order; length 0 gives the empty word as ([], 0, 0).
    The word is the walk's own list and changes at the next step."""
    w = [1] * length
    if length == 0:
        yield w, 0, 0
        return
    top = [1] * length  # top[i] = max(w[0..i])
    rec = [1] * length  # rec[i] = swrec(w[0..i])
    yield w, 1, 1
    while True:
        # Rightmost position that can still grow: w[i] may be bumped iff
        # w[i] <= top[i-1] (it is not already the prefix maximum + 1).
        i = length - 1
        while i > 0 and w[i] > top[i - 1]:
            i -= 1
        if i == 0:
            return
        v = w[i] = w[i] + 1
        t = top[i - 1]
        r = rec[i - 1]
        if v > t:
            t = v
            r += (i + 1) * v
        top[i] = t
        rec[i] = r
        tail = length - 1 - i
        if tail:
            w[i + 1:] = [1] * tail
            top[i + 1:] = [t] * tail
            rec[i + 1:] = [r] * tail
        yield w, t, r


def records(word: Sequence[int]) -> list[RecordEntry]:
    """Strict left-to-right maxima of any word, with 1-based positions."""
    out: list[RecordEntry] = []
    top = 0
    for pos, v in enumerate(word, 1):
        if v > top:
            top = v
            out.append(RecordEntry(pos, v))
    return out


def _record_sums(word: Sequence[int]) -> tuple[int, int, int]:
    """(number of records, sum of their positions, sum of position * value)."""
    count = positions = weighted = top = 0
    for pos, v in enumerate(word, 1):
        if v > top:
            top = v
            count += 1
            positions += pos
            weighted += pos * v
    return count, positions, weighted


def swrec(word: Sequence[int]) -> int:
    """Sum of position * value over the records of ``word``."""
    return _record_sums(word)[2]


def srec(word: Sequence[int]) -> int:
    """Sum of the record positions of ``word``."""
    return _record_sums(word)[1]


def rec_count(word: Sequence[int]) -> int:
    """Number of records of ``word``."""
    return _record_sums(word)[0]


def blocks_from_rgs(word: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Convert a valid RGS to its blocks, ordered by minimal element."""
    if not is_valid_rgs(word):
        raise ValueError(f"not a restricted growth string: {word!r}")
    k = max(word) if word else 0
    blocks: list[list[int]] = [[] for _ in range(k)]
    for i, v in enumerate(word, 1):
        blocks[v - 1].append(i)
    return tuple(tuple(b) for b in blocks)


def swrec_histogram(n: int, k: int | None = None) -> Counter[int]:
    """Exact histogram {swrec value: count} over all partitions of [n]
    (restricted to k blocks when ``k`` is given).  P_0 holds the empty
    word, whose swrec is 0, so ``swrec_histogram(0)`` is {0: 1}."""
    _check_size(n, k)
    hist: Counter[int] = Counter()
    if k is not None and k > n:
        return hist
    if n == 0:
        return Counter({0: 1})
    for _, t, r in _walk(n - 1):
        for v in range(1, t + 2):
            if v > t:
                if k is None or k == v:
                    hist[r + n * v] += 1
            elif k is None or k == t:
                hist[r] += 1
    return hist


def total_swrec_bruteforce(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Sum of swrec over every partition of [n], by full enumeration."""
    if n > cap:
        raise ValueError(f"n={n} exceeds the enumeration cap {cap}")
    _check_size(n)
    total = 0
    if n == 0:
        return total
    for _, t, r in _walk(n - 1):
        for v in range(1, t + 2):
            total += r + n * v if v > t else r
    return total

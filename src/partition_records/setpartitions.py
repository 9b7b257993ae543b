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
share one private lexicographic walk, ``_walk``, which yields every word
of a given length with its maximum and swrec.  It keeps the running
maximum and the prefix swrec at every position but the last; after a
bump at position i the tail is reset to 1s, which are never records, so
the tail inherits position i's maximum and swrec and nothing is rescanned.
The last position then runs through its letters in a plain loop: the t
letters up to the prefix maximum t leave swrec as it is, and t + 1 is a
record that adds length * (t + 1), the record definition applied to one
letter.

``enumerate_rgs`` walks length n and yields every word (or those with
k blocks).  The histogram and the total walk the prefixes of length
n - 1 and count each prefix's last letters in two classes instead of
visiting them: a prefix with maximum t and swrec r has t extensions with
swrec r (maximum t) and one with swrec r + n(t + 1) (maximum t + 1).  So
every prefix is walked and every word of length n is counted exactly
once, by its prefix.
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
    for w, t, _ in _walk(n):
        if k is None or t == k:
            yield tuple(w)


def _walk(length: int) -> Iterator[tuple[list[int], int, int]]:
    """Every RGS of the given length as (word, maximum, swrec), in
    lexicographic order; length 0 gives the empty word as ([], 0, 0).
    The word is the walk's own list and changes at the next step."""
    w = [1] * length
    if length <= 1:
        yield w, length, length
        return
    last = length - 1
    top = [1] * last  # top[i] = max(w[0..i]) over the prefix w[0..last-1]
    rec = [1] * last  # rec[i] = swrec(w[0..i])
    while True:
        t = top[-1]
        r = rec[-1]
        step = w, t, r  # built once: the t non-records share it
        for v in range(1, t + 1):
            w[last] = v
            yield step
        w[last] = t + 1
        yield w, t + 1, r + length * (t + 1)
        # Rightmost prefix position that can still grow: w[i] may be bumped
        # iff w[i] <= top[i-1] (it is not already the prefix maximum + 1).
        i = last - 1
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
        tail = last - 1 - i
        if tail:
            w[i + 1:last] = [1] * tail
            top[i + 1:] = [t] * tail
            rec[i + 1:] = [r] * tail


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
        if t and (k is None or k == t):
            hist[r] += t
        if k is None or k == t + 1:
            hist[r + n * (t + 1)] += 1
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
        total += (t + 1) * (r + n)
    return total

"""Enumeration and record statistics, checked against first principles."""

import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partition_records import (
    blocks_from_rgs,
    enumerate_rgs,
    is_valid_rgs,
    rec_count,
    records,
    srec,
    swrec,
    swrec_histogram,
    total_swrec_bruteforce,
)
from partition_records.setpartitions import (
    _closed_sum_tables,
    _two_letter_classes,
    _walk,
    swrec_census,
)


def sum_of_squares(n):
    """1^2 + 2^2 + ... + n^2, summed term by term."""
    return sum(i * i for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_n3():
    words = list(enumerate_rgs(3))
    assert words == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]


def test_enumerate_n1():
    assert list(enumerate_rgs(1)) == [(1,)]


def test_enumerate_n0():
    assert list(enumerate_rgs(0)) == [()]


def test_enumerate_k_filter(stirling2):
    assert sum(1 for _ in enumerate_rgs(4, 2)) == 7  # = S(4,2)
    assert stirling2(4, 2) == 7


def test_enumerate_k_beyond_n_is_empty():
    assert list(enumerate_rgs(3, 4)) == []


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_rgs(-1))
    with pytest.raises(ValueError):
        list(enumerate_rgs(3, 0))


def test_enumeration_is_strictly_lexicographic():
    for n in range(8):
        words = list(enumerate_rgs(n))
        assert all(a < b for a, b in zip(words, words[1:]))
        assert all(is_valid_rgs(w) for w in words)


def test_enumeration_matches_bruteforce_filter():
    # every length-n word over 1..n that satisfies the growth rule, in order
    for n in range(1, 6):
        expected = [
            w
            for w in itertools.product(range(1, n + 1), repeat=n)
            if is_valid_rgs(w)
        ]
        assert list(enumerate_rgs(n)) == expected


def test_walk_matches_filtered_products():
    # The walk's fast last position must agree with the record definition:
    # every valid word once, in order, with its maximum and its swrec.
    for length in range(8):
        expected = [
            w
            for w in itertools.product(range(1, length + 1), repeat=length)
            if is_valid_rgs(w)
        ]
        walked = [(tuple(w), t, r) for w, t, r in _walk(length)]
        assert [w for w, _, _ in walked] == expected, length
        for w, t, r in walked:
            assert t == max(w, default=0), w
            assert r == swrec(w), w


def test_counts_match_tables(tables, stirling2):
    for n in range(9):
        words = list(enumerate_rgs(n))
        assert len(words) == tables[n]
        by_k = Counter(max(w) if w else 0 for w in words)
        for k in range(1, n + 1):
            assert by_k[k] == stirling2(n, k)


# ---------------------------------------------------------------------------
# validity and statistics
# ---------------------------------------------------------------------------


def test_is_valid_rgs():
    assert is_valid_rgs((1, 1, 2, 3))
    assert is_valid_rgs((1, 2, 1, 1, 3, 2))
    assert not is_valid_rgs((2, 1, 3))
    assert not is_valid_rgs((1, 3))
    assert is_valid_rgs(())


def test_records_worked_example():
    assert records((1, 2, 1, 1, 3, 2)) == [(1, 1), (2, 2), (5, 3)]


def test_records_constant_word():
    assert records((1, 1, 1, 1, 1)) == [(1, 1)]


def test_records_general_word():
    # works on arbitrary words, not just growth strings
    assert [r.position for r in records((1, 2, 5, 3, 4))] == [1, 2, 3]
    assert records(()) == []


def test_swrec_examples():
    assert swrec((1, 2, 1, 1, 3, 2)) == 20
    assert swrec((1,) * 7) == 1
    for n in range(1, 10):
        assert swrec(tuple(range(1, n + 1))) == sum_of_squares(n)


def test_srec_and_rec_count():
    assert srec((1, 2, 5, 3, 4)) == 6
    assert srec((1, 2, 1, 1, 3, 2)) == 8
    assert rec_count((1, 2, 1, 1, 3, 2)) == 3


def test_records_are_first_occurrences_and_extremes():
    # Swept by full enumeration rather than assumed: for a valid word with
    # k blocks the records are the first occurrences of 1..k in order, so
    # rec_count = k; the max of swrec over P_n is hit only by 12..n and the
    # min over P_{n,k} is 1^2 + .. + k^2.
    for n in range(1, 10):
        best = {}
        max_seen = 0
        argmax = []
        for w in enumerate_rgs(n):
            k = max(w)
            recs = records(w)
            assert [r.value for r in recs] == list(range(1, k + 1))
            assert [r.position for r in recs] == [w.index(v) + 1 for v in range(1, k + 1)]
            assert rec_count(w) == k
            s = swrec(w)
            best[k] = min(best.get(k, s), s)
            if s > max_seen:
                max_seen, argmax = s, [w]
            elif s == max_seen:
                argmax.append(w)
        assert max_seen == sum_of_squares(n)
        assert argmax == [tuple(range(1, n + 1))]
        for k, smallest in best.items():
            assert smallest == sum_of_squares(k)


# ---------------------------------------------------------------------------
# block conversions
# ---------------------------------------------------------------------------


def test_blocks_round_trip_examples():
    assert blocks_from_rgs((1, 1, 2, 3)) == ((1, 2), (3,), (4,))
    assert blocks_from_rgs((1, 2, 1, 1, 3, 2)) == ((1, 3, 4), (2, 6), (5,))
    assert read_back(((1, 3, 4), (2, 6), (5,))) == (1, 2, 1, 1, 3, 2)
    assert blocks_from_rgs((1,)) == ((1,),)
    assert blocks_from_rgs(()) == ()


def read_back(blocks):
    """The word of a partition given as blocks: letter e is the index of
    the block holding e.  The blocks must cover 1..n exactly once."""
    elements = sorted(e for block in blocks for e in block)
    assert elements == list(range(1, len(elements) + 1))
    word = [0] * len(elements)
    for index, block in enumerate(blocks, 1):
        for e in block:
            word[e - 1] = index
    return tuple(word)


def test_blocks_round_trip_exhaustive():
    for n in range(7):
        for w in enumerate_rgs(n):
            blocks = blocks_from_rgs(w)
            assert len(blocks) == max(w, default=0)
            assert all(list(b) == sorted(b) for b in blocks)
            assert read_back(blocks) == w


def test_malformed_blocks_rejected():
    with pytest.raises(ValueError):
        blocks_from_rgs((2, 1))


# ---------------------------------------------------------------------------
# histograms and totals
# ---------------------------------------------------------------------------


# Totals and histograms walk prefixes of length n - 2, so n = 0 and 1 are
# answered without a walk and n = 2 walks the empty prefix (maximum 0,
# whose t- and t^2-sized classes are empty).  By hand: P_2 = {11, 12} with
# swrec 1, 5; P_3 = {111, 112, 121, 122, 123} with swrec 1, 7, 5, 5, 14.
_SMALLEST_HISTOGRAMS = {
    0: {},
    1: {1: {1: 1}},
    2: {1: {1: 1}, 2: {5: 1}},
    3: {1: {1: 1}, 2: {5: 2, 7: 1}, 3: {14: 1}},
}


def test_swrec_histogram_examples():
    for n, by_k in _SMALLEST_HISTOGRAMS.items():
        for k in range(1, n + 3):
            assert dict(swrec_histogram(n, k)) == by_k.get(k, {}), (n, k)
    assert dict(swrec_histogram(2)) == {1: 1, 5: 1}
    assert dict(swrec_histogram(1)) == {1: 1}
    assert dict(swrec_histogram(0)) == {0: 1}


def test_total_swrec_small():
    assert [total_swrec_bruteforce(n) for n in range(4)] == [0, 1, 6, 32]


def test_total_swrec_cap():
    with pytest.raises(ValueError):
        total_swrec_bruteforce(13)
    with pytest.raises(ValueError):
        total_swrec_bruteforce(5, cap=4)


def test_walk_rejects_bad_sizes():
    with pytest.raises(ValueError):
        total_swrec_bruteforce(-1)
    with pytest.raises(ValueError):
        swrec_histogram(-1)
    with pytest.raises(ValueError):
        swrec_histogram(3, 0)


# The totals and histograms carry prefix records instead of calling swrec
# per word; these pin them to swrec applied word by word.


def test_total_swrec_matches_per_word_definition():
    for n in range(11):
        assert total_swrec_bruteforce(n) == sum(swrec(w) for w in enumerate_rgs(n)), n


def test_swrec_histogram_matches_per_word_definition():
    for n in range(0, 11):
        # every k through n = 8; at n = 9 and 10 the unrestricted histogram
        for k in [None, *range(1, n + 3)] if n < 9 else [None]:
            expected = Counter(swrec(w) for w in enumerate_rgs(n, k))
            # as dicts: Counter equality would ignore a stored zero count
            assert dict(swrec_histogram(n, k)) == dict(expected), (n, k)


def test_total_is_the_closed_sum_of_the_classes():
    # total_swrec_bruteforce adds a[t] * r + b[t] per prefix instead of
    # reading the class table; a prefix of length n - 2 has maximum t <= n - 2
    for n in range(2, 14):
        a, b = _closed_sum_tables(n)
        for t in range(n - 1):
            for r in range(0, 100, 7):
                classes = _two_letter_classes(n, t, r)
                assert sum(count * s for count, s, _ in classes) == a[t] * r + b[t], (n, t, r)
                # t^2 + t + (t + 1) + 1 two-letter extensions
                assert sum(count for count, _, _ in classes) == (t + 1) ** 2 + 1


# The census counts P_n by (blocks, swrec): n = 0 and 1 are answered
# without a walk, and n = 2 walks the empty prefix, whose empty classes
# leave no zero counts behind.
def test_swrec_census_smallest():
    assert dict(swrec_census(0)) == {(0, 0): 1}
    assert dict(swrec_census(1)) == {(1, 1): 1}
    assert dict(swrec_census(2)) == {(1, 1): 1, (2, 5): 1}


def test_swrec_census_rejects_negative_n():
    with pytest.raises(ValueError):
        swrec_census(-1)


def test_swrec_census_matches_per_word_definition():
    for n in range(10):
        expected = Counter((max(w, default=0), swrec(w)) for w in enumerate_rgs(n))
        # as dicts: Counter equality would ignore a stored zero count
        assert dict(swrec_census(n)) == dict(expected), n


def test_swrec_census_filtered_by_k_is_the_histogram():
    for n in range(11):
        census = swrec_census(n)
        for k in range(1, n + 2):
            in_k = {s: count for (blocks, s), count in census.items() if blocks == k}
            assert in_k == dict(swrec_histogram(n, k)), (n, k)


def test_swrec_census_weighs_to_the_total():
    for n in range(13):
        weighted = sum(s * count for (_, s), count in swrec_census(n).items())
        assert weighted == total_swrec_bruteforce(n), n


def test_total_swrec_pinned_at_cap():
    assert total_swrec_bruteforce(11) == 64646382
    assert total_swrec_bruteforce(12) == 486545028


# ---------------------------------------------------------------------------
# property-based checks on random valid words
# ---------------------------------------------------------------------------


@st.composite
def growth_strings(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    word = [1]
    top = 1
    for _ in range(n - 1):
        v = draw(st.integers(min_value=1, max_value=top + 1))
        word.append(v)
        top = max(top, v)
    return tuple(word)


@given(growth_strings())
def test_random_words_are_valid_and_consistent(word):
    assert is_valid_rgs(word)
    recs = records(word)
    assert swrec(word) == sum(p * v for p, v in recs)
    assert srec(word) == sum(p for p, _ in recs)
    assert rec_count(word) == len(recs) == max(word)
    assert read_back(blocks_from_rgs(word)) == word

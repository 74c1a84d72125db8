"""Pair-partition enumeration, crossing detection, and heights."""

import math

import pytest
from hypothesis import given, strategies as st

from corrdiag.partitions import (
    PairPartition,
    enumerate_pair_partitions,
    height,
    is_crossing,
)

EVEN_K = st.integers(min_value=1, max_value=5).map(lambda h: 2 * h)


def brute_catalan(m: int) -> int:
    # independent route: factorial form, not math.comb
    return math.factorial(2 * m) // (math.factorial(m) * math.factorial(m + 1))


def test_counts_match_double_factorial():
    for k in range(2, 13, 2):
        expected = math.prod(range(1, k, 2))
        assert len(enumerate_pair_partitions(k)) == expected


def test_k2_and_k4_enumerations_explicit():
    assert [p.canonical() for p in enumerate_pair_partitions(2)] == ["1-2"]
    assert [p.canonical() for p in enumerate_pair_partitions(4)] == [
        "1-2,3-4",
        "1-3,2-4",
        "1-4,2-3",
    ]


def test_noncrossing_counts_are_catalan():
    for k in range(2, 13, 2):
        noncrossing = sum(not is_crossing(p) for p in enumerate_pair_partitions(k))
        assert noncrossing == brute_catalan(k // 2)


def test_crossing_detection_examples():
    assert is_crossing(PairPartition.from_string("1-3,2-4"))
    assert not is_crossing(PairPartition.from_string("1-2,3-4"))
    assert not is_crossing(PairPartition.from_string("1-4,2-3"))
    assert is_crossing(PairPartition.from_string("1-4,2-6,3-5"))


def test_height_examples():
    assert height(PairPartition.from_string("1-2,3-4")) == 2
    assert height(PairPartition.from_string("1-4,2-3")) == 2
    assert height(PairPartition.from_string("1-3,2-4")) == 0
    # one nearest-neighbour block, two interleaved
    assert height(PairPartition.from_string("1-4,2-5,3-6")) == 0
    assert height(PairPartition.from_string("1-2,3-5,4-6")) == 1


@given(EVEN_K, st.randoms(use_true_random=False))
def test_height_maximal_iff_noncrossing(k, rnd):
    parts = enumerate_pair_partitions(k)
    p = parts[rnd.randrange(len(parts))]
    assert (height(p) == k // 2) == (not is_crossing(p))


@given(EVEN_K)
def test_heights_never_exceed_half(k):
    assert all(0 <= height(p) <= k // 2 for p in enumerate_pair_partitions(k))


def test_canonical_roundtrip():
    for k in (2, 4, 6, 8):
        for p in enumerate_pair_partitions(k):
            assert PairPartition.from_string(p.canonical()) == p


def test_validation_rejects_bad_blocks():
    with pytest.raises(ValueError):
        PairPartition(4, ((1, 2), (2, 4)))  # reused element
    with pytest.raises(ValueError):
        PairPartition(4, ((2, 1), (3, 4)))  # not increasing
    with pytest.raises(ValueError):
        PairPartition(4, ((1, 2),))  # misses 3, 4
    with pytest.raises(ValueError):
        enumerate_pair_partitions(3)
    with pytest.raises(ValueError):
        enumerate_pair_partitions(18)  # above the enumeration cap


def test_enumeration_is_sorted_and_unique():
    for k in (4, 6, 8):
        canon = [p.canonical() for p in enumerate_pair_partitions(k)]
        assert canon == sorted(canon)
        assert len(set(canon)) == len(canon)

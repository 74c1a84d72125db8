"""Pair-partition enumeration, crossing detection, and heights."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from corrdiag.partitions import (
    MAX_GROUND_SET,
    PairPartition,
    _dihedral_images,
    _pairings,
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
    assert PairPartition((2, 3, 0, 1)).blocks == ((1, 3), (2, 4))
    for partner in ((0, 1), (1, 0, 3, 3), (1, 2, 0, 3), (2, 0, 1), (1, 0, 2), (), (1, 4, 3, 2),
                    (1, 0, -1, 2)):
        # fixed points, non-involutions, odd lengths, empty, out of range
        with pytest.raises(ValueError, match="not the partner tuple"):
            PairPartition(partner)
    with pytest.raises(ValueError):
        enumerate_pair_partitions(3)
    with pytest.raises(ValueError):
        enumerate_pair_partitions(18)  # above the enumeration cap


def test_partner_sequences_are_stored_as_int_tuples():
    # equality and hashing are canonical whatever sequence of integers is given
    p = PairPartition((1, 0, 3, 2))
    for partner in ([1, 0, 3, 2], np.array([1, 0, 3, 2]), (np.int64(1), 0, 3, 2)):
        q = PairPartition(partner)
        assert q == p and hash(q) == hash(p) and {q: 1}[p] == 1
        assert type(q.partner) is tuple and all(type(j) is int for j in q.partner)
    with pytest.raises(TypeError):
        PairPartition([1.0, 0, 3, 2])


def test_enumeration_is_sorted_and_unique():
    for k in (4, 6, 8):
        canon = [p.canonical() for p in enumerate_pair_partitions(k)]
        assert canon == sorted(canon)
        assert len(set(canon)) == len(canon)


def _crossing_by_blocks(p):
    # two blocks a < c < b < d interleave
    return any(a < c < b < d for (a, b), (c, d) in itertools.permutations(p.blocks, 2))


def _height_by_windows(p):
    # a block counts when every element strictly inside it pairs inside it
    mate = {x: y for a, b in p.blocks for x, y in ((a, b), (b, a))}
    return sum(all(a < mate[x] < b for x in range(a + 1, b)) for a, b in p.blocks)


def test_partner_tuple_height_and_crossing_match_the_block_definitions():
    for k in range(2, 11, 2):
        for p in enumerate_pair_partitions(k):
            assert is_crossing(p) == _crossing_by_blocks(p), p.canonical()
            assert height(p) == _height_by_windows(p), p.canonical()
            assert p.partner[p.blocks[0][0] - 1] == p.blocks[0][1] - 1


def test_partner_tuples_enumerate_in_block_list_order():
    for k in (2, 4, 6, 8):
        assert [PairPartition(partner) for partner in _pairings(k)] == enumerate_pair_partitions(k)


def test_dihedral_images_are_the_rotations_and_reflections():
    p = PairPartition.from_string("1-3,2-6,4-7,5-8")
    k = p.k
    images = _dihedral_images(p.partner)
    assert len(images) == 2 * k and images[0] == p.partner
    expected = set()
    for r in range(k):
        for flip in (False, True):
            moved = [(((k - x if flip else x - 1) + r) % k + 1 for x in block) for block in p.blocks]
            expected.add(PairPartition.from_string(",".join(f"{a}-{b}" for a, b in moved)).partner)
    assert set(images) == expected
    # the symmetric pairing 1-2,3-4 has only two distinct images
    assert len(set(_dihedral_images(PairPartition.from_string("1-2,3-4").partner))) == 2


def test_enumeration_cap_admits_k14_and_refuses_k16():
    import tracemalloc

    assert MAX_GROUND_SET == 14
    assert len(enumerate_pair_partitions(14)) == 135_135
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the enumeration cap 14"):
            enumerate_pair_partitions(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22


def test_from_string_names_the_text_it_refuses():
    assert PairPartition.from_string("2-4,3-1") == PairPartition.from_string("1-3,2-4")
    for text in ("1-3,2", "a-b", "1-2-3,4-5", "", "1-2,2-4", "1-1", "1-5,2-3", "0-1", "-1-2"):
        # malformed chunks, reused elements, out-of-range elements
        with pytest.raises(ValueError, match=f"{text!r} is not a pair partition"):
            PairPartition.from_string(text)

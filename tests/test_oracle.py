"""Exhaustive walk counts over the cyclic index space."""

import hashlib
import itertools
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from corrdiag import oracle
from corrdiag.cli import main
from corrdiag.oracle import (
    _add_pairs,
    _census_bytes,
    _check_cost,
    _mask_dtype,
    _pair_index,
    _rotations,
    _signatures,
    _slab,
    _slabs,
    _trailing_and_span,
    _trailing_block,
    census_report,
    check_excess_crossing_decay,
    check_cell_bound,
    check_sn_minus_snstar_decay,
    walk_census,
)
from corrdiag.partitions import PairPartition, enumerate_pair_partitions, height, is_crossing
from corrdiag.volumes import lattice_count


def test_k2_counts_exact():
    # every closed two-step walk has |d1| = |d2| and d1 = -d2, so each of the
    # n^2 walks is both matched and opposed for the unique pairing
    for n in (2, 3, 7, 12):
        census = walk_census(n, 2)
        tally = census.tallies["1-2"]
        assert census.total_walks == n * n
        assert tally.matched == n * n
        assert tally.opposed == n * n
        assert census.nonpair_walks == 0


def test_partition_sum_identity():
    # (110, 4) and (22, 6) have more than 10^8 walks but scan fewer: the
    # cost guard bounds the n^(k-1) walks scanned, and each float64 tally
    # stays exact
    for n, k in ((6, 4), (5, 6), (110, 4), (22, 6)):
        assert walk_census(n, k).partition_sum_identity()


def test_partition_sum_identity_fails_when_a_slab_is_skipped(monkeypatch):
    # the non-pair walks are counted as scanned, so a census that misses
    # walks breaks the identity instead of absorbing them into nonpair_walks.
    # (12, 6) has two slabs, p_2 < 6 and p_2 >= 6; the count is that of the
    # non-pair walks from p_1 = 0 with p_2 < 6, each credited (1 + t)(n - s)
    slabs = oracle._slabs
    monkeypatch.setattr(oracle, "_slabs", lambda *args: slabs(*args)[:-1])
    census = walk_census.__wrapped__(12, 6)  # bypass the cache of full censuses
    assert census.nonpair_walks == 1_584_705
    assert not census.partition_sum_identity()


def test_matched_equals_opposed_at_k2_and_k4():
    census = walk_census(9, 4)
    for p in enumerate_pair_partitions(4):
        tally = census.tallies[p.canonical()]
        if p.canonical() == "1-3,2-4":
            # interleaved blocks force cancellation: matched == opposed
            assert tally.matched == tally.opposed
        assert tally.opposed <= tally.matched


def test_opposed_ratio_converges_to_volume_k4():
    # normalized count against the frozen k=4 volumes at a size where the
    # finite-size gap is already below 5 percent
    census = walk_census(40, 4)
    targets = {"1-2,3-4": 1.0, "1-3,2-4": 2.0 / 3.0, "1-4,2-3": 1.0}
    for canonical, target in targets.items():
        ratio = census.tallies[canonical].opposed / 40**3
        assert ratio == pytest.approx(target, abs=0.05)


def test_opposed_ratio_extrapolation_tightens_k6():
    # raw ratios at tiny n sit far from the limit; the 1/n extrapolation
    # from two modest sizes lands within 0.1 of the frozen volumes
    grid = (12, 16)
    cases = {
        "1-4,2-5,3-6": 0.5,  # fully interleaved chain
        "1-2,3-5,4-6": 2.0 / 3.0,  # one nearest-neighbour block
        "1-2,3-4,5-6": 1.0,  # non-crossing
    }
    inv = [1.0 / n for n in grid]
    for canonical, target in cases.items():
        ratios = [walk_census(n, 6).tallies[canonical].opposed / n**4 for n in grid]
        value = np.polyfit(inv, ratios, 1)[1]  # intercept of the fit against 1/n
        assert value == pytest.approx(target, abs=0.1)


def test_solution_count_closed_forms():
    # solutions of the cancellation system are the lattice points of n times
    # the volume polytope; at k <= 6 they number (vol + (1 - vol)/n^2) n^(k/2+1)
    # exactly: vol = 1 for non-crossing partitions, 1/2 for the four with
    # volume 1/2 at k=6, 2/3 for those with one crossing pair of blocks
    from fractions import Fraction

    half = {"1-3,2-5,4-6", "1-4,2-5,3-6", "1-4,2-6,3-5", "1-5,2-4,3-6"}
    for k, sizes in ((4, (3, 5, 12)), (6, (3, 4, 7))):
        for n in sizes:
            norm = n ** (k // 2 + 1)
            for p in enumerate_pair_partitions(k):
                solutions = lattice_count(p, n - 1)
                if not is_crossing(p):
                    vol = Fraction(1)
                elif p.canonical() in half:
                    vol = Fraction(1, 2)
                else:
                    vol = Fraction(2, 3)
                assert Fraction(solutions, norm) == vol + (1 - vol) / (n * n)
                # the ratio criterion 7 compares, int over int, is the closed form rounded once
                assert solutions / norm == float(vol + (1 - vol) / (n * n))


def test_solutions_include_every_opposed_walk():
    # the census's opposed walks against the lattice count of all solutions
    for n, k in ((9, 4), (6, 6)):
        census = walk_census(n, k)
        for p in enumerate_pair_partitions(k):
            assert census.tallies[p.canonical()].opposed <= lattice_count(p, n - 1)


def test_solution_minus_opposed_shrinks_at_k6():
    # the walks with extra |step| coincidences are O(n^(k/2)), so their
    # normalized count falls like 1/n for every partition
    grid = (10, 12, 14)
    for p in enumerate_pair_partitions(6):
        gaps = []
        for n in grid:
            opposed = walk_census(n, 6).tallies[p.canonical()].opposed
            gaps.append((lattice_count(p, n - 1) - opposed) / n**4)
        assert gaps[0] > gaps[1] > gaps[2] > 0


def test_cell_bound_holds_exhaustively():
    for k in (2, 4, 6):
        for n in (2, 3, 5, 8):
            report = check_cell_bound(n, k)
            assert report["ok"], report["violations"][:1]
            assert report["violations"] == []


def _walk_pairs(walk, k):
    """(|d| equality pairs, reversed pairs, cell-sharing pairs) of a closed walk, by hand."""
    closed = list(walk) + [walk[0]]
    steps = [closed[i + 1] - closed[i] for i in range(k)]
    cells = [sorted(closed[i:i + 2]) for i in range(k)]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    equal = {(i, j) for i, j in pairs if abs(steps[i]) == abs(steps[j])}
    reversed_ = {(i, j) for i, j in pairs if steps[i] == -steps[j]}
    tied = {(i, j) for i, j in pairs if cells[i] == cells[j]}
    return equal, reversed_, tied


def _walk_profile(walk, k):
    """(|d| equality pairs, reversed pairs, shared-cell count) of a closed walk, by hand."""
    equal, reversed_, tied = _walk_pairs(walk, k)
    return equal, reversed_, len(tied)


def test_cell_bound_violation_reports_census_counts(monkeypatch, capsys):
    # one more than every height: the opposed walks that meet the bound with
    # equality now break it, so the report and the CLI's exit code take the
    # violation path.  Each violation's counts are those of a plain count
    # over all n^k walks of the opposed walks below the forced floor
    monkeypatch.setattr(oracle, "height", lambda p: height(p) + 1)
    for n, k in ((5, 4), (5, 6)):
        partitions = {frozenset((a - 1, b - 1) for a, b in p.blocks): p
                      for p in enumerate_pair_partitions(k)}
        low = {p.canonical(): Counter() for p in partitions.values()}
        for walk in itertools.product(range(n), repeat=k):
            equal, reversed_, shared = _walk_profile(walk, k)
            p = partitions.get(frozenset(equal))
            if p is not None and equal <= reversed_ and shared < height(p) + 1:
                low[p.canonical()][shared] += 1
        report = check_cell_bound(n, k)
        assert report["ok"] is False
        assert {v["partition"]: v["offending_cell_counts"] for v in report["violations"]} == {
            key: dict(counts) for key, counts in low.items() if counts}
        for violation in report["violations"]:
            assert violation["height"] == height(PairPartition.from_string(violation["partition"])) + 1
    assert main(["oracle", "--n", "5", "--k", "6", "--check-heights"]) == 1
    assert '"ok": false' in capsys.readouterr().out


def test_shared_cell_histogram_obeys_bound():
    census = walk_census(7, 6)
    for p in enumerate_pair_partitions(6):
        tally = census.tallies[p.canonical()]
        h = height(p)
        for cells, count in tally.shared_cells.items():
            if count:
                assert cells >= h


def test_excess_over_bound_shrinks():
    # fraction of opposed walks with strictly more shared cells than the
    # bound, for one crossing partition, along growing sizes
    p = PairPartition.from_string("1-2,3-5,4-6")
    fractions = []
    for n in (6, 8, 10):
        census = walk_census(n, 6)
        tally = census.tallies[p.canonical()]
        excess = sum(count for cells, count in tally.shared_cells.items() if cells > 1)
        fractions.append(excess / tally.opposed)
    assert fractions[0] > fractions[1] > fractions[2]


def test_matched_minus_opposed_zero_at_k4():
    report = check_sn_minus_snstar_decay((6, 10, 14), 4)
    assert report["ok"]
    assert all(v["identically_zero"] for v in report["partitions"].values())


def test_matched_minus_opposed_decays_at_k6():
    report = check_sn_minus_snstar_decay((14, 16), 6)
    for info in report["partitions"].values():
        assert info["identically_zero"] or info["ratios"][0] > info["ratios"][-1]


def test_block_tie_counts_k4_closed_form():
    # ties of the interleaved partition's first block: both entries hit the
    # same matrix cell, which happens for (n-1) choices of shared start times
    # n anchors, out of n^3 normalized walks
    for n in (5, 10, 20):
        census = walk_census(n, 4)
        tally = census.tallies["1-3,2-4"]
        assert tally.block_ties[(1, 3)] == (n - 1) * n
        assert tally.block_ties[(2, 4)] == (n - 1) * n


def test_excess_crossing_decay_check():
    p = PairPartition.from_string("1-3,2-4")
    report = check_excess_crossing_decay((10, 20, 40), p, (1, 3))
    assert report["pass"]
    ratios = report["ratios"]
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < 0.5 * ratios[0]
    expected = [(n - 1) / n**2 for n in (10, 20, 40)]
    assert ratios == pytest.approx(expected, rel=1e-12)


def test_decay_checks_reject_a_grid_that_is_not_increasing():
    # the ratios are read along growing n: a reversed grid would let a ratio
    # that grows with n pass as decreasing
    p = PairPartition.from_string("1-3,2-4")
    for grid in ((16, 14), (14, 14), (14,)):
        with pytest.raises(ValueError):
            check_sn_minus_snstar_decay(grid, 6)
    for grid in ((40, 20, 10), (10, 20, 20), (10,)):
        with pytest.raises(ValueError):
            check_excess_crossing_decay(grid, p, (1, 3))
    assert check_sn_minus_snstar_decay((14, 16), 6)["ok"]


def test_excess_crossing_decay_rejects_bad_block():
    p = PairPartition.from_string("1-3,2-4")
    with pytest.raises(ValueError):
        check_excess_crossing_decay((6, 8), p, (1, 2))


def test_census_report_serializable():
    report = census_report(walk_census(5, 4))
    text = json.dumps(report)
    back = json.loads(text)
    assert back["partition_sum_identity"] is True
    assert "1-3,2-4" in back["partitions"]


def test_cost_guard_rejects_huge_grids():
    with pytest.raises(ValueError):
        walk_census(200, 6)


def test_cost_guard_bounds_scanned_walks_and_int16_sites():
    # the census scans n^(k-1) walks, and its sites and n - span weights are
    # int16: the largest n each guard admits, and one past it
    for n, k in ((464, 4), (39, 6), (13, 8), (7, 10), (32767, 2)):
        _check_cost(n, k)
    for n, k in ((465, 4), (40, 6), (14, 8), (8, 10), (32768, 2)):
        with pytest.raises(ValueError, match="cost guard" if n < 2**15 else "int16"):
            _check_cost(n, k)


def _brute_force_census(n, k):
    """Every census count by visiting each walk in plain Python, one at a time."""
    blocks = {p.canonical(): frozenset((a - 1, b - 1) for a, b in p.blocks)
              for p in enumerate_pair_partitions(k)}
    by_pattern = {pattern: key for key, pattern in blocks.items()}
    counts = {key: {"matched": 0, "opposed": 0, "solutions": 0,
                    "shared_cells": Counter(), "block_ties": Counter()} for key in blocks}
    nonpair = 0
    for walk in itertools.product(range(n), repeat=k):
        equal, reversed_, tied = _walk_pairs(walk, k)
        for key, pattern in blocks.items():
            counts[key]["solutions"] += pattern <= reversed_
        key = by_pattern.get(frozenset(equal))
        if key is None:
            nonpair += 1
            continue
        counts[key]["matched"] += 1
        if blocks[key] <= reversed_:
            counts[key]["opposed"] += 1
            counts[key]["shared_cells"][len(tied)] += 1
            counts[key]["block_ties"].update((i + 1, j + 1) for i, j in blocks[key] & tied)
    return counts, nonpair


@pytest.mark.parametrize("n,k", [(5, 4), (3, 6), (2, 8), (1, 4), (4, 4), (4, 6), (6, 4), (2, 6), (3, 8),
                                 (1, 2), (2, 2), (2, 10), (1, 10)])
def test_census_matches_brute_force(n, k):
    # the walks that solve each cancellation system are not scanned by the
    # census; they are checked here against the lattice count at t = n - 1
    expected, nonpair = _brute_force_census(n, k)
    census = walk_census(n, k)
    assert census.nonpair_walks == nonpair
    for p in enumerate_pair_partitions(k):
        tally, want = census.tallies[p.canonical()], expected[p.canonical()]
        assert (tally.matched, tally.opposed, lattice_count(p, n - 1)) == (
            want["matched"], want["opposed"], want["solutions"])
        assert tally.shared_cells == dict(want["shared_cells"])
        assert tally.block_ties == {block: want["block_ties"][block] for block in p.blocks}


def test_census_identical_across_thread_counts(monkeypatch):
    # each worker sums its own share of the slabs; the sums over workers must
    # not depend on the split.  (12, 6) has 4 slabs: shares of 2, 1 and 1 on 3 threads
    for n, k, threads in ((9, 4, "2"), (5, 6, "2"), (3, 8, "2"), (12, 6, "3")):
        results = []
        for count in ("1", threads):
            monkeypatch.setenv("CORRDIAG_THREADS", count)
            results.append(census_report(walk_census.__wrapped__(n, k)))
        assert results[0] == results[1]


def test_memory_guard_accepts_every_tested_shape(monkeypatch):
    # the benchmark's censuses and the largest ones the tests and criterion 7 run
    shapes = [(60, 4), (12, 6), (6, 8), (40, 4), (10, 6), (16, 6), (18, 6), (7, 6), (3, 8),
              (12, 2)]
    for threads in ("1", "2"):
        monkeypatch.setenv("CORRDIAG_THREADS", threads)
        for n, k in shapes:
            _check_cost(n, k)


def test_memory_guard_counts_slabs_not_requested_threads(monkeypatch):
    # (60, 4) has 4 slabs, so 128 requested threads start 4 workers
    monkeypatch.setenv("CORRDIAG_THREADS", "128")
    _check_cost(60, 4)


def test_non_integer_sizes_rejected_at_the_input_check():
    walk_census(5, 4)  # a cached census must not answer a float size
    for n, k in ((5, 4.0), (5.0, 4), (5, 5.0)):
        with pytest.raises(ValueError, match=r"integer.*, got [45]\.0$"):
            walk_census(n, k)
    # NumPy integers are sizes too, and the census holds Python ints
    census = walk_census.__wrapped__(np.int64(5), np.int32(4))
    assert census_report(census) == census_report(walk_census(5, 4))
    assert type(census.n) is int and type(census.k) is int


def test_mask_width_guard_rejects_k12():
    # k=12 has 66 step pairs, more than one int64 bitmask can hold
    with pytest.raises(ValueError, match="step pairs"):
        walk_census(2, 12)


@pytest.mark.parametrize("n,k", [(1, 4), (6, 4), (7, 4), (1, 6), (4, 6), (5, 6), (2, 8), (3, 8)])
def test_rotation_maps_tallies_to_rotated_partitions(n, k):
    # the census scans only the walks from p_1 = 0 and credits each walk w to
    # roll(w, j) for j = 0..t(w): each such rotation has its first 0 at index
    # j, and its |step|, reversal and cell-sharing pairs are w's pairs moved
    # by the rotation, pair (a, b) to (a+j, b+j) mod k; the census credits
    # them through the rotated slots and block ordinals
    rows = _grid(n, k)
    pair_index = _pair_index(k)
    bit_of = np.array([[pair_index.index(tuple(sorted(((a + j) % k, (b + j) % k))))
                        for a, b in pair_index] for j in range(k)])
    ordered, signatures = _signatures(k)
    slot_of, block_of = _rotations(k, signatures)
    trailing, span = _trailing_and_span(rows)
    for column in range(rows.shape[1]):
        walk = tuple(rows[:, column].tolist())
        t = int(trailing[column])
        assert span[column] == max(walk)
        assert t == next(i for i, x in enumerate(reversed(walk)) if x == 0)
        pairs = _walk_pairs(walk, k)
        for j in range(t + 1):
            rolled = walk[-j:] + walk[:-j] if j else walk
            assert rolled.index(0) == j
            moved = tuple({pair_index[bit_of[j, pair_index.index(ij)]] for ij in group}
                          for group in pairs)
            assert _walk_pairs(rolled, k) == moved
    for slot, sig in enumerate(signatures.tolist()):
        for j in range(k):
            rotated = sum(1 << int(bit_of[j, b]) for b in range(len(pair_index)) if sig >> b & 1)
            assert signatures[slot_of[j, slot]] == rotated
            # block o of the partition, in p.blocks order, is block block_of[j, slot, o]
            # of the rotated partition
            blocks = ordered[slot_of[j, slot]].blocks
            for o, (a, b) in enumerate(ordered[slot].blocks):
                moved = tuple(sorted(((a - 1 + j) % k + 1, (b - 1 + j) % k + 1)))
                assert blocks.index(moved) == block_of[j, slot, o]


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (12, 2), (7, 4), (20, 4), (5, 6), (3, 8)])
def test_rotations_and_translates_cover_every_walk(monkeypatch, n, k):
    # each scanned walk w stands for its 1 + t(w) rotations, each with
    # n - max(w) translates: together they are every walk on n sites once
    trailing, span = _trailing_and_span(_grid(n, k))
    weight = (n - span).astype(np.int64)
    assert int(((1 + trailing.astype(np.int64)) * weight).sum()) == n**k
    # the slabs read this tally off the trailing block's (run, max) counts,
    # with all k - 1 axes in the block and with one
    direct = np.zeros(k, dtype=np.int64)
    np.add.at(direct, trailing, weight)
    for width in (oracle._SLAB, n + 1):
        monkeypatch.setattr(oracle, "_SLAB", width)
        tail = _trailing_block(n, k)
        slabs = _slabs(n, k, tail.sites.shape[1])
        every = sum(_slab(tail, lo, lo + slabs.step)[4] for lo in slabs)
        assert every.dtype == np.int64 and every.tolist() == direct.tolist()
        assert int(np.arange(1, k + 1) @ every) == n**k


def _grid(n, k):
    """Every walk from p_1 = 0 as a (k, n^(k-1)) column, in the census's C order."""
    return np.concatenate([np.zeros((1, n ** (k - 1)), dtype=np.int16),
                           np.indices((n,) * (k - 1), dtype=np.int16).reshape(k - 1, -1)])


@pytest.mark.parametrize("n,k", [(4, 4), (4, 6), (3, 8), (3, 10)])
def test_trailing_block_keeps_every_walk_that_can_match(monkeypatch, n, k):
    # brute force over the whole p_1 = 0 grid: a walk whose |step| pattern is
    # a pair partition has a kept trailing block, for every number m of
    # trailing axes, and the block's pair bits are the walk's own
    rows = _grid(n, k)
    walks = [tuple(column) for column in rows.T.tolist()]
    profiles = [_walk_pairs(walk, k) for walk in walks]
    patterns = {frozenset((a - 1, b - 1) for a, b in p.blocks) for p in enumerate_pair_partitions(k)}
    matched = [w for w, (equal, _, _) in enumerate(profiles) if frozenset(equal) in patterns]
    pair_index = _pair_index(k)
    for m in range(k):
        monkeypatch.setattr(oracle, "_SLAB", n**m)
        tail = _trailing_block(n, k)
        assert len(tail.sites) == m
        kept = {tuple(column): c for c, column in enumerate(tail.sites.T.tolist())}
        for w in matched:
            c = kept[walks[w][k - m:]]
            for row, pairs in zip(tail.masks[:, c].tolist(), profiles[w]):
                assert row == sum(1 << b for b, (i, j) in enumerate(pair_index)
                                  if i >= k - m and (i, j) in pairs)


def test_every_signature_has_one_bit_per_block():
    # the census looks up only the walks with k/2 |step| bits, so no
    # partition may have a signature with any other bit count
    for k in range(2, 12, 2):
        ordered, signatures = _signatures(k)
        assert len(ordered) == len(set(ordered))
        assert set(ordered) == set(enumerate_pair_partitions(k))
        assert {int(s).bit_count() for s in signatures} == {k // 2}


def test_lookup_rejects_walks_with_k_half_bits_that_match_no_partition():
    # three equal |steps| set three bits at k=6 and are no pair partition, so
    # the exact compare after the bit-count filter has walks to reject
    # (test_census_matches_brute_force checks the counts at (4, 6)).  The
    # trailing block drops them all at (4, 6), where it spans every axis, but
    # not at (12, 6), where its 4 axes leave room for a third equal |step|
    signatures = set(_signatures(6)[1].tolist())
    rows = _grid(4, 6)
    positions = [*rows, rows[0]]
    steps = [b - a for a, b in zip(positions, positions[1:])]
    masks = np.zeros((2, rows.shape[1]), dtype=_mask_dtype(6))
    _add_pairs(masks, [(bit, steps[i], steps[j]) for bit, (i, j) in enumerate(_pair_index(6))])
    tail = _trailing_block(12, 6)
    in_census = _slab(tail, 0, _slabs(12, 6, tail.sites.shape[1]).step)[1][0]
    for eq in (masks[0], in_census):
        candidates = set(eq[np.bitwise_count(eq) == 3].tolist())
        assert candidates & signatures
        assert candidates - signatures


# SHA-256 of the indented, key-sorted census_report JSON and of the
# key-sorted {partition: solutions} JSON, recorded with the census that
# scanned every p1 chunk; the solutions are lattice_count(p, n - 1)
PINNED_CENSUS = {
    (20, 4): ("9407ca5f5f32b21d6c59b2582f18f7e103eb801bb810b3ce1de6d16c5e3d3e6d",
              "b3e516734e2cb64d2db2e526f48d00ce8869630303c569af9d502ab18a9326e8"),
    (9, 6): ("37e8d8f7e39c22388112c9e86254058a0acc54f60b8f571fc3f4f94f874d58c8",
             "398600bfbffb9791db33a27c1addb375a15e96cf419a2c22a44f390a54f920a1"),
    (8, 6): ("d149e2591c3b7cda8f5ce921698eb001e88bb53312523b5c666d455ac605acef",
             "c1a18178b5063f5b8f28611ff49dc6319d5a8f30f13a909712cbad81aeb54e39"),
    (4, 8): ("b12186e3dd7f0d7c77a401e985be9b2d37d4fe2ebab246868abb170118e4e022",
             "21a61579d3e89c838b4c3fc9a92044d21643885bdf4bea87c89232d3694951d4"),
    (3, 8): ("ed590c5de7403db079cb30f4eef1bc9bc42661d858d06310cad0f6771cd5ea2d",
             "79a4e19decdbf972627b1cbbe304b5075c1e29d72babb4b35b932fec83169906"),
}


# k=10 has 45 step pairs, so its masks are the only int64 ones; n=5 is the
# smallest size with matched walks there (90720 of them), n=4 has none.
# Recorded with the census that looked up every walk.  Kept apart from
# PINNED_CENSUS because it takes seconds, and the slab-width test below
# reruns each of those three times.
PINNED_INT64_CENSUS = {
    (5, 10): ("3914043dfaa9a237f25d0c73d22b0f1adfe0ec5c8ed3db41f0a976ef5587d8e2",
              "b0e82ea5416791b078f3a6d00840abd31b4a478f9306ce72baaea4e31d025705"),
}


def _census_digests(census):
    report = json.dumps(census_report(census), indent=2, sort_keys=True)
    solutions = json.dumps({p.canonical(): lattice_count(p, census.n - 1)
                            for p in enumerate_pair_partitions(census.k)}, sort_keys=True)
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in (report, solutions))


@pytest.mark.parametrize("n,k", sorted(PINNED_CENSUS | PINNED_INT64_CENSUS))
def test_census_pinned_bytes(n, k):
    assert _census_digests(walk_census(n, k)) == (PINNED_CENSUS | PINNED_INT64_CENSUS)[(n, k)]


@pytest.mark.parametrize("width", [7, 389, 4096, 5000])
def test_census_invariant_to_slab_width(monkeypatch, width):
    # 389 walks is less than one p_2 row (n^(k-2) >= 400 walks) of every pinned
    # shape; 4096 divides some n^(k-1) exactly, 389 and 5000 divide none.  7
    # is below n at (20, 4), whose trailing block then has no axis; only that
    # shape runs at 7, where the other pinned shapes take thousands of slabs
    monkeypatch.setattr(oracle, "_SLAB", width)
    shapes = PINNED_CENSUS if width > 20 else {(20, 4): PINNED_CENSUS[(20, 4)]}
    for (n, k), pinned in shapes.items():
        assert _census_digests(walk_census.__wrapped__(n, k)) == pinned


def test_census_sums_slabs_that_hold_no_candidate(monkeypatch):
    # at one walk per slab the first slab, the walk (0, 0, 0, 0), has no
    # walk with k/2 |step| bits, and np.bincount gives int64 for no keys:
    # the slabs' float64 tallies must still add up
    expected = census_report(walk_census(3, 4))
    monkeypatch.setattr(oracle, "_SLAB", 1)
    assert census_report(walk_census.__wrapped__(3, 4)) == expected


def test_census_peak_within_memory_estimate(monkeypatch):
    # the benchmark's censuses and the largest one the tests run: one slab at a
    # time keeps each at a few MiB, whatever n is; (12, 2) holds little more
    # than the census's fixed objects, and (16, 6) at 389-walk slabs scans
    # 4096 slabs
    monkeypatch.setenv("CORRDIAG_THREADS", "1")
    for n, k, slab in ((60, 4, oracle._SLAB), (12, 6, oracle._SLAB), (6, 8, oracle._SLAB),
                       (18, 6, oracle._SLAB), (12, 2, oracle._SLAB), (16, 6, 389)):
        monkeypatch.setattr(oracle, "_SLAB", slab)
        tracemalloc.start()
        try:
            walk_census.__wrapped__(n, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _census_bytes(n, k)
        assert peak <= 8 * 2**20

"""Cube-section volumes: linear systems, Monte Carlo estimates, exact lattice
counts, cache."""

import dataclasses
import itertools
import re
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corrdiag.volumes as vol
from corrdiag.partitions import PairPartition, enumerate_pair_partitions, is_crossing
from corrdiag.volumes import (
    VolumeCache,
    VolumeEstimate,
    _fit_polynomial,
    _hits,
    _lattice_counts,
    _orbit_key,
    _rows_that_can_fail,
    _totally_unimodular,
    exact_volume,
    lattice_count,
    lattice_polynomial,
    solve_partition_system,
    toeplitz_volume,
)

# values frozen from exact polytope integration (symbolic, done once offline)
EXACT_INTERLEAVED_K4 = 2.0 / 3.0
EXACT_CHAIN_K6 = 0.5


def all_partitions(max_k):
    out = []
    for k in range(2, max_k + 1, 2):
        out.extend(enumerate_pair_partitions(k))
    return out


def test_solved_system_shape():
    p = PairPartition.from_string("1-3,2-4")
    sys_ = solve_partition_system(p)
    assert sys_.free_vars == (0, 1, 2)
    assert [j for j, _ in sys_.determined] == [3, 4]
    by_var = dict(sys_.determined)
    # x3 = x0 - x1 + x2 from block (1,3); x4 collapses to x0 (closed walk)
    assert by_var[3] == (1, -1, 1)
    assert by_var[4] == (1, 0, 0)


@given(st.sampled_from(all_partitions(8)))
def test_free_variable_count(p):
    sys_ = solve_partition_system(p)
    assert len(sys_.free_vars) == p.k // 2 + 1
    assert len(sys_.determined) == p.k // 2
    assert 0 in sys_.free_vars


@given(st.sampled_from(all_partitions(8)))
def test_determined_coefficients_sum_to_one(p):
    # every eliminated coordinate is an integer combination of free ones
    # with coefficients summing to 1
    for _, coeffs in solve_partition_system(p).determined:
        assert sum(coeffs) == 1
        assert all(isinstance(c, int) for c in coeffs)


@given(st.sampled_from(all_partitions(8)), st.integers(0, 2**31))
@settings(max_examples=40)
def test_back_substitution_satisfies_relations(p, seed):
    sys_ = solve_partition_system(p)
    rng = np.random.default_rng(seed)
    free_vals = rng.uniform(-2, 2, size=len(sys_.free_vars))
    x = np.empty(p.k + 1)
    x[list(sys_.free_vars)] = free_vals
    x[[j for j, _ in sys_.determined]] = sys_.coefficient_matrix() @ free_vals
    for i, j in p.blocks:
        assert x[i] - x[i - 1] + x[j] - x[j - 1] == pytest.approx(0, abs=1e-12)


def test_noncrossing_volumes_exact_one():
    for p in all_partitions(8):
        if is_crossing(p):
            continue
        est = toeplitz_volume(p, 100, 0)
        assert est.exact and est.value == 1.0 and est.std_error == 0.0


def test_interleaved_k4_volume_frozen():
    est = toeplitz_volume(PairPartition.from_string("1-3,2-4"), 400_000, 42)
    assert not est.exact
    assert abs(est.value - EXACT_INTERLEAVED_K4) < 4 * est.std_error
    assert est.std_error == pytest.approx(
        np.sqrt(est.value * (1 - est.value) / 400_000), rel=1e-12
    )


def test_chain_k6_volume_frozen():
    est = toeplitz_volume(PairPartition.from_string("1-4,2-5,3-6"), 400_000, 7)
    assert abs(est.value - EXACT_CHAIN_K6) < 4 * est.std_error


def test_two_seeds_agree_within_error():
    p = PairPartition.from_string("1-3,2-4")
    a = toeplitz_volume(p, 200_000, 1)
    b = toeplitz_volume(p, 200_000, 2)
    assert abs(a.value - b.value) < 5 * np.hypot(a.std_error, b.std_error)
    assert a.value != b.value  # different streams


def test_same_seed_reproducible():
    p = PairPartition.from_string("1-3,2-5,4-6")
    assert toeplitz_volume(p, 50_000, 11) == toeplitz_volume(p, 50_000, 11)


def test_chunking_invisible_in_results():
    # estimates must not depend on how the sample budget is split internally:
    # a budget straddling several chunks equals the serial stream.
    import corrdiag.volumes as vol

    p = PairPartition.from_string("1-3,2-4")
    big = toeplitz_volume(p, vol._CHUNK + 12_345, 3)
    old = vol._CHUNK
    try:
        vol._CHUNK = (1 << 12) + 1
        small = toeplitz_volume(p, old + 12_345, 3)
    finally:
        vol._CHUNK = old
    assert big.value == small.value


def philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def reference_hits(seed, count, matrix):
    # the plain kernel: every row of the full coefficient matrix, tested per
    # point, on one draw of the whole stream
    values = philox(seed).random((count, matrix.shape[1])) @ matrix.T
    return int(((values >= 0) & (values <= 1)).all(axis=1).sum())


@pytest.mark.parametrize("chunk", [vol._CHUNK, 777])
def test_hits_match_full_matrix_reference(monkeypatch, chunk):
    # 777 points a chunk: four chunks of 3000, none after the first starting on a
    # Philox counter block
    monkeypatch.setattr(vol, "_CHUNK", chunk)
    crossing = [p for p in all_partitions(8) if is_crossing(p)]
    assert len(crossing) == 1 + 10 + 91
    for p in crossing:
        full = solve_partition_system(p).coefficient_matrix()
        rows = _rows_that_can_fail(full)
        expected = reference_hits(5, 3000, full)
        assert toeplitz_volume(p, 3000, 5).value == expected / 3000, p.canonical()
        assert _hits(philox(5), 3000, rows) == expected, p.canonical()
        assert _hits(philox(5), 3000, full) == expected, p.canonical()


def test_rows_that_can_fail_drop_unit_and_repeated_rows():
    # x4 = x0 is a unit row; the remaining row x3 = x0 - x1 + x2 can fail
    full = solve_partition_system(PairPartition.from_string("1-3,2-4")).coefficient_matrix()
    assert _rows_that_can_fail(full).tolist() == [[1.0, -1.0, 1.0]]
    doubled = np.vstack([full, full, np.eye(3)])
    assert _rows_that_can_fail(doubled).tolist() == [[1.0, -1.0, 1.0]]


def test_volume_guard_refuses_huge_k_before_solving(monkeypatch):
    import tracemalloc

    import corrdiag.volumes as vol

    # 1000 blocks, the first two crossing: one 2^18-point chunk would hold
    # about 5 GB of coordinates, constraint values and booleans
    p = PairPartition(2000, ((1, 3), (2, 4), *((i, i + 1) for i in range(5, 2000, 2))))
    called = []
    monkeypatch.setattr(vol, "_hits", lambda *args: called.append(args))
    monkeypatch.setenv("CORRDIAG_THREADS", "1")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="memory guard"):
            toeplitz_volume(p, 10**6, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert called == []
    assert peak < 2**22


def test_sample_guard_refuses_before_solving_or_drawing(monkeypatch):
    called = []
    monkeypatch.setattr(vol, "solve_partition_system", lambda *args: called.append(args))
    monkeypatch.setattr(vol, "_hits", lambda *args: called.append(args))
    with pytest.raises(ValueError, match="samples must be in 1..1000000000"):
        toeplitz_volume(PairPartition.from_string("1-3,2-4"), vol.SAMPLE_GUARD + 1, 0)
    assert called == []


def test_volume_peak_within_guard_estimate(monkeypatch):
    import tracemalloc

    import corrdiag.volumes as vol
    from corrdiag._parallel import check_memory

    # a k=8 partition with the most kept rows (3); 300000 samples make one
    # full chunk and one partial chunk
    estimates = []

    def record(what, per_worker, shared=0, jobs=1):
        estimates.append(per_worker + shared)  # one worker
        check_memory(what, per_worker, shared, jobs)

    monkeypatch.setattr(vol, "check_memory", record)
    monkeypatch.setenv("CORRDIAG_THREADS", "1")
    p = PairPartition.from_string("1-5,2-8,3-6,4-7")
    toeplitz_volume(p, 1000, 1)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        toeplitz_volume(p, 300_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.75 * estimates[-1] <= peak <= estimates[-1], (peak, estimates[-1])


@pytest.mark.parametrize("canonical, hits", [
    ("1-6,2-7,3-8,4-9,5-10", 13363),
    ("1-3,2-5,4-7,6-9,8-10", 10868),
])
def test_k10_hit_counts_pinned(canonical, hits):
    est = toeplitz_volume(PairPartition.from_string(canonical), 40_000, 1)
    assert est.value == hits / 40_000


def _evaluate(coefficients, t):
    return sum(c * t**i for i, c in enumerate(coefficients))


def _crossing(k):
    return [p for p in enumerate_pair_partitions(k) if is_crossing(p)]


def test_exact_volumes_frozen():
    assert exact_volume(PairPartition.from_string("1-3,2-4")) == Fraction(2, 3)
    assert exact_volume(PairPartition.from_string("1-4,2-5,3-6")) == Fraction(1, 2)
    assert exact_volume(PairPartition.from_string("1-2,3-4")) == 1
    # the polytope of 1-3,2-4 holds (t+1)(2t^2+4t+3)/3 lattice points of tP
    p = PairPartition.from_string("1-3,2-4")
    assert lattice_polynomial(p) == (1, Fraction(7, 3), 2, Fraction(2, 3))
    for t in range(8):
        assert lattice_count(p, t) == (t + 1) * (2 * t * t + 4 * t + 3) // 3
        assert type(lattice_count(p, t)) is int
    # at t < 0 the polynomial gives a signed interior count, not a count of tP
    with pytest.raises(ValueError, match="t >= 0"):
        lattice_count(p, -1)


@pytest.mark.parametrize("n,k", [(12, 4), (20, 4), (9, 6), (8, 8), (6, 10)])
def test_lattice_count_matches_a_direct_count_outside_the_fit_window(n, k):
    # the fit reads no count above t = 4 at k <= 10, so at t = n - 1 the
    # evaluated polynomial meets a count it was not built from, for the
    # non-crossing partitions (no rows that can fail) too
    for p in enumerate_pair_partitions(k):
        rows = _rows_that_can_fail(solve_partition_system(p).coefficient_matrix()).astype(np.int64)
        assert lattice_count(p, n - 1) == _lattice_counts(rows, [(n - 1, 0)])[0], p.canonical()


def _brute_counts(full, sizes):
    """Points f of {inset..t-inset}^d with inset <= full @ f <= t - inset."""
    return [sum(1 for f in itertools.product(range(inset, t + 1 - inset), repeat=full.shape[1])
                if ((full @ f >= inset) & (full @ f <= t - inset)).all())
            for t, inset in sizes]


def test_lattice_counts_match_brute_force():
    # inset 0 counts the closed polytope, inset 1 its interior
    sizes = [(t, inset) for inset in (0, 1) for t in range(5)]
    for p in _crossing(4) + _crossing(6):
        full = np.array([coeffs for _, coeffs in solve_partition_system(p).determined])
        rows = _rows_that_can_fail(full).astype(np.int64)
        assert _lattice_counts(rows, sizes) == _brute_counts(full, sizes), p.canonical()


def test_lattice_counts_with_wider_coefficients_match_brute_force():
    # no partition up to k = 10 has a coefficient outside {-1, 0, 1}; column 0,
    # solved here, has coefficients 2, -3 and 2, and the last row skips it
    rows = np.array([[2, 1, 0], [-3, 1, 1], [2, 0, -1], [0, 1, -1]])
    sizes = [(t, inset) for inset in (0, 1) for t in range(7)]
    assert _lattice_counts(rows, sizes) == _brute_counts(rows, sizes)


def _orbits(max_k):
    return [PairPartition.from_string(key)
            for key in dict.fromkeys(_orbit_key(p) for k in range(4, max_k + 1, 2)
                                     for p in _crossing(k))]


def test_determined_rows_are_totally_unimodular():
    # Every square minor of every orbit's determined rows is 0 or +-1.  With
    # the unit rows of the free variables the volume's polytope then has
    # integer vertices, the premise of Ehrhart's theorem and of reciprocity.
    orbits = _orbits(10)
    assert len(orbits) == 91
    for k in (4, 6, 8, 10):
        matrices = np.array([solve_partition_system(p).coefficient_matrix()
                             for p in orbits if p.k == k])
        height, width = matrices.shape[1:]
        minors = 0
        for size in range(1, height + 1):
            picked = matrices[:, list(itertools.combinations(range(height), size))]
            picked = picked[..., list(itertools.combinations(range(width), size))]
            dets = np.linalg.det(np.moveaxis(picked, 2, -2))
            assert np.all(np.abs(dets - np.rint(dets)) < 1e-9), k
            assert np.isin(np.rint(dets), (-1, 0, 1)).all(), k
            minors += dets[0].size
        assert minors == {4: 9, 6: 34, 8: 125, 10: 461}[k]


def test_reciprocity_fit_equals_the_closed_count_fit():
    # the fit before reciprocity: closed counts at t = 0..d+2, fitted from t = 0
    for p in _orbits(10):
        degree = p.k // 2 + 1
        rows = _rows_that_can_fail(solve_partition_system(p).coefficient_matrix()).astype(np.int64)
        counts = _lattice_counts(rows, [(t, 0) for t in range(degree + 3)])
        old = _fit_polynomial(counts[:degree + 1], 0)
        assert [_evaluate(old, t) for t in range(degree + 3)] == counts, p.canonical()
        assert lattice_polynomial(p) == old, p.canonical()


def test_lattice_polynomial_is_invariant_on_dihedral_orbits():
    for k in (4, 6, 8):
        for p in enumerate_pair_partitions(k):
            assert lattice_polynomial(p) == lattice_polynomial(
                PairPartition.from_string(_orbit_key(p))), p.canonical()
    orbits = defaultdict(list)
    for p in _crossing(10):
        orbits[_orbit_key(p)].append(p)
    assert len(orbits) == 73
    # one orbit, 1-6,2-7,3-8,4-9,5-10, is its only member
    for key, members in orbits.items():
        other = next((p for p in members if p.canonical() != key), None)
        if other is None:
            assert members == [PairPartition.from_string("1-6,2-7,3-8,4-9,5-10")]
            continue
        assert lattice_polynomial(other)[-1] == exact_volume(other), other.canonical()


def test_orbit_key_is_shared_by_rotations_and_the_reflection():
    p = PairPartition.from_string("1-3,2-6,4-7,5-8")
    k = p.k
    rotated = PairPartition.from_string(",".join(f"{a % k + 1}-{b % k + 1}" for a, b in p.blocks))
    reflected = PairPartition.from_string(",".join(f"{k + 1 - a}-{k + 1 - b}" for a, b in p.blocks))
    assert _orbit_key(p) == _orbit_key(rotated) == _orbit_key(reflected)
    assert _orbit_key(p) != _orbit_key(PairPartition.from_string("1-3,2-4,5-7,6-8"))


# the odd cycle: its determinant is 2, so it is not totally unimodular
ODD_CYCLE = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


def _minors_unimodular(matrix):
    height, width = matrix.shape
    return all(round(np.linalg.det(matrix[np.ix_(r, c)])) in (-1, 0, 1)
               for size in range(1, min(height, width) + 1)
               for r in itertools.combinations(range(height), size)
               for c in itertools.combinations(range(width), size))


def test_totally_unimodular_flags_the_odd_cycle_and_wide_entries():
    assert not _totally_unimodular(ODD_CYCLE)
    assert not _totally_unimodular(np.array([[1, 2, 0], [0, 1, 1]]))
    assert _totally_unimodular(np.array([[1, 1, 0], [0, 1, 1]]))
    assert _totally_unimodular(np.zeros((0, 4), dtype=np.int64))


def test_totally_unimodular_agrees_with_the_minor_test_on_random_matrices():
    rng = np.random.default_rng(5)
    verdicts = []
    for _ in range(300):
        matrix = rng.integers(-1, 2, size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
        verdicts.append(_totally_unimodular(matrix))
        assert verdicts[-1] == _minors_unimodular(matrix), matrix.tolist()
    assert 50 < sum(verdicts) < 250  # both verdicts are exercised


def test_every_orbit_through_k12_is_certified_totally_unimodular():
    orbits = _orbits(12)
    assert len(orbits) == 91 + 542
    for p in orbits:
        rows = _rows_that_can_fail(solve_partition_system(p).coefficient_matrix()).astype(np.int64)
        assert _totally_unimodular(rows), p.canonical()
        if p.k <= 10:
            assert _minors_unimodular(rows), p.canonical()


def test_lattice_polynomial_refuses_rows_that_are_not_totally_unimodular(monkeypatch):
    monkeypatch.setattr(vol, "_rows_that_can_fail", lambda matrix: ODD_CYCLE.astype(matrix.dtype))
    with pytest.raises(ArithmeticError, match=re.escape("1-3,2-4")):
        lattice_polynomial(PairPartition.from_string("1-3,2-4"))


@pytest.mark.parametrize("canonical", ["1-6,2-7,3-8,4-9,5-10", "1-7,2-8,3-9,4-10,5-11,6-12"])
def test_lattice_count_peak_within_guard_estimate(monkeypatch, canonical):
    import tracemalloc

    from corrdiag._parallel import check_memory

    estimates = []

    def record(what, per_worker, shared=0, jobs=1):
        estimates.append(per_worker + shared)
        check_memory(what, per_worker, shared, jobs)

    monkeypatch.setattr(vol, "check_memory", record)
    p = PairPartition.from_string(canonical)
    lattice_polynomial(p)  # first-call allocations out of the way
    vol._grid.cache_clear()  # the grid is counted: build it under the trace
    tracemalloc.start()
    try:
        lattice_polynomial(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.7 * estimates[-1] <= peak <= estimates[-1], (peak, estimates[-1])


def test_monte_carlo_volumes_agree_with_exact():
    for index, p in enumerate(_crossing(4) + _crossing(6)):
        est = toeplitz_volume(p, 50_000, index)
        assert abs(est.value - float(exact_volume(p))) < 4 * est.std_error, p.canonical()


def test_cache_roundtrip(tmp_path):
    cache = VolumeCache()
    p = PairPartition.from_string("1-3,2-4")
    est = cache.ensure(p, 50_000, 9)
    path = tmp_path / "volumes.txt"
    cache.save(path, ("corrdiag test", "config: none"))
    text = path.read_text()
    assert text.startswith("# corrdiag test")

    # matching (samples, seed) serves the stored record: hand-edit its value
    # and the reloaded cache must return the edit, not a recomputation
    edited = dataclasses.replace(est, value=0.5)
    key = p.canonical()
    path.write_text(text.replace(VolumeCache.format_line(key, est),
                                 VolumeCache.format_line(key, edited)))
    reloaded = VolumeCache(path)
    assert reloaded.ensure(p, 50_000, 9) == edited
    # ... anything else recomputes rather than serving a stale record
    fresh = reloaded.ensure(p, 50_000, 8)
    assert fresh.seed == 8 and fresh != est


def test_cache_ensure_reuses_without_resampling(tmp_path):
    cache = VolumeCache()
    p = PairPartition.from_string("1-3,2-4")
    first = cache.ensure(p, 10_000, 4)
    second = cache.ensure(p, 10_000, 4)
    assert first is second


# a fixed sample of k = 14 orbits, drawn once as random pairings; m14's full
# fit (5256 orbits) takes about 40 seconds, these about half a second
K14_SAMPLE = (
    "1-8,2-10,3-7,4-9,5-6,11-12,13-14", "1-4,2-12,3-6,5-8,7-11,9-14,10-13",
    "1-6,2-4,3-9,5-14,7-8,10-13,11-12", "1-6,2-11,3-14,4-5,7-12,8-10,9-13",
    "1-6,2-10,3-7,4-5,8-12,9-11,13-14", "1-9,2-14,3-8,4-6,5-13,7-10,11-12",
    "1-10,2-5,3-11,4-6,7-8,9-14,12-13", "1-6,2-14,3-12,4-7,5-8,9-11,10-13",
    "1-12,2-10,3-8,4-9,5-11,6-14,7-13", "1-11,2-5,3-6,4-10,7-14,8-9,12-13",
    "1-2,3-11,4-7,5-13,6-12,8-14,9-10", "1-12,2-13,3-5,4-10,6-11,7-8,9-14",
)


def test_k14_exact_volumes_agree_with_monte_carlo():
    for index, canonical in enumerate(K14_SAMPLE):
        p = PairPartition.from_string(canonical)
        est = toeplitz_volume(p, 200_000, index)
        assert abs(est.value - float(exact_volume(p))) < 4 * est.std_error, canonical


def test_format_line_roundtrips_17g():
    est = VolumeEstimate(2.0 / 3.0 + 1e-13, 0.000471, 10**6, 42, False)
    line = VolumeCache.format_line("1-3,2-4", est)
    key, back = VolumeCache.parse_line(line)
    assert key == "1-3,2-4"
    assert back == est

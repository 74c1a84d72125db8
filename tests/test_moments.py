"""Limiting moments of the interpolating spectral law: exact at every order
up to EXACT_MAX_K."""

import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from corrdiag import volumes
from corrdiag.cli import main
from corrdiag.moments import (
    EXACT_MAX_K,
    _orbit_walk,
    catalan,
    closed_form_moments,
    exact_moment_polynomial,
    limiting_moment,
)
from corrdiag.partitions import PairPartition, _dihedral_images, enumerate_pair_partitions, height
from corrdiag.sampler import Equicorrelated
from corrdiag.volumes import DEFAULT_SAMPLES, exact_volume, toeplitz_volume

# sixth moment at full correlation, frozen from the exact per-partition table:
# five volume-one terms + six weight-one terms of volume 2/3 + four of volume 1/2
M6_FULL_CORRELATION = 11.0
M4_FULL_CORRELATION = 8.0 / 3.0

# m4 ... m12 as polynomials in c, constant first, from the exact volumes
EXACT_POLYNOMIALS = {
    4: (2, 0, Fraction(2, 3)),
    6: (5, 0, 4, 2),
    8: (14, 0, Fraction(56, 3), 16, Fraction(178, 15)),
    10: (42, 0, 80, 90, Fraction(1088, 9), Fraction(739, 9)),
    12: (132, 0, 330, 440, Fraction(12188, 15), Fraction(3004, 3), Fraction(72434, 105)),
}


def test_catalan_small_values():
    assert [catalan(m) for m in range(7)] == [1, 1, 2, 5, 14, 42, 132]


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_second_moment_is_one_for_all_c(c):
    assert limiting_moment(2, c) == 1.0


def test_odd_moments_vanish():
    for k in (1, 3, 5, 7, 9, 11):
        assert limiting_moment(k, 0.7) == 0.0


def test_uncorrelated_moments_are_catalan():
    for k in range(2, 13, 2):
        assert limiting_moment(k, 0.0) == float(catalan(k // 2))


def test_sixth_moment_full_correlation():
    assert limiting_moment(6, 1.0) == M6_FULL_CORRELATION


def test_fourth_moment_full_correlation():
    assert limiting_moment(4, 1.0) == M4_FULL_CORRELATION


def test_moments_increase_with_correlation():
    # order 14 takes 45-55 seconds to fit at one thread, so the computed orders stop at 12
    for k in range(4, 13, 2):
        values = [limiting_moment(k, c) for c in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(set(values)), k


def test_exact_moment_polynomials_pinned():
    assert EXACT_MAX_K == 14
    for k, coefficients in EXACT_POLYNOMIALS.items():
        assert exact_moment_polynomial(k) == tuple(map(Fraction, coefficients))


def test_exact_moments_round_once_with_zero_error():
    # the moments CSV writes standard error 0 for every row
    for k in (2, *EXACT_POLYNOMIALS):
        for c in (0.0, 0.1, 0.25, 0.5, 1 / 3, 0.9168, 1.0):
            exact = sum(a * Fraction(c) ** j for j, a in enumerate(exact_moment_polynomial(k)))
            assert limiting_moment(k, c) == float(exact), (k, c)
    assert limiting_moment(10, 1.0) == 415.0


def test_exact_fourth_moment_within_one_ulp_of_closed_form():
    for c in (0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 1.0):
        target = closed_form_moments(Equicorrelated(c))[4]
        assert abs(limiting_moment(4, c) - target) <= math.ulp(target)


def test_nonpositive_sample_budget_rejected(capsys):
    # only Monte Carlo volumes take a sample budget
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples"):
            toeplitz_volume(PairPartition.from_string("1-3,2-4"), samples, 0)
    assert main(["volume", "1-3,2-4", "--samples", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_even_orders_above_the_exact_range_rejected(capsys):
    with pytest.raises(ValueError, match="exact range"):
        limiting_moment(16, 0.5)
    assert limiting_moment(17, 0.5) == 0.0
    assert main(["moments", "--k", "16"]) == 2
    assert "--k" in capsys.readouterr().err


def test_out_of_range_correlation_warns():
    with pytest.warns(UserWarning):
        limiting_moment(4, 1.5)


def test_non_finite_correlation_rejected(capsys):
    for c in (math.nan, math.inf):
        for k in (3, 4, 12):
            with pytest.raises(ValueError, match="finite"):
                limiting_moment(k, c)
    assert main(["moments", "--k", "4", "--c", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


def test_default_sample_budget_sane():
    assert DEFAULT_SAMPLES >= 10_000


def test_orbit_walk_partitions_the_pairings():
    for k in range(2, 13, 2):
        pairings = [p.partner for p in enumerate_pair_partitions(k)]
        met, tallied = Counter(), 0
        for members, tally in _orbit_walk(k):
            assert (2 * k) % len(members) == 0
            assert sum(tally) == len(members)
            some = next(iter(members))
            assert set(_dihedral_images(some)) == members
            met.update(members)
            tallied += sum(tally)
        assert tallied == len(pairings) == math.prod(range(1, k, 2))
        assert set(met) == set(pairings) and set(met.values()) == {1}, k


def test_exact_moment_polynomial_equals_the_per_pairing_sum():
    for k in range(2, 11, 2):
        plain = [Fraction(0)] * (k // 2 + 1)
        for p in enumerate_pair_partitions(k):
            plain[k // 2 - height(p)] += exact_volume(p)
        assert exact_moment_polynomial(k) == tuple(plain), k


def test_exact_moment_polynomial_identical_across_thread_counts(monkeypatch):
    # the orbit fits run in parallel_map shares; Fraction sums are exact.  The
    # 14 crossing orbits of k = 8 make shares of 5, 5 and 4 on 3 threads
    results = []
    for threads, orders in (("1", range(2, 11, 2)), ("2", range(2, 11, 2)), ("3", [8])):
        monkeypatch.setenv("CORRDIAG_THREADS", threads)
        exact_moment_polynomial.cache_clear()
        volumes._orbit_polynomial.cache_clear()
        results.append({k: exact_moment_polynomial(k) for k in orders})
    assert results[0] == results[1]
    assert results[2][8] == results[0][8]


def test_orbit_fits_on_more_threads_than_cores_build_one_grid(monkeypatch):
    # workers share the fitted-orbit cache and the counting grid; a grid built
    # twice would show as a second cache miss
    monkeypatch.setenv("CORRDIAG_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        exact_moment_polynomial.cache_clear()
        volumes._orbit_polynomial.cache_clear()
        volumes._grid.cache_clear()
        assert exact_moment_polynomial(10) == tuple(map(Fraction, EXACT_POLYNOMIALS[10]))
    finally:
        sys.setswitchinterval(interval)
    assert volumes._grid.cache_info().misses == 1

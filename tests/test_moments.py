"""Limiting moments of the interpolating spectral law.

Orders up to EXACT_MAX_K are exact.  Tests that take the ``monte_carlo``
fixture lower EXACT_MAX_K so that every order runs the Monte Carlo branch
used above it.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from corrdiag import moments
from corrdiag.cli import main
from corrdiag.moments import (
    DEFAULT_SAMPLES,
    EXACT_MAX_K,
    MomentValue,
    catalan,
    closed_form_moments,
    exact_moment_polynomial,
    limiting_moment,
)
from corrdiag.sampler import Equicorrelated
from corrdiag.volumes import VolumeCache

# sixth moment at full correlation, frozen from the exact per-partition table:
# five volume-one terms + six weight-one terms of volume 2/3 + four of volume 1/2
M6_FULL_CORRELATION = 11.0
M4_FULL_CORRELATION = 8.0 / 3.0

# m4 ... m10 as polynomials in c, constant first, from the exact volumes
EXACT_POLYNOMIALS = {
    4: (2, 0, Fraction(2, 3)),
    6: (5, 0, 4, 2),
    8: (14, 0, Fraction(56, 3), 16, Fraction(178, 15)),
    10: (42, 0, 80, 90, Fraction(1088, 9), Fraction(739, 9)),
}


@pytest.fixture
def monte_carlo(monkeypatch):
    monkeypatch.setattr(moments, "EXACT_MAX_K", 0)


def test_catalan_small_values():
    assert [catalan(m) for m in range(7)] == [1, 1, 2, 5, 14, 42, 132]


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_second_moment_is_one_for_all_c(c):
    m = limiting_moment(2, c, VolumeCache(), samples=10, seed=0)
    assert m.value == 1.0 and m.std_error == 0.0


def test_odd_moments_vanish():
    cache = VolumeCache()
    for k in (1, 3, 5, 7, 9, 11):
        assert limiting_moment(k, 0.7, cache, samples=10, seed=0).value == 0.0


def test_uncorrelated_moments_are_catalan():
    cache = VolumeCache()
    for k in range(2, 13, 2):
        m = limiting_moment(k, 0.0, cache, samples=10, seed=0)
        assert m.value == float(catalan(k // 2))
        assert m.std_error == 0.0


def test_fourth_moment_closed_form(monte_carlo):
    cache = VolumeCache()
    for c in (0.25, 0.5, 0.75, 1.0):
        m = limiting_moment(4, c, cache, samples=400_000, seed=5)
        target = 2.0 + (2.0 / 3.0) * c * c
        assert abs(m.value - target) < 4 * m.std_error
        assert m.std_error > 0


def test_fourth_moment_error_propagation(monte_carlo):
    cache = VolumeCache()
    m_half = limiting_moment(4, 0.5, cache, samples=400_000, seed=5)
    m_full = limiting_moment(4, 1.0, cache, samples=400_000, seed=5)
    # single crossing partition: SE scales exactly with the weight c^2
    assert m_half.std_error == pytest.approx(0.25 * m_full.std_error, rel=1e-12)


def test_sixth_moment_full_correlation(monte_carlo):
    cache = VolumeCache()
    m = limiting_moment(6, 1.0, cache, samples=400_000, seed=5)
    assert abs(m.value - M6_FULL_CORRELATION) < 5 * m.std_error


def test_fourth_moment_full_correlation(monte_carlo):
    cache = VolumeCache()
    m = limiting_moment(4, 1.0, cache, samples=400_000, seed=5)
    assert abs(m.value - M4_FULL_CORRELATION) < 4 * m.std_error


def test_moments_increase_with_correlation(monte_carlo):
    cache = VolumeCache()
    values = [
        limiting_moment(6, c, cache, samples=200_000, seed=3).value
        for c in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert values == sorted(values)


def test_exact_moment_polynomials_pinned():
    assert EXACT_MAX_K == 10
    for k, coefficients in EXACT_POLYNOMIALS.items():
        assert exact_moment_polynomial(k) == tuple(map(Fraction, coefficients))


def test_exact_moments_round_once_with_zero_error():
    for k in range(2, EXACT_MAX_K + 1, 2):
        for c in (0.0, 0.1, 0.25, 0.5, 1 / 3, 0.9168, 1.0):
            exact = sum(a * Fraction(c) ** j for j, a in enumerate(exact_moment_polynomial(k)))
            m = limiting_moment(k, c, samples=10, seed=0)
            assert m.value == float(exact) and m.std_error == 0.0, (k, c)
    assert limiting_moment(10, 1.0).value == 415.0


def test_exact_fourth_moment_within_one_ulp_of_closed_form():
    for c in (0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 1.0):
        target, _ = closed_form_moments(Equicorrelated(c))[4]
        assert abs(limiting_moment(4, c).value - target) <= math.ulp(target)


def test_exact_moments_ignore_the_sample_budget_and_seed():
    cache = VolumeCache()
    first = limiting_moment(8, 0.5, cache, samples=10, seed=1)
    assert limiting_moment(8, 0.5, cache, samples=400_000, seed=7) == first
    assert cache._entries == {}


def test_monte_carlo_moments_agree_with_exact(monkeypatch):
    exact = [limiting_moment(k, c) for k in (4, 6) for c in (0.5, 1.0)]
    monkeypatch.setattr(moments, "EXACT_MAX_K", 0)
    cache = VolumeCache()
    for m in exact:
        sampled = limiting_moment(m.k, m.c, cache, samples=100_000, seed=5)
        assert abs(sampled.value - m.value) < 4 * sampled.std_error, m


def test_nonpositive_sample_budget_rejected(capsys):
    # rejected before any partition is visited, so even exact orders
    # (k=2, c=0, odd k) refuse a budget that toeplitz_volume would refuse
    for samples in (0, -5):
        for k, c in ((2, 0.5), (4, 0.0), (3, 0.5)):
            with pytest.raises(ValueError, match="samples"):
                limiting_moment(k, c, VolumeCache(), samples=samples, seed=0)
    assert main(["moments", "--k", "2", "--samples", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_out_of_range_correlation_warns():
    with pytest.warns(UserWarning):
        limiting_moment(4, 1.5, VolumeCache(), samples=1000, seed=0)


def test_non_finite_correlation_rejected(capsys):
    for c in (math.nan, math.inf):
        for k in (3, 4, 12):
            with pytest.raises(ValueError, match="finite"):
                limiting_moment(k, c, samples=10)
    assert main(["moments", "--k", "4", "--c", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


def test_moment_value_is_frozen():
    m = MomentValue(4, 0.5, 2.1, 0.001)
    with pytest.raises(AttributeError):
        m.value = 3.0


def test_default_sample_budget_sane():
    assert DEFAULT_SAMPLES >= 10_000

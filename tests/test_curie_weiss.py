"""Curie-Weiss spin statistics: exact finite-n laws and the limit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrdiag.curie_weiss import (
    limiting_correlation,
    magnetization_levels,
    pair_correlation,
    sample_spins,
    spontaneous_magnetization,
)
from corrdiag.sampler import CurieWeiss

# frozen from a high-precision fixed-point solve of m = tanh(2m)
M_BETA2 = 0.9575040240772687
C_BETA2 = 0.9168139561241628

BETAS = st.floats(min_value=0.05, max_value=4.0, allow_nan=False)


def two_spin_pair_correlation(beta: float) -> float:
    # independent oracle: enumerate the four configurations directly
    weights = {}
    for s1 in (-1, 1):
        for s2 in (-1, 1):
            weights[(s1, s2)] = math.exp(beta * (s1 + s2) ** 2 / 4.0)
    z = sum(weights.values())
    return sum(w * s1 * s2 for (s1, s2), w in weights.items()) / z


@given(BETAS)
def test_two_spin_identity(beta):
    assert pair_correlation(2, beta) == pytest.approx(math.tanh(beta / 2.0), abs=1e-12)
    assert pair_correlation(2, beta) == pytest.approx(two_spin_pair_correlation(beta), abs=1e-12)


def test_levels_normalized_and_symmetric():
    law = magnetization_levels(31, 1.7)
    assert law.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(law.probs >= 0)
    # spin-flip symmetry: P(S = t) = P(S = -t)
    assert law.probs == pytest.approx(law.probs[::-1], abs=1e-14)
    assert law.totals[0] == -31 and law.totals[-1] == 31


def test_pair_correlation_positive_and_below_one():
    for beta in (0.2, 1.0, 2.5):
        for n in (2, 5, 50):
            c = pair_correlation(n, beta)
            assert 0.0 < c < 1.0


def test_pair_correlation_needs_two_spins():
    with pytest.raises(ValueError, match="at least two spins"):
        pair_correlation(1, 1.0)


def test_spontaneous_magnetization_frozen_value():
    assert spontaneous_magnetization(2.0) == pytest.approx(M_BETA2, abs=1e-12)
    assert limiting_correlation(2.0) == pytest.approx(C_BETA2, abs=1e-12)


def test_no_magnetization_up_to_critical_point():
    for beta in (0.1, 0.5, 0.9, 1.0):
        assert spontaneous_magnetization(beta) == 0.0
        assert limiting_correlation(beta) == 0.0


@given(st.floats(min_value=1.001, max_value=6.0, allow_nan=False))
@settings(max_examples=30)
def test_fixed_point_solves_tanh_equation(beta):
    m = spontaneous_magnetization(beta)
    assert m > 0.0
    assert m == pytest.approx(math.tanh(beta * m), abs=1e-10)


@pytest.mark.parametrize("beta", [1.001, 1.5, 2.0, 5.0, 50.0])
def test_magnetization_brackets_root_to_one_ulp(beta):
    def excess(m):
        return math.tanh(beta * m) - m

    m = spontaneous_magnetization(beta)
    assert excess(math.nextafter(m, 0.0)) > 0.0 >= excess(m)


def test_magnetization_increases_with_coupling():
    betas = (1.1, 1.5, 2.0, 3.0, 5.0)
    ms = [spontaneous_magnetization(b) for b in betas]
    assert ms == sorted(ms)
    assert ms[-1] < 1.0


def test_finite_size_correlation_approaches_limit():
    gaps = [abs(pair_correlation(n, 2.0) - C_BETA2) for n in (100, 200, 400, 800, 1600)]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05


def test_sampled_spins_match_exact_law():
    n, beta, draws = 40, 1.5, 4000
    rng = np.random.default_rng(123)
    totals = np.array([sample_spins(n, beta, rng).sum() for _ in range(draws)])
    assert set(np.unique(totals % 2)) == {0}  # parity of n
    law = magnetization_levels(n, beta)
    exact_m2 = float((law.probs * law.totals.astype(float) ** 2).sum())
    sample_m2 = float((totals.astype(float) ** 2).mean())
    se = np.std(totals.astype(float) ** 2, ddof=1) / math.sqrt(draws)
    assert abs(sample_m2 - exact_m2) < 4 * se


def test_sample_spins_values_and_shape():
    rng = np.random.default_rng(0)
    s = sample_spins(17, 0.8, rng)
    assert s.shape == (17,)
    assert s.dtype == np.float64
    assert set(np.unique(np.abs(s))) == {1.0}


def test_sample_spins_reproducible_from_seed():
    a = sample_spins(25, 2.0, np.random.default_rng(7))
    b = sample_spins(25, 2.0, np.random.default_rng(7))
    assert np.array_equal(a, b)


def _scipy_levels(n, beta):
    from scipy.special import gammaln, logsumexp

    j = np.arange(n + 1)
    totals = 2 * j - n
    log_weights = (gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1)
                   + beta * (totals.astype(np.float64) ** 2 - float(n) ** 2) / (2.0 * n))
    log_weights -= logsumexp(log_weights)
    return np.exp(log_weights)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_level_law_bytes_equal_scipy_logsumexp(beta):
    # the law is symmetric, so its most likely level often has a twin of
    # exactly the same log weight: logsumexp then sets both apart
    ties = 0
    for n in [*range(1, 120), 499, 500, 999, 1000]:
        probs = magnetization_levels(n, beta).probs
        assert probs.tobytes() == _scipy_levels(n, beta).tobytes(), n
        ties += np.count_nonzero(probs == probs.max()) > 1
    assert ties >= 10


def test_pair_correlation_of_two_spins_at_huge_beta():
    assert pair_correlation(2, 1e17) == 1.0


@pytest.mark.parametrize("beta", [1e4, 1e14, 1e308])
@pytest.mark.parametrize("n", [2, 1000, 100_000])
def test_level_law_sums_to_one_at_huge_beta(n, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = magnetization_levels(n, beta).probs
    assert abs(probs.sum() - 1.0) <= 1e-12


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        magnetization_levels(0, 1.0)
    with pytest.raises(ValueError):
        magnetization_levels(10, -0.5)
    with pytest.raises(ValueError):
        spontaneous_magnetization(-1.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_rejects_a_non_finite_beta(beta):
    for call in (lambda: CurieWeiss(beta), lambda: magnetization_levels(10, beta),
                 lambda: pair_correlation(10, beta), lambda: spontaneous_magnetization(beta),
                 lambda: limiting_correlation(beta),
                 lambda: sample_spins(10, beta, np.random.default_rng(0))):
        with pytest.raises(ValueError, match="finite and > 0"):
            call()

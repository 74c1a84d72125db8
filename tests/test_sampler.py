"""Diagonal generators and matrix assembly."""

import numpy as np
import pytest

from corrdiag.curie_weiss import pair_correlation
from corrdiag.sampler import (
    CurieWeiss,
    Equicorrelated,
    Independent,
    Toeplitz,
    build_matrix,
    child_seed,
    diagonal_rng,
    sample_diagonal,
    validate_conditions,
)

GENERATORS = [Independent(), Equicorrelated(0.5), CurieWeiss(2.0), Toeplitz()]


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: type(g).__name__)
def test_matrix_is_symmetric_with_unit_scale(gen):
    n = 60
    m = build_matrix(n, gen, realization=0, seed=3)
    assert m.shape == (n, n)
    assert np.array_equal(m, m.T)
    assert np.isfinite(m).all()
    # entries were divided by sqrt(n): second moment of entries is O(1/n)
    assert 0.2 / n < np.mean(m**2) < 5.0 / n


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: type(g).__name__)
def test_matrix_reproducible_and_seed_sensitive(gen):
    a = build_matrix(40, gen, realization=2, seed=9)
    b = build_matrix(40, gen, realization=2, seed=9)
    c = build_matrix(40, gen, realization=3, seed=9)
    d = build_matrix(40, gen, realization=2, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_diagonals_are_internally_constant_for_full_correlation():
    n = 30
    m = build_matrix(n, Toeplitz(), realization=0, seed=1) * np.sqrt(n)
    for offset in range(1, n):
        diag = np.diagonal(m, offset)
        assert np.allclose(diag, diag[0], atol=1e-12)


def test_independent_diagonal_not_constant():
    m = build_matrix(30, Independent(), realization=0, seed=1)
    diag = np.diagonal(m, 1)
    assert np.std(diag) > 0


def test_distinct_diagonals_use_distinct_streams():
    rng_a = diagonal_rng(5, 0, 1)
    rng_b = diagonal_rng(5, 0, 2)
    assert not np.array_equal(rng_a.random(8), rng_b.random(8))


def test_sample_diagonal_lengths():
    rng = np.random.default_rng(0)
    for gen in GENERATORS:
        x = sample_diagonal(gen, 17, rng)
        assert x.shape == (17,)
        assert np.isfinite(x).all()


def test_equicorrelated_validates_range():
    with pytest.raises(ValueError):
        Equicorrelated(-0.1)
    with pytest.raises(ValueError):
        Equicorrelated(1.5)
    with pytest.raises(ValueError):
        CurieWeiss(0.0)


def test_validate_conditions_pass_for_all_generators():
    for gen in GENERATORS:
        report = validate_conditions(gen, 8, draws=4000, seed=2)
        assert report["all_ok"], report


def test_validate_conditions_targets():
    report = validate_conditions(Equicorrelated(0.7), 8, draws=2000, seed=0)
    assert report["cov_same_target"] == pytest.approx(0.7)
    # spins: same-diagonal correlation at finite length is the exact two-point value
    report = validate_conditions(CurieWeiss(1.2), 8, draws=2000, seed=0)
    assert report["cov_same_target"] == pytest.approx(pair_correlation(8, 1.2))
    report = validate_conditions(Toeplitz(), 8, draws=2000, seed=0)
    assert report["cov_same_target"] == pytest.approx(1.0)


def test_validate_conditions_rejects_tiny_runs():
    with pytest.raises(ValueError):
        validate_conditions(Independent(), 8, draws=10)
    with pytest.raises(ValueError):
        validate_conditions(Independent(), 2, draws=2000)


def test_gaussian_tails_present():
    # inversion sampling must reach past |x| = 3 on a large draw
    m = build_matrix(300, Independent(), realization=0, seed=4) * np.sqrt(300)
    assert np.abs(m).max() > 3.0
    assert np.abs(m).max() < 8.0


def test_child_seed_distinct_and_pinned():
    seeds = {child_seed(5, k, i) for k in (2, 4, 6) for i in range(10)}
    assert len(seeds) == 30
    # the documented layout: first 64-bit word of SeedSequence(seed, spawn_key=key)
    assert child_seed(5, 4, 1) == 2192821385777484778
    assert child_seed(1729, 7, 100) == 712944754390216424
    assert child_seed(3, 50) == 4522566153492081178

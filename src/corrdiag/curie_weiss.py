"""Curie-Weiss spin systems: exact sampling, finite-size pair correlation,
and the limiting correlation across the phase transition.

The model puts weight exp(beta * (sum of spins)^2 / (2n)) on each of the 2^n
sign vectors.  Everything here works through the law of the total spin
S = 2j - n, whose level weights binom(n, j) * exp(beta * (S^2 - n^2) / (2n))
are handled in log-domain (the exponent grows like beta*n/2 and overflows
naive exponentials).

The limiting pair correlation is 0 up to beta = 1 and m(beta)^2 beyond it,
where m(beta) is the unique positive root of m = tanh(beta*m), found by
bisection down to adjacent doubles.  That consistency equation is a
standard mean-field reconstruction: it reproduces the threshold at
beta = 1, monotonicity in beta, and the limits 0 and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_SPINS = 100_000


def check_beta(beta: float) -> None:
    """Reject an inverse temperature that is not finite and > 0 (NaN included)."""
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"inverse temperature must be finite and > 0, got {beta}")


def _check_params(n: int, beta: float) -> None:
    if n < 1:
        raise ValueError(f"spin count must be >= 1, got {n}")
    if n > MAX_SPINS:
        raise ValueError(f"spin count {n} exceeds the O(n) summation cap {MAX_SPINS}")
    check_beta(beta)


@dataclass(frozen=True, eq=False)
class MagnetizationLaw:
    """Distribution of the total spin: levels s = 2j - n with probabilities."""

    n: int
    beta: float
    totals: np.ndarray
    probs: np.ndarray


def magnetization_levels(n: int, beta: float) -> MagnetizationLaw:
    # imported here: scipy.special costs about 0.3 s and 24 MB, and only the level law uses it
    from scipy.special import gammaln

    _check_params(n, beta)
    j = np.arange(n + 1)
    totals = 2 * j - n
    log_factorials = gammaln(j + 1)
    # shifted by its value at S = +-n: unshifted, every log weight carries
    # beta*n/2 and so its rounding, which swamps the law at large beta.  A
    # weight that overflows to -inf is a zero.
    with np.errstate(over="ignore"):
        quadratic = beta * (totals.astype(np.float64) ** 2 - float(n) ** 2) / (2.0 * n)
    log_weights = log_factorials[n] - log_factorials - log_factorials[::-1] + quadratic
    # the log of the weights' sum in scipy.special.logsumexp's own steps (scipy
    # 1.17): the largest terms apart, log1p of the others relative to them
    top = log_weights.max()
    largest = log_weights == top
    others = np.exp(log_weights - top)
    others[largest] = 0.0
    ties = float(np.count_nonzero(largest))
    log_weights -= np.log1p(others.sum() / ties) + np.log(ties) + top
    return MagnetizationLaw(n, float(beta), totals, np.exp(log_weights))


@lru_cache(maxsize=None)
def _level_cdf(n: int, beta: float) -> np.ndarray:
    """Cumulative level probabilities of the total spin, for sampling.

    One CDF of n + 1 doubles is kept per (n, beta) asked for, for the life of
    the process: building a size-n matrix stores lengths 1..n, about n^2/2
    doubles per beta (3.8 MB at n = 1000), which the memory guard counts
    (`sampler._kept_bytes`).
    """
    probs = magnetization_levels(n, beta).probs
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return cdf


def pair_correlation(n: int, beta: float) -> float:
    """Exact correlation of two distinct spins at size n.

    E[x_1 x_2] = (n * E[(S/n)^2] - 1) / (n - 1), computed from the
    magnetization law.
    """
    if n < 2:
        raise ValueError("pairwise correlation needs at least two spins")
    law = magnetization_levels(n, beta)
    mean_square = float(np.sum(law.probs * (law.totals / n) ** 2))
    return (n * mean_square - 1.0) / (n - 1.0)


def spontaneous_magnetization(beta: float) -> float:
    """Positive root of m = tanh(beta*m) for beta > 1, else 0.

    Bisection on (0, 1]: a midpoint with tanh(beta*mid) > mid becomes lo,
    any other becomes hi, until lo and hi are adjacent doubles.  hi is
    returned, so tanh(beta*m) - m changes sign within one ulp below it.
    """
    check_beta(beta)
    if beta <= 1.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if math.tanh(beta * mid) > mid:
            lo = mid
        else:
            hi = mid
    return hi


def limiting_correlation(beta: float) -> float:
    """Large-n limit of the pair correlation: 0 below the transition,
    squared spontaneous magnetization above it."""
    m = spontaneous_magnetization(beta)
    return m * m


def sample_spins(n: int, beta: float, rng) -> np.ndarray:
    """One exact sample of the n spins as a +-1 float vector.

    Draws the total-spin level by inverse CDF, then places the +1 spins
    uniformly at random.  ``rng`` is anything numpy's default_rng accepts
    (a Generator passes through unchanged).
    """
    _check_params(n, beta)
    rng = np.random.default_rng(rng)
    cdf = _level_cdf(n, beta)
    level = int(np.searchsorted(cdf, rng.random(), side="right"))
    level = min(level, n)
    spins = np.full(n, -1.0)
    if level:
        spins[rng.permutation(n)[:level]] = 1.0
    return spins

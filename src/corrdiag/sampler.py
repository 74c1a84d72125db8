"""Diagonal generators and assembly of the scaled symmetric matrix.

A matrix of size n is filled diagonal by diagonal: offset r gets a fresh
vector of length n - r from its own generator stream, the matrix is
mirrored to be exactly symmetric, and all entries are divided by sqrt(n).
Every generator produces mean-0, variance-1 entries; they differ in the
correlation within one diagonal:

    Independent        i.i.d. standard normals (correlation 0)
    Equicorrelated(c)  sqrt(c) * G + sqrt(1-c) * Z_p, one shared G per
                       diagonal (correlation exactly c at every size)
    CurieWeiss(beta)   one exact spin sample per diagonal, at the
                       diagonal's own length
    Toeplitz           one standard normal repeated along the diagonal
                       (correlation 1)

Seed layout: diagonal r of realization t uses the child stream
SeedSequence(seed, spawn_key=(t, r)), so diagonals are independent, runs
are reproducible, and realizations never share entropy.  Every other
integer seed a run derives (per-partition volume seeds, per-criterion and
per-size ensemble seeds) is ``child_seed(seed, *key)``, the first 64-bit
word of the child stream SeedSequence(seed, spawn_key=key).  Normals are drawn
by inverse CDF (ndtri) on 53-bit uniforms offset to the open interval, a
choice fixed here because bit-exact reproducibility is promised.

Memory guard: `build_matrix` (8n^2 bytes), `spectra.run_ensemble` (8n^2
bytes per worker thread) and `validate_conditions` (about 3 * draws * n
float64 values) reject a size whose float64 arrays would exceed MATRIX_GUARD
bytes before they allocate anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curie_weiss import pair_correlation, sample_spins

MATRIX_GUARD = 2**30  # bytes of float64 arrays one call may allocate


@dataclass(frozen=True)
class Independent:
    """I.i.d. standard normal entries."""


@dataclass(frozen=True)
class Equicorrelated:
    """Gaussian entries with pairwise correlation c inside each diagonal."""

    c: float

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"correlation c must lie in [0, 1], got {self.c}")


@dataclass(frozen=True)
class CurieWeiss:
    """Each diagonal is one exact Curie-Weiss spin sample at its own length."""

    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"inverse temperature must be > 0, got {self.beta}")


@dataclass(frozen=True)
class Toeplitz:
    """One normal per diagonal, repeated: entry (p,q) depends only on |p-q|."""


GeneratorSpec = Independent | Equicorrelated | CurieWeiss | Toeplitz


def _standard_normal(rng: np.random.Generator, size=None):
    # imported here: scipy.special costs about 0.3 s and 24 MB, and only sampling uses it
    from scipy.special import ndtri

    # 53-bit uniforms shifted off the endpoints keep ndtri finite
    u = (rng.integers(0, 1 << 53, size=size, dtype=np.uint64) + 0.5) * (1.0 / (1 << 53))
    return ndtri(u)


def sample_diagonal(gen: GeneratorSpec, length: int, rng: np.random.Generator) -> np.ndarray:
    """One diagonal of the requested length from the generator's law."""
    if length < 1:
        raise ValueError(f"diagonal length must be >= 1, got {length}")
    if isinstance(gen, Independent):
        return _standard_normal(rng, length)
    if isinstance(gen, Equicorrelated):
        shared = math.sqrt(gen.c) * _standard_normal(rng)
        return shared + math.sqrt(1.0 - gen.c) * _standard_normal(rng, length)
    if isinstance(gen, CurieWeiss):
        return sample_spins(length, gen.beta, rng)
    if isinstance(gen, Toeplitz):
        return np.full(length, _standard_normal(rng))
    raise TypeError(f"unknown generator spec: {gen!r}")


def diagonal_rng(seed: int, realization: int, offset: int) -> np.random.Generator:
    """The documented per-diagonal stream: child (realization, offset) of seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(realization, offset)))


def child_seed(seed: int, *key: int) -> int:
    """Integer seed of child stream ``key`` of ``seed``: the first 64-bit word
    of SeedSequence(seed, spawn_key=key)."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


def check_matrix_bytes(need: int, what: str) -> None:
    """Reject ``need`` bytes of float64 arrays over MATRIX_GUARD, naming ``what``."""
    if need > MATRIX_GUARD:
        raise ValueError(f"{what} needs about {need / 2**20:.0f} MiB of float64 arrays, "
                         f"over the memory guard of {MATRIX_GUARD / 2**20:.0f} MiB")


def build_matrix(n: int, gen: GeneratorSpec, realization: int = 0, seed: int = 0) -> np.ndarray:
    """One realization of the scaled symmetric matrix as a dense float array."""
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    check_matrix_bytes(8 * n * n, f"an n={n} matrix")
    a = np.empty((n, n))
    flat = a.reshape(-1)
    scale = math.sqrt(n)
    for r in range(n):
        values = sample_diagonal(gen, n - r, diagonal_rng(seed, realization, r)) / scale
        flat[r:(n - r) * (n + 1):n + 1] = values  # entries (i, i + r)
        flat[r * n::n + 1] = values  # entries (i + r, i)
    return a


def _same_diagonal_target(gen: GeneratorSpec, length: int) -> float:
    if isinstance(gen, Independent):
        return 0.0
    if isinstance(gen, Equicorrelated):
        return gen.c
    if isinstance(gen, CurieWeiss):
        return pair_correlation(length, gen.beta) if length >= 2 else 0.0
    return 1.0


def validate_conditions(gen: GeneratorSpec, n: int, draws: int, seed: int = 0) -> dict:
    """Empirical moment report for one generator: mean, variance, covariance
    within a diagonal and across two diagonals, each with a pass flag.

    This is a diagnostic report, not a gate: flags use wide bands (4 sigma
    style) so a healthy generator passes with margin.
    """
    if draws < 1000:
        raise ValueError(f"need at least 1000 draws for stable flags, got {draws}")
    if n < 3:
        raise ValueError(f"need n >= 3 to compare two diagonals, got {n}")
    # first and second, one draws x n temporary at a time, four vectors of
    # length draws, and the buffer of one NumPy ufunc call
    need = 8 * (draws * (3 * n + 4) + np.getbufsize())
    check_matrix_bytes(need, f"{draws} draws of two diagonals at n={n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    first = np.empty((draws, n))
    for row in first:
        row[:] = sample_diagonal(gen, n, rng)
    second = np.empty((draws, n - 1))
    for row in second:
        row[:] = sample_diagonal(gen, n - 1, rng)

    mean = float(first.mean())
    variance = float(first.var())
    row_sum = first.sum(axis=1)
    row_sq = (first**2).sum(axis=1)
    pair_products = (row_sum**2 - row_sq) / (n * (n - 1))
    cov_same = float(pair_products.mean())
    cov_same_sigma = float(pair_products.std(ddof=1) / math.sqrt(draws))

    cross_products = (first[:, : n - 1] * second).mean(axis=1)
    cov_cross = float(cross_products.mean())
    cov_cross_sigma = float(cross_products.std(ddof=1) / math.sqrt(draws))

    target = _same_diagonal_target(gen, n)
    report = {
        "generator": repr(gen),
        "n": n,
        "draws": draws,
        "mean": mean,
        "variance": variance,
        "cov_same_diagonal": cov_same,
        "cov_same_target": target,
        "cov_cross_diagonal": cov_cross,
        "mean_ok": abs(mean) < 4.0 / math.sqrt(draws),
        "variance_ok": abs(variance - 1.0) < 10.0 / math.sqrt(draws),
        "cov_same_ok": abs(cov_same - target) < max(4.0 * cov_same_sigma, 1e-12),
        "cov_cross_ok": abs(cov_cross) < max(4.0 * cov_cross_sigma, 1e-12),
    }
    report["all_ok"] = all(report[key] for key in
                           ("mean_ok", "variance_ok", "cov_same_ok", "cov_cross_ok"))
    return report

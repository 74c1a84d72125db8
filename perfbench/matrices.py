"""The benchmark's own rebuild of corrdiag's documented matrix stream.

corrdiag promises that realization t of a matrix is bit-exact for a given
seed: diagonal r draws from SeedSequence(seed, spawn_key=(t, r)), normals are
ndtri of 53-bit uniforms shifted off the endpoints, and the matrix is divided
by sqrt(n).  This module writes that contract down independently of the
package, so the SHA-256 of any ``simulate --dump-matrix`` output can be
checked exactly at every seed, not only at the seeds recorded in
reference.json.  It imports nothing from corrdiag.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.special import gammaln, logsumexp, ndtri


def _normal(rng: np.random.Generator, size=None):
    u = (rng.integers(0, 1 << 53, size=size, dtype=np.uint64) + 0.5) * (1.0 / (1 << 53))
    return ndtri(u)


def _spins(length: int, beta: float, rng: np.random.Generator) -> np.ndarray:
    j = np.arange(length + 1)
    totals = 2 * j - length
    log_weights = (
        gammaln(length + 1)
        - gammaln(j + 1)
        - gammaln(length - j + 1)
        + beta * totals.astype(np.float64) ** 2 / (2.0 * length)
    )
    log_weights -= logsumexp(log_weights)
    cdf = np.cumsum(np.exp(log_weights))
    cdf[-1] = 1.0
    level = min(int(np.searchsorted(cdf, rng.random(), side="right")), length)
    spins = np.full(length, -1.0)
    if level:
        spins[rng.permutation(length)[:level]] = 1.0
    return spins


def _diagonal(label: str, param, length: int, rng: np.random.Generator) -> np.ndarray:
    if label == "equicorrelated":
        shared = math.sqrt(param) * _normal(rng)
        return shared + math.sqrt(1.0 - param) * _normal(rng, length)
    if label == "curie_weiss":
        return _spins(length, param, rng)
    if label == "toeplitz":
        return np.full(length, _normal(rng))
    raise ValueError(f"unknown generator label {label!r}")


def reference_upper_sha256(label: str, param, n: int, seed: int) -> str:
    """SHA-256 of realization 0's row-major upper triangle as float64 bytes.

    ``label`` names the generator as workloads.GENERATORS does; ``param`` is
    its c or beta (ignored for toeplitz).
    """
    upper = np.zeros((n, n))
    idx = np.arange(n)
    for r in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, r)))
        head = idx[: n - r]
        upper[head, head + r] = _diagonal(label, param, n - r, rng)
    upper = upper / math.sqrt(n)
    return hashlib.sha256(upper[np.triu_indices(n)].astype(np.float64).tobytes()).hexdigest()

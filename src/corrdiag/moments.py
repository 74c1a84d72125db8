"""Moments of the limiting spectral distribution.

The even moment of order k is a sum over pair partitions of {1,...,k}:
each partition contributes its cube-section volume times c raised to
(k/2 - height).  Non-crossing partitions have volume 1 and height k/2, so
they contribute exactly 1 each and the c = 0 moments collapse to Catalan
numbers (the semicircle moments).  Odd moments vanish.

Up to order EXACT_MAX_K the volumes are exact (`volumes.exact_volume`), so
m_k(c) is a polynomial in c with rational coefficients, built once per k.
Above it the crossing volumes are Monte Carlo estimates.  The counter
already reaches k = 12 (its largest count holds 6^6 grid points), so
raising EXACT_MAX_K is the next step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .partitions import enumerate_pair_partitions, height, is_crossing
from .sampler import Equicorrelated, GeneratorSpec, Independent, child_seed
from .volumes import VolumeCache, exact_volume

DEFAULT_SAMPLES = 200_000
EXACT_MAX_K = 10  # largest order whose moments are exact


def catalan(m: int) -> int:
    if m < 0:
        raise ValueError(f"catalan index must be >= 0, got {m}")
    if m > 30:
        raise ValueError(f"catalan({m}) exceeds the supported exact range (m <= 30)")
    return math.comb(2 * m, m) // (m + 1)


def closed_form_moments(gen: GeneratorSpec) -> dict[int, tuple[float, float]]:
    """Limiting moments known in closed form for ``gen``, as k -> (value, 0.0).

    Equicorrelated(c) has m2 = 1 and m4 = 2 + (2/3)c^2; Independent is its
    c = 0 case.  Other generators get no rows.
    """
    if isinstance(gen, Equicorrelated):
        c = gen.c
        return {2: (1.0, 0.0), 4: (2.0 + (2.0 / 3.0) * c * c, 0.0)}
    if isinstance(gen, Independent):
        return {2: (1.0, 0.0), 4: (2.0, 0.0)}
    return {}


@dataclass(frozen=True)
class MomentValue:
    k: int
    c: float
    value: float
    std_error: float


@lru_cache(maxsize=None)
def exact_moment_polynomial(k: int) -> tuple[Fraction, ...]:
    """Coefficients of m_k(c), constant first, for even k: partition p adds
    its exact volume to the coefficient of c^(k/2 - height(p))."""
    coefficients = [Fraction(0)] * (k // 2 + 1)
    for p in enumerate_pair_partitions(k):
        coefficients[k // 2 - height(p)] += exact_volume(p)
    return tuple(coefficients)


def limiting_moment(
    k: int,
    c: float,
    cache: VolumeCache | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> MomentValue:
    """Moment of order k of the limiting distribution with correlation c.

    Up to order EXACT_MAX_K the value is `exact_moment_polynomial` at
    Fraction(c), rounded to float once, with standard error 0; ``cache``,
    ``samples`` and ``seed`` are not used.  Above it non-crossing partitions
    contribute exactly 1 each and only crossing partitions carry Monte Carlo
    error; their volume estimates come from ``cache`` when present (matching
    samples and seed), and are computed and stored otherwise.  ``samples``
    must be >= 1 at every k.
    """
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not math.isfinite(c):
        raise ValueError(f"correlation must be finite, got {c}")
    if k % 2:
        return MomentValue(k, float(c), 0.0, 0.0)
    if not 0.0 <= c <= 1.0:
        warnings.warn(
            f"c={c} is outside [0, 1]; no bundled matrix generator attains it",
            stacklevel=2,
        )

    if k <= EXACT_MAX_K:
        exact = Fraction(c)
        value = sum(a * exact**j for j, a in enumerate(exact_moment_polynomial(k)))
        return MomentValue(k, float(c), float(value), 0.0)

    if cache is None:
        cache = VolumeCache()
    half = k // 2
    crossing_sum = 0.0
    crossing_var = 0.0
    noncrossing_count = 0
    for index, p in enumerate(enumerate_pair_partitions(k)):
        if not is_crossing(p):
            noncrossing_count += 1
            continue
        weight = float(c) ** (half - height(p))
        if weight == 0.0:
            continue
        estimate = cache.ensure(p, samples, child_seed(seed, k, index))
        crossing_sum += weight * estimate.value
        crossing_var += (weight * estimate.std_error) ** 2

    value = noncrossing_count + crossing_sum
    return MomentValue(k, float(c), float(value), math.sqrt(crossing_var))

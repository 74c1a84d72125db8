"""Moments of the limiting spectral distribution.

The even moment of order k is a sum over pair partitions of {1,...,k}:
each partition contributes its cube-section volume times c raised to
(k/2 - height).  Non-crossing partitions have volume 1 and height k/2, so
they contribute exactly 1 each and the c = 0 moments collapse to Catalan
numbers (the semicircle moments).  Odd moments vanish.

The volumes are exact (`volumes.exact_volume`), so m_k(c) is a polynomial
in c with rational coefficients, built once per k and kept for the life of
the process.  Orders above EXACT_MAX_K are refused: order 14 takes about
2.5 minutes at one thread, order 16 would take hours.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .partitions import enumerate_pair_partitions, height
from .partitions import is_crossing  # noqa: F401  perfbench/tracer.py wraps it here
from .sampler import Equicorrelated, GeneratorSpec, Independent
from .volumes import exact_volume

EXACT_MAX_K = 14  # largest order whose moments are computed


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


@lru_cache(maxsize=None)
def exact_moment_polynomial(k: int) -> tuple[Fraction, ...]:
    """Coefficients of m_k(c), constant first, for even k: partition p adds
    its exact volume to the coefficient of c^(k/2 - height(p))."""
    coefficients = [Fraction(0)] * (k // 2 + 1)
    for p in enumerate_pair_partitions(k):
        coefficients[k // 2 - height(p)] += exact_volume(p)
    return tuple(coefficients)


def limiting_moment(k: int, c: float) -> MomentValue:
    """Moment of order k of the limiting distribution with correlation c:
    `exact_moment_polynomial` at Fraction(c), rounded to float once.  Odd
    orders are 0; ValueError for an even order above EXACT_MAX_K."""
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    if not math.isfinite(c):
        raise ValueError(f"correlation must be finite, got {c}")
    if k % 2:
        return MomentValue(k, float(c), 0.0)
    if k > EXACT_MAX_K:
        raise ValueError(f"moment order {k} is above the exact range (k <= {EXACT_MAX_K})")
    if not 0.0 <= c <= 1.0:
        warnings.warn(
            f"c={c} is outside [0, 1]; no bundled matrix generator attains it",
            stacklevel=2,
        )
    exact = Fraction(c)
    value = sum(a * exact**j for j, a in enumerate(exact_moment_polynomial(k)))
    return MomentValue(k, float(c), float(value))

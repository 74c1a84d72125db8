"""Moments of the limiting spectral distribution.

The even moment of order k is a sum over pair partitions of {1,...,k}:
each partition contributes its cube-section volume times c raised to
(k/2 - height).  Non-crossing partitions have volume 1 and height k/2, so
they contribute exactly 1 each and the c = 0 moments collapse to Catalan
numbers (the semicircle moments).  Odd moments vanish.

The volumes are exact (`volumes.orbit_volumes`), so m_k(c) is a
polynomial in c with rational coefficients, built once per k and kept for
the life of the process.  Orders above EXACT_MAX_K are refused: order 12
takes about 1.1 seconds, order 14 45-55 seconds at one thread and 20-25 at
two (CORRDIAG_THREADS=2, on a 2-core machine), order 16 would take hours.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache

from .partitions import MAX_GROUND_SET, _check_ground_set, _crossing, _dihedral_images, _height, _pairings
from .partitions import enumerate_pair_partitions  # noqa: F401  perfbench/tracer.py wraps it here
from .partitions import height  # noqa: F401  perfbench/tracer.py wraps it here
from .partitions import is_crossing  # noqa: F401  perfbench/tracer.py wraps it here
from .sampler import Equicorrelated, GeneratorSpec, Independent
from .volumes import orbit_volumes

EXACT_MAX_K = MAX_GROUND_SET  # largest order whose moments are computed


def catalan(m: int) -> int:
    if m < 0:
        raise ValueError(f"catalan index must be >= 0, got {m}")
    if m > 30:
        raise ValueError(f"catalan({m}) exceeds the supported exact range (m <= 30)")
    return math.comb(2 * m, m) // (m + 1)


def closed_form_moments(gen: GeneratorSpec) -> dict[int, float]:
    """Limiting moments known in closed form for ``gen``, as k -> value.

    Equicorrelated(c) has m2 = 1 and m4 = 2 + (2/3)c^2; Independent is its
    c = 0 case.  Other generators get no rows.  The formulas are exact, so a
    value carries no standard error.
    """
    if isinstance(gen, Equicorrelated):
        c = gen.c
        return {2: 1.0, 4: 2.0 + (2.0 / 3.0) * c * c}
    if isinstance(gen, Independent):
        return {2: 1.0, 4: 2.0}
    return {}


def _orbit_walk(k: int) -> Iterator[tuple[set[tuple[int, ...]], list[int]]]:
    """Each orbit of the pairings of {1,...,k} under the dihedral group
    (rotations and the reflection of 1..k) once, as its member partner
    tuples and the tally of their heights: tally[j] members have height
    k/2 - j.

    An orbit is met at its first member in enumeration order, so its other
    members are all still ahead; a set holds them until the enumeration
    reaches them.  That set is the walk's memory: at most (k-1)!! partner
    tuples of 40 + 8k bytes, plus a set slot each (107,207 tuples, a
    tracemalloc peak of 21 MB, at k = 14), and nothing once the walk ends.
    """
    half = k // 2
    ahead: set[tuple[int, ...]] = set()
    for partner in _pairings(k):
        if partner in ahead:
            ahead.remove(partner)
            continue
        members = set(_dihedral_images(partner))
        ahead |= members
        ahead.remove(partner)
        tally = [0] * (half + 1)
        for member in members:
            tally[half - _height(member)] += 1
        yield members, tally
    assert not ahead, "an orbit member was never enumerated"


@lru_cache(maxsize=None)
def exact_moment_polynomial(k: int) -> tuple[Fraction, ...]:
    """Coefficients of m_k(c), constant first, for even k: pairing p adds
    its exact volume to the coefficient of c^(k/2 - height(p)).

    Crossing and volume are the same across a dihedral orbit, height is
    not, so the sum runs over `_orbit_walk`: each orbit adds its volume
    times its height tally, one Fraction product per (orbit, height).
    Non-crossing orbits have volume 1; the crossing orbits' volumes come
    from `orbit_volumes`, keyed by their least member's partner tuple.
    """
    _check_ground_set(k)
    flat = [0] * (k // 2 + 1)  # the non-crossing orbits' tallies
    leasts, tallies = [], []
    for members, tally in _orbit_walk(k):
        least = min(members)
        if _crossing(least):
            leasts.append(least)
            tallies.append(tally)
        else:
            flat = [a + b for a, b in zip(flat, tally)]
    coefficients = list(map(Fraction, flat))
    for volume, tally in zip(orbit_volumes(k, leasts), tallies):
        for j, count in enumerate(tally):
            if count:
                coefficients[j] += volume * count
    return tuple(coefficients)


def limiting_moment(k: int, c: float) -> float:
    """Moment of order k of the limiting distribution with correlation c:
    `exact_moment_polynomial` at Fraction(c), rounded to float once.  Odd
    orders are 0; ValueError for an even order above EXACT_MAX_K."""
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    if not math.isfinite(c):
        raise ValueError(f"correlation must be finite, got {c}")
    if k % 2:
        return 0.0
    if k > EXACT_MAX_K:
        raise ValueError(f"moment order {k} is above the exact range (k <= {EXACT_MAX_K})")
    if not 0.0 <= c <= 1.0:
        warnings.warn(
            f"c={c} is outside [0, 1]; no bundled matrix generator attains it",
            stacklevel=2,
        )
    exact = Fraction(c)
    return float(sum(a * exact**j for j, a in enumerate(exact_moment_polynomial(k))))

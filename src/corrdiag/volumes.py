"""Cube-section volumes attached to pair partitions.

Each block (i,j) of a pair partition, i < j, imposes one linear relation

    x_i - x_{i-1} + x_j - x_{j-1} = 0

on variables x_0,...,x_k.  Eliminating the larger element of every block
(in increasing order of j) leaves k/2 + 1 free variables.  The volume of
the partition is the probability that a uniform draw of the free variables
from [0,1] keeps every eliminated variable inside [0,1]; for non-crossing
partitions that probability is exactly 1, for crossing ones it is estimated
by seeded Monte Carlo (`toeplitz_volume`) or computed exactly
(`exact_volume`).

Exact volumes: the volume's polytope P is cut out of the free-variable cube
by 0 <= row . f <= 1 for each row that can fail.  Its lattice-point count
L(t) = #(tP cap Z^(k/2+1)) is a polynomial of degree k/2 + 1 in t (the
Ehrhart polynomial; Beck-Robins, *Computing the Continuous Discretely*), and
its leading coefficient is the volume.  L(t) at t = n - 1 is also the
number of walks on n sites that solve the partition's cancellation system
(`lattice_count`).  One cache per dihedral orbit keeps the fitted
polynomial: `exact_volume` reads its leading coefficient and
`lattice_count` evaluates it at t.  The counter enumerates k/2 free
variables on {0..t} and solves for the column most rows use: its admissible
values form an interval, whose ends take one floor division per row.  It
counts the interior of tP too (every free variable and row sum in
{1..t-1}), and Ehrhart-Macdonald reciprocity, L(-t) = (-1)^(k/2+1) L°(t),
turns interior counts into values of L at negative t.  So the polynomial is
fitted with exact differences on the window t = -floor(d/2)..ceil(d/2),
d = k/2 + 1, and confirmed by one more closed and one more interior count:
the largest count is at t = ceil(d/2) + 1 (4 at k = 10, against 8 for a fit
from t = 0).

Reproducibility contract: the uniform stream is a counter-based generator
(Philox) laid out as sample index -> point, and chunks are aligned on
multiples of four samples (one Philox counter block = four doubles), so a
chunked parallel run counts exactly the same hits as a serial one.

Kernel: a point hits when every eliminated variable lies in [0, 1].  Only
the rows that can leave [0, 1] are tested: a row that is a unit vector is
one free coordinate, already in [0, 1), and a repeated row decides nothing
its twin does not.  Dropping them does not change the hit count.  The kept
rows are evaluated as ``rows @ points.T``, one contiguous row per
constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from ._parallel import check_memory, parallel_map
from .partitions import PairPartition, is_crossing
from .spectra import write_lines

DEFAULT_SAMPLES = 200_000  # Monte Carlo points per `toeplitz_volume` by default
# Chunk length for Monte Carlo; a multiple of 4 keeps every chunk start
# aligned with a Philox counter-block boundary for any point dimension.
_CHUNK = 1 << 18


@dataclass(frozen=True)
class SolvedSystem:
    """Triangular solution of the block relations for one pair partition.

    ``determined`` pairs each eliminated variable index with its integer
    coefficients over ``free_vars`` (in that order).  The forms are linear,
    with no constant term, because every relation is a sum of two
    differences.
    """

    k: int
    free_vars: tuple[int, ...]
    determined: tuple[tuple[int, tuple[int, ...]], ...]

    def coefficient_matrix(self) -> np.ndarray:
        """Rows = determined variables, columns = free variables."""
        return np.array([coeffs for _, coeffs in self.determined], dtype=np.float64)


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float
    samples: int
    seed: int
    exact: bool


def solve_partition_system(p: PairPartition) -> SolvedSystem:
    """Eliminate the larger element of each block, in increasing order.

    Because eliminated indices are exactly the larger block elements, every
    substitution only ever references variables that are either free or
    already resolved, so the elimination is triangular.
    """
    k = p.k
    resolved: dict[int, np.ndarray] = {}

    def expand(v: int) -> np.ndarray:
        if v in resolved:
            return resolved[v].copy()
        e = np.zeros(k + 1, dtype=np.int64)
        e[v] = 1
        return e

    for i, j in sorted(p.blocks, key=lambda block: block[1]):
        # x_j = x_{j-1} + x_{i-1} - x_i
        resolved[j] = expand(j - 1) + expand(i - 1) - expand(i)

    free = tuple(v for v in range(k + 1) if v not in resolved)
    determined = []
    for j in sorted(resolved):
        row = resolved[j]
        assert all(row[d] == 0 for d in resolved), "elimination left a resolved index"
        determined.append((j, tuple(int(row[v]) for v in free)))
    return SolvedSystem(k, free, tuple(determined))


def _rows_that_can_fail(matrix: np.ndarray) -> np.ndarray:
    """Distinct rows of ``matrix`` that are not a unit vector (module docstring),
    in sorted order.  (Sorted in Python: ``np.unique`` imports ``numpy.ma`` on
    first use, about 30 ms, which a walk census would otherwise pay.)"""
    unit = (np.count_nonzero(matrix, axis=1) == 1) & (matrix.sum(axis=1) == 1.0)
    kept = sorted(set(map(tuple, matrix[~unit].tolist())))
    return np.array(kept, dtype=matrix.dtype).reshape(len(kept), matrix.shape[1])


def _chunk_hits(seed: int, start: int, count: int, rows: np.ndarray) -> int:
    dim = rows.shape[1]
    bits = np.random.Philox(np.random.SeedSequence(seed))
    offset_doubles = start * dim
    assert offset_doubles % 4 == 0, "chunk start drifted off the counter-block grid"
    bits.advance(offset_doubles // 4)
    points = np.random.Generator(bits).random((count, dim))
    values = rows @ points.T
    inside = np.logical_and.reduce((values >= 0.0) & (values <= 1.0), axis=0)
    return int(np.count_nonzero(inside))


def toeplitz_volume(p: PairPartition, samples: int, seed: int) -> VolumeEstimate:
    """Volume of the cube section attached to ``p``.

    Non-crossing partitions return 1 exactly.  Crossing partitions are
    estimated with ``samples`` uniform points of the free variables; the
    standard error is the binomial plug-in sqrt(v(1-v)/samples).  The memory
    guard counts, per worker, one chunk of points: k/2 + 1 float64
    coordinates, and per kept row (at most k/2) a float64 value and three
    booleans.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not is_crossing(p):
        return VolumeEstimate(1.0, 0.0, samples, seed, True)

    half, starts = p.k // 2, range(0, samples, _CHUNK)
    check_memory(f"a k={p.k} volume", min(_CHUNK, samples) * (8 * (2 * half + 1) + 3 * half),
                 jobs=len(starts))
    rows = _rows_that_can_fail(solve_partition_system(p).coefficient_matrix())
    counts = parallel_map(
        lambda start: _chunk_hits(seed, start, min(_CHUNK, samples - start), rows),
        starts,
    )
    hits = sum(counts)
    value = hits / samples
    std_error = math.sqrt(value * (1.0 - value) / samples)
    return VolumeEstimate(value, std_error, samples, seed, False)


def _lattice_counts(rows: np.ndarray, sizes) -> list[int]:
    """Lattice points of tP for integer ``rows`` (R, d) and each (t, inset) in
    ``sizes``: points f of {inset..t-inset}^d with inset <= rows @ f <= t - inset.
    Inset 0 counts the closed polytope, inset 1 its interior.

    The column most rows use is solved rather than enumerated: a row with
    coefficient a != 0 there bounds it to the interval from
    inset <= s + a x <= t - inset, where s is the row's sum over the other
    columns; a row with a == 0 is an all-or-nothing test of s.  The sums over
    the grid of the other d - 1 columns are built once at the largest t, top,
    and each count reads the corner of that grid where every column lies in
    {inset..t-inset}.  Memory: R int64 sums over (top + 1)^(d-1) points, plus
    the two bounds and two temporaries.
    """
    dims, top = rows.shape[1], max(t for t, _ in sizes)
    last = int(np.argmax(np.count_nonzero(rows, axis=0))) if len(rows) else 0
    others = [j for j in range(dims) if j != last]
    check_memory(f"a k={2 * (dims - 1)} lattice count up to t={top}",
                 8 * (top + 1) ** len(others) * (len(rows) + 4))
    axis = np.arange(top + 1, dtype=np.int64)
    all_sums = []
    for row in rows:
        sums = np.zeros((), dtype=np.int64)
        for j in others:
            sums = np.add.outer(sums, row[j] * axis)
        all_sums.append(sums)

    counts = []
    for t, inset in sizes:
        floor, ceiling = inset, t - inset
        corner = (slice(floor, ceiling + 1),) * len(others)
        lo = np.full((max(ceiling - floor + 1, 0),) * len(others), floor, dtype=np.int64)
        hi = np.full_like(lo, ceiling)
        for row, sums in zip(rows, all_sums):
            sums, a = sums[corner], int(row[last])
            if a == 0:
                hi[(sums < floor) | (sums > ceiling)] = floor - 1
                continue
            # a > 0: (floor - s)/a <= x <= (ceiling - s)/a;
            # a < 0: (s - ceiling)/|a| <= x <= (s - floor)/|a|
            down, up = (sums - floor, ceiling - sums) if a > 0 else (ceiling - sums, sums - floor)
            if abs(a) > 1:
                down, up = down // abs(a), up // abs(a)
            np.maximum(lo, -down, out=lo)
            np.minimum(hi, up, out=hi)
        hi -= lo
        counts.append(int(np.maximum(hi, -1).sum()) + hi.size)
    return counts


def _fit_polynomial(values: list[int], start: int) -> tuple[Fraction, ...]:
    """Coefficients, constant first, of the polynomial of degree len(values) - 1
    through (start + i, values[i]): Newton's forward differences times
    (t - start)(t - start - 1)...(t - start - j + 1) / j!, summed in integers
    over the common denominator (len(values) - 1)!."""
    degree = len(values) - 1
    scale = math.factorial(degree)
    numerators = [0] * len(values)
    falling = [1]  # (t - start)(t - start - 1) ... (t - start - j + 1), constant first
    for j in range(len(values)):
        delta = values[0] * (scale // math.factorial(j))
        for i, f in enumerate(falling):
            numerators[i] += delta * f
        values = [b - a for a, b in zip(values, values[1:])]
        shift = start + j
        falling = [(falling[i - 1] if i else 0) - shift * (falling[i] if i < len(falling) else 0)
                   for i in range(len(falling) + 1)]
    return tuple(Fraction(n, scale) for n in numerators)


def _evaluate(coefficients: tuple[Fraction, ...], t: int) -> Fraction:
    """The polynomial with ``coefficients``, constant first, at t."""
    return sum(c * t**i for i, c in enumerate(coefficients))


def lattice_polynomial(p: PairPartition) -> tuple[Fraction, ...]:
    """Ehrhart polynomial L(t) of the volume's polytope P, constant first.

    L has degree d = k/2 + 1.  Ehrhart-Macdonald reciprocity gives
    L(-t) = (-1)^d L°(t), where L°(t) counts the interior lattice points of
    tP (Beck-Robins, ch. 4).  So L is fitted on the symmetric window
    t = -floor(d/2)..ceil(d/2): closed counts at t >= 0 and signed interior
    counts at t < 0, all read off one grid of ceil(d/2) + 2 points a side.

    Both Ehrhart's theorem and reciprocity need P to be a lattice polytope.
    For every crossing partition up to k = 10 the determined rows are
    totally unimodular (a test checks every square minor), so with the unit
    rows of the free variables they cut out a polytope with integer vertices
    (Hoffman-Kruskal), and the fit is exact.  Two more counts cross-check
    it: the closed count at t = ceil(d/2) + 1 and the interior count at
    floor(d/2) + 1.  ArithmeticError is raised if either disagrees.  At
    k = 12 and 14 total unimodularity is not checked, and these two counts,
    which every orbit passes, are the only evidence for the fit.
    """
    degree = p.k // 2 + 1
    below, above = degree // 2, degree - degree // 2
    rows = _rows_that_can_fail(solve_partition_system(p).coefficient_matrix()).astype(np.int64)
    sizes = [(t, 0) for t in range(above + 2)] + [(t, 1) for t in range(1, below + 2)]
    counts = _lattice_counts(rows, sizes)
    closed, interior = counts[:above + 2], [(-1) ** degree * c for c in counts[above + 2:]]
    window = interior[below - 1::-1] + closed[:above + 1]
    coefficients = _fit_polynomial(window, start=-below)
    for t, count in ((above + 1, closed[-1]), (-below - 1, interior[-1])):
        fitted = _evaluate(coefficients, t)
        if fitted != count:
            raise ArithmeticError(f"lattice counts of {p.canonical()} give L({t}) = {count}, "
                                  f"not the fitted polynomial's {fitted}")
    return coefficients


# canonical form of a partition -> its orbit's key, filled an orbit at a time
_ORBIT_KEYS: dict[str, str] = {}


def _orbit_key(p: PairPartition) -> str:
    """Canonical form of one representative of p's orbit under the dihedral
    group: rotations i -> i + r (mod k) and the reflection i -> k + 1 - i.
    The representative has the least partner list (partner of 1, 2, ..., k).
    The first member met of an orbit computes all 2k images and records each
    image's canonical form against the key, for the life of the process."""
    key = _ORBIT_KEYS.get(p.canonical())
    if key is not None:
        return key
    k = p.k
    partner = [0] * k
    for a, b in p.blocks:
        partner[a - 1], partner[b - 1] = b - 1, a - 1
    images = []
    for start in (range(k), range(k - 1, -1, -1)):
        for r in range(k):
            move = [(i + r) % k for i in start]
            image = [0] * k
            for i in range(k):
                image[move[i]] = move[partner[i]]
            images.append(image)
    texts = [",".join(f"{i + 1}-{j + 1}" for i, j in enumerate(image) if i < j)
             for image in images]
    key = texts[images.index(min(images))]
    _ORBIT_KEYS.update(dict.fromkeys(texts, key))
    return key


@lru_cache(maxsize=None)
def _orbit_polynomial(key: str) -> tuple[Fraction, ...]:
    return lattice_polynomial(PairPartition.from_string(key))


def lattice_count(p: PairPartition, t: int) -> int:
    """L(t) = #(tP cap Z^(k/2+1)): `lattice_polynomial`, fitted once per
    dihedral orbit and kept for the life of the process, evaluated at t.
    Its forward differences are integers, so L(t) is one.  At t = n - 1 it
    is the number of walks on n sites that solve p's cancellation system.
    At t < 0 the polynomial is a signed interior count (reciprocity), not a
    count of tP, so ValueError is raised."""
    if t < 0:
        raise ValueError(f"a lattice count needs t >= 0, got t = {t}")
    return int(_evaluate(_orbit_polynomial(_orbit_key(p)), t))


def exact_volume(p: PairPartition) -> Fraction:
    """Exact volume of the cube section attached to ``p``: the leading
    coefficient of `lattice_polynomial`, fitted once per dihedral orbit and
    kept for the life of the process."""
    if not is_crossing(p):
        return Fraction(1)
    return _orbit_polynomial(_orbit_key(p))[-1]


class VolumeCache:
    """Text-backed store of volume estimates keyed by canonical partition.

    One record per line: canonical partition, samples, seed, value,
    std_error, exact flag (0/1), whitespace-separated.  Lines starting with
    '#' are headers and are skipped on load.  `corrdiag volume` prints its
    estimate as one such record.  Limiting moments no longer use the cache;
    ``ensure``, ``load`` and ``save`` stay while perfbench/tracer.py wraps
    them (ROADMAP item 1).
    """

    def __init__(self, path: str | Path | None = None):
        self._entries: dict[str, VolumeEstimate] = {}
        if path is not None and Path(path).exists():
            self.load(path)

    def ensure(self, p: PairPartition, samples: int, seed: int) -> VolumeEstimate:
        """Cached estimate if it was produced by the same (samples, seed) run,
        otherwise compute and store a fresh one."""
        key = p.canonical()
        hit = self._entries.get(key)
        if hit is not None and hit.samples == samples and hit.seed == seed:
            return hit
        estimate = toeplitz_volume(p, samples, seed)
        self._entries[key] = estimate
        return estimate

    @staticmethod
    def format_line(key: str, e: VolumeEstimate) -> str:
        return f"{key} {e.samples} {e.seed} {e.value:.17g} {e.std_error:.17g} {int(e.exact)}"

    @staticmethod
    def parse_line(line: str) -> tuple[str, VolumeEstimate]:
        key, samples, seed, value, std_error, exact = line.split()
        return key, VolumeEstimate(
            float(value), float(std_error), int(samples), int(seed), bool(int(exact))
        )

    def load(self, path: str | Path) -> None:
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, estimate = self.parse_line(line)
            self._entries[key] = estimate

    def save(self, path: str | Path, header_lines: tuple[str, ...] = ()) -> Path:
        rows = [self.format_line(k, e) for k, e in sorted(self._entries.items())]
        return write_lines(path, header_lines, rows)

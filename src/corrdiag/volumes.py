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
number of walks on n sites that solve the partition's cancellation system,
and `lattice_count` is where the walk census takes its
`oracle.PartitionTally.solutions` from.  The counter enumerates k/2 free
variables on {0..t} and solves for the column most rows use: its admissible
values form an interval, whose ends take one floor division per row.
The polynomial is fitted through t = 0..k/2+1 with exact differences and
confirmed at two further sizes.

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
    """Points f of {0..t}^d with 0 <= rows @ f <= t, for integer ``rows`` (R, d)
    and each t in ``sizes``.

    The column most rows use is solved rather than enumerated: a row with
    coefficient a != 0 there bounds it to the interval from 0 <= s + a x <= t,
    where s is the row's sum over the other columns; a row with a == 0 is an
    all-or-nothing test of s.  The sums over the grid of the other d - 1
    columns are built once at the largest t, top, and each smaller t reads
    the corner of that grid where every column is at most t.  Memory: R int64
    sums over (top + 1)^(d-1) points, plus the two bounds and two temporaries.
    """
    dims, top = rows.shape[1], max(sizes)
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
    for t in sizes:
        corner = (slice(0, t + 1),) * len(others)
        lo = np.zeros((t + 1,) * len(others), dtype=np.int64)
        hi = np.full_like(lo, t)
        for row, sums in zip(rows, all_sums):
            sums, a = sums[corner], int(row[last])
            if a == 0:
                hi[(sums < 0) | (sums > t)] = -1
                continue
            # a > 0: -s/a <= x <= (t - s)/a;  a < 0: (s - t)/|a| <= x <= s/|a|
            down, up = (sums, t - sums) if a > 0 else (t - sums, sums)
            if abs(a) > 1:
                down, up = down // abs(a), up // abs(a)
            np.maximum(lo, -down, out=lo)
            np.minimum(hi, up, out=hi)
        hi -= lo
        counts.append(int(np.maximum(hi, -1).sum()) + hi.size)
    return counts


def _fit_polynomial(values: list[int]) -> tuple[Fraction, ...]:
    """Coefficients, constant first, of the polynomial of degree len(values) - 1
    through (t, values[t]): Newton's forward differences times binomial(t, j)."""
    coefficients = [Fraction(0)] * len(values)
    falling = [1]  # t (t - 1) ... (t - j + 1), constant first
    for j in range(len(values)):
        delta = Fraction(values[0], math.factorial(j))
        for i, f in enumerate(falling):
            coefficients[i] += delta * f
        values = [b - a for a, b in zip(values, values[1:])]
        falling = [(falling[i - 1] if i else 0) - j * (falling[i] if i < len(falling) else 0)
                   for i in range(len(falling) + 1)]
    return tuple(coefficients)


def lattice_polynomial(p: PairPartition) -> tuple[Fraction, ...]:
    """Ehrhart polynomial L(t) of the volume's polytope, constant first.

    Fitted through t = 0..k/2+1 and confirmed at t = k/2+2 and k/2+3;
    raises ArithmeticError if either count disagrees, as it would if the
    count were not a polynomial of that degree.
    """
    degree = p.k // 2 + 1
    rows = _rows_that_can_fail(solve_partition_system(p).coefficient_matrix()).astype(np.int64)
    counts = _lattice_counts(rows, range(degree + 3))
    coefficients = _fit_polynomial(counts[:degree + 1])
    for t in (degree + 1, degree + 2):
        fitted = sum(c * t**i for i, c in enumerate(coefficients))
        if fitted != counts[t]:
            raise ArithmeticError(f"lattice count of {p.canonical()} at t={t} is {counts[t]}, "
                                  f"not the fitted polynomial's {fitted}")
    return coefficients


def _orbit_key(p: PairPartition) -> str:
    """Canonical form of one representative of p's orbit under the dihedral
    group: rotations i -> i + r (mod k) and the reflection i -> k + 1 - i.
    The representative has the least partner list (partner of 1, 2, ..., k)."""
    k = p.k
    partner = [0] * k
    for a, b in p.blocks:
        partner[a - 1], partner[b - 1] = b - 1, a - 1
    best = None
    for start in (range(k), range(k - 1, -1, -1)):
        for r in range(k):
            move = [(i + r) % k for i in start]
            image = [0] * k
            for i in range(k):
                image[move[i]] = move[partner[i]]
            if best is None or image < best:
                best = image
    return ",".join(f"{i + 1}-{j + 1}" for i, j in enumerate(best) if i < j)


@lru_cache(maxsize=None)
def _orbit_volume(key: str) -> Fraction:
    return lattice_polynomial(PairPartition.from_string(key))[-1]


@lru_cache(maxsize=None)
def _orbit_count(key: str, t: int) -> int:
    p = PairPartition.from_string(key)
    rows = _rows_that_can_fail(solve_partition_system(p).coefficient_matrix()).astype(np.int64)
    return _lattice_counts(rows, [t])[0]


def lattice_count(p: PairPartition, t: int) -> int:
    """L(t) of `lattice_polynomial`, counted at this t alone, once per
    dihedral orbit and kept for the life of the process.  At t = n - 1 it is
    the number of walks on n sites that solve p's cancellation system."""
    return _orbit_count(_orbit_key(p), t)


def exact_volume(p: PairPartition) -> Fraction:
    """Exact volume of the cube section attached to ``p``: the leading
    coefficient of `lattice_polynomial`, counted once per dihedral orbit
    and kept for the life of the process."""
    if not is_crossing(p):
        return Fraction(1)
    return _orbit_volume(_orbit_key(p))


class VolumeCache:
    """Text-backed store of volume estimates keyed by canonical partition.

    One record per line: canonical partition, samples, seed, value,
    std_error, exact flag (0/1), whitespace-separated.  Lines starting with
    '#' are headers and are skipped on load.
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

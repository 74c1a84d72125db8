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
`lattice_count` evaluates it at t.  A moment coefficient sums, over the
dihedral orbits, the integer tally of the orbit's pairings of one height
times the orbit's volume (`moments.exact_moment_polynomial`); the crossing
orbits of one order are fitted in shares on `parallel_map` workers
(`orbit_volumes`).  The counter walks the grid of all
k/2 + 1 free variables on {0..t} once and histograms each point's reach,
the largest of its coordinates and row sums.  It counts the interior of tP
too (every free variable and row sum in {1..t-1}), and Ehrhart-Macdonald
reciprocity, L(-t) = (-1)^(k/2+1) L°(t), turns interior counts into values
of L at negative t.  So the polynomial is fitted with exact differences on
the window t = -floor(d/2)..ceil(d/2), d = k/2 + 1, and no count outside it
is taken: the largest is at t = ceil(d/2) (3 at k = 10, against 6 for a fit
from t = 0).  Ehrhart's theorem and reciprocity hold for lattice polytopes,
so each orbit's rows are certified totally unimodular before its fit
(`lattice_polynomial`), which makes the fit exact.

Reproducibility contract: a Monte Carlo volume draws one Philox stream,
seeded by SeedSequence(seed), in order, one chunk of points at a time; the
chunk length changes no hit count.

Kernel: a point hits when every eliminated variable lies in [0, 1].  Only
the rows that can leave [0, 1] are tested: a row that is a unit vector is
one free coordinate, already in [0, 1), and a repeated row decides nothing
its twin does not.  Dropping them does not change the hit count.  The kept
rows are evaluated as ``rows @ points.T``, one contiguous row per
constraint.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from ._parallel import check_memory, parallel_map
from .partitions import PairPartition, _dihedral_images, is_crossing
from .spectra import write_lines

DEFAULT_SAMPLES = 200_000  # Monte Carlo points per `toeplitz_volume` by default
SAMPLE_GUARD = 10**9  # most Monte Carlo points one `toeplitz_volume` draws
# Points drawn and tested at a time; one stream drawn in order, so the chunk
# length changes no hit count.
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
    resolved: dict[int, list[int]] = {}

    def expand(v: int) -> list[int]:
        row = resolved.get(v)
        if row is None:
            row = [0] * (k + 1)
            row[v] = 1
        return row

    for i, j in sorted(p.blocks, key=lambda block: block[1]):
        # x_j = x_{j-1} + x_{i-1} - x_i
        resolved[j] = [a + b - c for a, b, c in zip(expand(j - 1), expand(i - 1), expand(i))]

    free = tuple(v for v in range(k + 1) if v not in resolved)
    determined = []
    for j in sorted(resolved):
        row = resolved[j]
        assert all(row[d] == 0 for d in resolved), "elimination left a resolved index"
        determined.append((j, tuple(row[v] for v in free)))
    return SolvedSystem(k, free, tuple(determined))


def _rows_that_can_fail(matrix: np.ndarray) -> np.ndarray:
    """Distinct rows of ``matrix`` that are not a unit vector (module docstring),
    in sorted order.  (Sorted in Python: ``np.unique`` imports ``numpy.ma`` on
    first use, about 30 ms, which a walk census would otherwise pay.)"""
    unit = (np.count_nonzero(matrix, axis=1) == 1) & (matrix.sum(axis=1) == 1.0)
    kept = sorted(set(map(tuple, matrix[~unit].tolist())))
    return np.array(kept, dtype=matrix.dtype).reshape(len(kept), matrix.shape[1])


def _hits(rng: np.random.Generator, count: int, rows: np.ndarray) -> int:
    """Hits among the next ``count`` points of ``rng``'s stream."""
    points = rng.random((count, rows.shape[1]))
    values = rows @ points.T
    inside = np.logical_and.reduce((values >= 0.0) & (values <= 1.0), axis=0)
    return int(np.count_nonzero(inside))


def toeplitz_volume(p: PairPartition, samples: int, seed: int) -> VolumeEstimate:
    """Volume of the cube section attached to ``p``.

    Non-crossing partitions return 1 exactly.  Crossing partitions are
    estimated with ``samples`` uniform points of the free variables; the
    standard error is the binomial plug-in sqrt(v(1-v)/samples).  More
    than `SAMPLE_GUARD` samples are refused.  The memory guard counts one
    chunk of points: k/2 + 1 float64 coordinates, and per kept row (at most
    k/2) a float64 value and three booleans.
    """
    if not 1 <= samples <= SAMPLE_GUARD:
        raise ValueError(f"samples must be in 1..{SAMPLE_GUARD}, got {samples}")
    if not is_crossing(p):
        return VolumeEstimate(1.0, 0.0, samples, seed, True)

    half = p.k // 2
    check_memory(f"a k={p.k} volume", min(_CHUNK, samples) * (8 * (2 * half + 1) + 3 * half))
    rows = _rows_that_can_fail(solve_partition_system(p).coefficient_matrix())
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    hits = sum(_hits(rng, min(_CHUNK, samples - start), rows) for start in range(0, samples, _CHUNK))
    value = hits / samples
    std_error = math.sqrt(value * (1.0 - value) / samples)
    return VolumeEstimate(value, std_error, samples, seed, False)


@lru_cache(maxsize=None)
def _signings(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Every sigma in {-1, 0, 1}^count as a row of a read-only int64
    (3^count, count) array, with each row's support as a bitmask.  One entry
    per row count met, at most k/2 (122 kB of signings at count 7)."""
    signings = np.array(list(itertools.product((-1, 0, 1), repeat=count)),
                        dtype=np.int64).reshape(3**count, count)
    supports = (signings != 0) @ (1 << np.arange(count))
    for array in (signings, supports):
        array.flags.writeable = False
    return signings, supports


def _totally_unimodular(rows: np.ndarray) -> bool:
    """Ghouila-Houri's test (Ghouila-Houri 1962; Schrijver, *Theory of Linear
    and Integer Programming*, ch. 19): an integer matrix is totally unimodular
    exactly when every subset of its rows has signs +-1 whose signed row sum
    lies in {-1, 0, 1} in every column.  All 3^R signings sigma in {-1, 0, 1}^R
    are tried at once; one with |sigma . rows| <= 1 in every column serves
    the subset where it is nonzero, and each of the 2^R subsets needs one.
    No rows is totally unimodular."""
    count = len(rows)
    signings, supports = _signings(count)
    kept = np.abs(signings @ rows).max(axis=1, initial=0) <= 1
    return bool(np.bincount(supports[kept], minlength=1 << count).all())


# held while a count fetches its grid, so workers fitting orbits of one
# order at once build it once
_GRID_LOCK = threading.Lock()


@lru_cache(maxsize=1)
def _grid(dims: int, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every point of {0..top}^dims as a column of a float32 (dims, N) array,
    with each point's largest and smallest coordinate.  Every orbit of one
    order counts on the same grid, so the last one is kept."""
    points = np.indices((top + 1,) * dims, dtype=np.float32).reshape(dims, -1)
    grid = points, points.max(axis=0), points.min(axis=0)
    for array in grid:
        array.flags.writeable = False
    return grid


def _count_bytes(dims: int, top: int, rows: int) -> tuple[int, int]:
    """Bytes of one `_lattice_counts` call with ``rows`` rows on {0..top}^dims:
    its own arrays, and the grid it shares with every count of its order."""
    points = (top + 1) ** dims
    return points * (4 * (rows + 2) + 27), points * 4 * (dims + 2)


def _lattice_counts(rows: np.ndarray, sizes) -> list[int]:
    """Lattice points of tP for integer ``rows`` (R, d) and each (t, inset) in
    ``sizes``: points f of {inset..t-inset}^d with inset <= rows @ f <= t - inset.
    Inset 0 counts the closed polytope, inset 1 its interior.

    One pass over the grid {0..top}^d, top the largest t: a point's reach is
    the largest of its coordinates and row sums, its low the smallest row
    sum, and it is counted for (t, inset) when its coordinates and low are
    at least inset and its reach at most t - inset.  So each inset's counts
    are the cumulative histogram of reach.  The row sums are one float32
    matmul, exact while they stay below 2^24.  Memory: the grid with its two
    extremes (d + 2 floats a point), the R float32 sums, and per point two
    float32 and one int64 temporary, three masks and a masked int64 copy.
    """
    dims, top = rows.shape[1], max(t for t, _ in sizes)
    check_memory(f"a k={2 * (dims - 1)} lattice count up to t={top}",
                 sum(_count_bytes(dims, top, len(rows))))
    assert np.abs(rows).sum(axis=1, initial=0).max(initial=0) * top < 2**24, "float32 sums inexact"
    with _GRID_LOCK:
        grid, largest, smallest = _grid(dims, top)
    sums = rows.astype(np.float32) @ grid
    reach = np.maximum(sums.max(axis=0, initial=0), largest).astype(np.int64)
    low = sums.min(axis=0, initial=np.inf)
    counted = {}
    for inset in {inset for _, inset in sizes}:
        inside = (low >= inset) & (smallest >= inset)
        counted[inset] = np.cumsum(np.bincount(reach[inside], minlength=top + 1))
    return [int(counted[inset][t - inset]) if t >= inset else 0 for t, inset in sizes]


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


def _window(k: int) -> tuple[int, int]:
    """How far the fit window of order k reaches below and above t = 0:
    floor(d/2) and ceil(d/2), d = k/2 + 1."""
    degree = k // 2 + 1
    return degree // 2, degree - degree // 2


def lattice_polynomial(p: PairPartition) -> tuple[Fraction, ...]:
    """Ehrhart polynomial L(t) of the volume's polytope P, constant first.

    L has degree d = k/2 + 1.  Ehrhart-Macdonald reciprocity gives
    L(-t) = (-1)^d L°(t), where L°(t) counts the interior lattice points of
    tP (Beck-Robins, ch. 4).  So L is fitted on the symmetric window
    t = -floor(d/2)..ceil(d/2): closed counts at t >= 0 and signed interior
    counts at t < 0, all read off one grid of ceil(d/2) + 1 points a side.

    Both Ehrhart's theorem and reciprocity need P to be a lattice polytope.
    Before the fit, the rows that can fail are certified totally unimodular
    (`_totally_unimodular`); with the unit rows of the free variables, which
    keep that property, they cut out a polytope with integer vertices
    (Hoffman-Kruskal), and the fit is exact.  Every orbit up to k = 14
    passes; one that did not would raise ArithmeticError.  No count outside
    the window is taken.
    """
    degree = p.k // 2 + 1
    below, above = _window(p.k)
    rows = _rows_that_can_fail(solve_partition_system(p).coefficient_matrix()).astype(np.int64)
    if not _totally_unimodular(rows):
        raise ArithmeticError(f"the rows of {p.canonical()} are not totally unimodular, so its "
                              "polytope need not have integer vertices and no Ehrhart fit holds")
    counts = _lattice_counts(rows, [(t, 0) for t in range(above + 1)]
                             + [(t, 1) for t in range(1, below + 1)])
    closed, interior = counts[:above + 1], counts[above + 1:]
    window = [(-1) ** degree * c for c in reversed(interior)] + closed
    return _fit_polynomial(window, start=-below)


@lru_cache(maxsize=None)
def _orbit_polynomial(least: tuple[int, ...]) -> tuple[Fraction, ...]:
    """`lattice_polynomial` of the dihedral orbit (rotations i -> i + r (mod k)
    and the reflection i -> k + 1 - i) whose least partner tuple among
    `_dihedral_images` is ``least``."""
    return lattice_polynomial(PairPartition(least))


def orbit_volumes(k: int, leasts: list[tuple[int, ...]]) -> list[Fraction]:
    """Exact volumes of the crossing dihedral orbits of order k whose least
    partner tuples are ``leasts``, in order: each orbit's polynomial is fitted
    once and kept, each `parallel_map` share fitting its own.  The memory guard
    counts, per worker, one `_lattice_counts` call's arrays for k/2 rows,
    and once the grid the calls share (15.6 MB at k = 14)."""
    per_worker, grid = _count_bytes(k // 2 + 1, _window(k)[1], k // 2)
    check_memory(f"the k={k} orbit fits", per_worker, grid, jobs=len(leasts))
    parallel_map(lambda share: list(map(_orbit_polynomial, share)), leasts)
    return [_orbit_polynomial(least)[-1] for least in leasts]


def lattice_count(p: PairPartition, t: int) -> int:
    """L(t) = #(tP cap Z^(k/2+1)): `lattice_polynomial`, fitted once per
    dihedral orbit and kept for the life of the process, evaluated at t.
    Its forward differences are integers, so L(t) is one.  At t = n - 1 it
    is the number of walks on n sites that solve p's cancellation system.
    At t < 0 the polynomial is a signed interior count (reciprocity), not a
    count of tP, so ValueError is raised."""
    if t < 0:
        raise ValueError(f"a lattice count needs t >= 0, got t = {t}")
    return int(_evaluate(_orbit_polynomial(min(_dihedral_images(p.partner))), t))


def exact_volume(p: PairPartition) -> Fraction:
    """Exact volume of the cube section attached to ``p``: the leading
    coefficient of `lattice_polynomial`, fitted once per dihedral orbit and
    kept for the life of the process."""
    if not is_crossing(p):
        return Fraction(1)
    return _orbit_polynomial(min(_dihedral_images(p.partner)))[-1]


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

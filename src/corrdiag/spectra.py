"""Eigenvalues, empirical moments, ensembles, and the one text-file writer."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._parallel import check_memory, parallel_map
from .sampler import GeneratorSpec, _kept_bytes, build_matrix, child_seed

TRACE_MOMENT_MAX_K = 12
TRACE_MOMENT_MAX_N = 500


def eigenvalues_symmetric(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix, sorted ascending."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix entries must be finite")
    return np.linalg.eigvalsh(matrix)


def empirical_moments(eigenvalues: np.ndarray, kmax: int) -> np.ndarray:
    """Vector of (1/n) * sum(lambda^k) for k = 1..kmax."""
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    out = np.empty(kmax)
    acc = np.ones_like(eigenvalues)
    for k in range(1, kmax + 1):
        acc = acc * eigenvalues
        out[k - 1] = acc.mean()
    return out


def trace_moment_direct(matrix: np.ndarray, k: int) -> float:
    """(1/n) * trace(M^k) by repeated matrix product — the eigenvalue-free route."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if not 1 <= k <= TRACE_MOMENT_MAX_K:
        raise ValueError(f"k must be in 1..{TRACE_MOMENT_MAX_K}, got {k}")
    if n > TRACE_MOMENT_MAX_N:
        raise ValueError(f"n={n} exceeds the cost guard {TRACE_MOMENT_MAX_N}")
    power = matrix
    for _ in range(k - 1):
        power = power @ matrix
    return float(np.trace(power)) / n


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Pooled results of one ensemble run.

    ``counts`` are the in-range histogram counts; together with underflow
    and overflow they sum to realizations * n exactly.
    """

    n: int
    realizations: int
    kmax: int
    per_realization: np.ndarray  # (realizations, kmax)
    moments: np.ndarray
    moment_se: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray
    underflow: int
    overflow: int

    def total_count(self) -> int:
        return int(self.counts.sum()) + self.underflow + self.overflow


def run_ensemble(
    n: int,
    gen: GeneratorSpec,
    realizations: int,
    kmax: int = 6,
    bins: int = 100,
    hist_range: tuple[float, float] = (-5.0, 5.0),
    seed: int = 0,
) -> EnsembleStats:
    """Sample, diagonalize and pool ``realizations`` independent matrices.

    Each worker folds its share of the realizations (`corrdiag._parallel`):
    it writes each moment row into one array by realization index and sums
    its histogram counts, underflow and overflow, and the shares' integer
    sums are added at the end, so the aggregate does not depend on the
    thread count.  The memory guard counts per worker 17n^2 bytes (the
    matrix, the copy ``eigvalsh`` hands LAPACK and the n^2-byte finiteness
    mask), and in 8-byte words of bins + 1 the three temporaries of
    ``np.histogram`` and the share's running counts; shared, in 8-byte words,
    the bins + 1 edges, the moment array, and the temporary and the ufunc
    buffer (at most ``np.getbufsize()`` words) of its standard error, plus
    8 KiB of Python objects and array headers and the tables the builds keep
    (`sampler._kept_bytes`).
    """
    if realizations < 1:
        raise ValueError(f"realizations must be >= 1, got {realizations}")
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    lo, hi = hist_range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"histogram range must be finite and increasing, got {hist_range}")
    check_memory(f"n={n}, {realizations} realization(s) of {bins} bins",
                 17 * n * n + 32 * (bins + 1),
                 8 * (bins + 1 + 2 * realizations * kmax + min(realizations * kmax, np.getbufsize()))
                 + 2**13 + _kept_bytes(gen, n),
                 jobs=realizations)
    edges = np.linspace(lo, hi, bins + 1)
    per = np.empty((realizations, kmax))

    def fold(share):
        counts, under, over = np.zeros(bins, dtype=np.int64), 0, 0
        for r in share:
            eigenvalues = eigenvalues_symmetric(build_matrix(n, gen, realization=r, seed=seed))
            per[r] = empirical_moments(eigenvalues, kmax)
            counts += np.histogram(eigenvalues, bins=edges)[0]
            under += int((eigenvalues < lo).sum())
            over += int((eigenvalues > hi).sum())
        return counts, under, over

    shares = parallel_map(fold, range(realizations))
    counts, underflow, overflow = (sum(column) for column in zip(*shares))
    moments = per.mean(axis=0)
    if realizations > 1:
        moment_se = per.std(axis=0, ddof=1) / math.sqrt(realizations)
    else:
        moment_se = np.zeros(kmax)
    return EnsembleStats(
        n, realizations, kmax, per, moments, moment_se,
        edges, counts, underflow, overflow,
    )


CONCENTRATION_MIN_SIZES = 3  # sizes `concentration_probe` fits its slope through


def concentration_probe(
    n_grid: tuple[int, ...],
    gen: GeneratorSpec,
    k: int,
    realizations: int,
    seed: int = 0,
) -> dict:
    """Fourth central moment of trace(X^k) along a size grid, with its
    log-log slope against n."""
    if len(n_grid) < CONCENTRATION_MIN_SIZES:
        raise ValueError(f"need at least {CONCENTRATION_MIN_SIZES} grid points, got {len(n_grid)}")
    if realizations < 200:
        raise ValueError(f"need at least 200 realizations, got {realizations}")
    fourth = []
    for n in n_grid:
        stats = run_ensemble(n, gen, realizations, kmax=k, seed=child_seed(seed, n))
        traces = n * stats.per_realization[:, k - 1]
        fourth.append(float(np.mean((traces - traces.mean()) ** 4)))
    slope = float(np.polyfit(np.log(np.asarray(n_grid, float)), np.log(fourth), 1)[0])
    return {"n_grid": tuple(n_grid), "k": k, "fourth_central": fourth, "slope": slope}


def render(header: Iterable[str], rows: Iterable[str]) -> str:
    """Text of every corrdiag output: ``# `` header lines, then the rows, each
    line ending in a newline.  Headers carry no timestamps, so the same
    inputs give the same bytes on every run."""
    return "".join(f"# {line}\n" for line in header) + "".join(f"{row}\n" for row in rows)


def write_lines(path: str | Path, header: Iterable[str], rows: Iterable[str]) -> Path:
    """Write ``render(header, rows)`` to ``path``, creating its parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render(header, rows))
    return path


def write_histogram_csv(stats: EnsembleStats, path: str | Path,
                        header_lines: tuple[str, ...] = ()) -> Path:
    """CSV columns: bin_left, bin_right, count, density.

    Density normalizes by total eigenvalue count (including out-of-range
    ones) and bin width, so it integrates to the in-range mass.
    """
    total = stats.total_count()
    widths = np.diff(stats.bin_edges)
    rows = ["bin_left,bin_right,count,density"]
    for left, right, count, width in zip(
        stats.bin_edges[:-1], stats.bin_edges[1:], stats.counts, widths
    ):
        density = count / (total * width)
        rows.append(f"{left:.17g},{right:.17g},{int(count)},{density:.17g}")
    header = (*header_lines, f"underflow={stats.underflow} overflow={stats.overflow}")
    return write_lines(path, header, rows)


def write_moment_csv(rows: list[dict], path: str | Path,
                     header_lines: tuple[str, ...] = ()) -> Path:
    """CSV columns: k, empirical, SE, theoretical, theory_SE, z_score.  Theory
    values are exact: theory_SE is always 0, kept for six-field readers."""
    lines = ["k,empirical,SE,theoretical,theory_SE,z_score"]
    for row in rows:
        lines.append(
            f"{row['k']},{row['empirical']:.17g},{row['SE']:.17g},"
            f"{row['theoretical']:.17g},0,{row['z_score']:.17g}"
        )
    return write_lines(path, header_lines, lines)


def moment_comparison_rows(stats: EnsembleStats, theory: dict[int, float]) -> list[dict]:
    """Pair empirical ensemble moments with exact theory values, k -> value.

    The z-score is (empirical - theory) / SE, SE the ensemble's standard
    error; at SE = 0 it is 0 on a match and an infinity of the gap's sign.
    """
    rows = []
    for k in sorted(theory.keys() & range(1, stats.kmax + 1)):
        theo = theory[k]
        emp = float(stats.moments[k - 1])
        se = float(stats.moment_se[k - 1])
        if se > 0:
            z = (emp - theo) / se
        else:
            z = 0.0 if emp == theo else math.copysign(math.inf, emp - theo)
        rows.append({"k": k, "empirical": emp, "SE": se, "theoretical": theo, "z_score": z})
    return rows

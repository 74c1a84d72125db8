"""Exhaustive closed-walk counts behind the partition combinatorics.

A closed walk (p_1,...,p_k) on {1,...,n} has steps d_i = p_{i+1} - p_i
(cyclically).  Its step magnitudes |d_i| induce an equality pattern on
{1,...,k}; walks whose pattern is exactly a pair partition are "matched",
and a matched walk is "opposed" when every paired step is reversed
(d_i = -d_j within each block).  The "solutions" of a partition are all
walks with d_i = -d_j within each block, further coincidences of |d_i|
(zero steps included) allowed: the integer points of the partition's
cancellation system x_i - x_{i-1} + x_j - x_{j-1} = 0 on {0,...,n-1}, i.e.
the lattice points of n times the polytope whose volume `corrdiag.volumes`
defines.  Normalized by n^(k/2+1) they converge to that volume (for
non-crossing partitions they equal it at every n), while the opposed count
sits below them by O(n^(k/2)) walks with extra coincidences.  For each walk
we also count shared matrix
cells: index pairs i < j whose steps touch the same unordered cell
{p_i, p_{i+1}} = {p_j, p_{j+1}} — and, per block, whether that block itself
is cell-tied.  Everything is exact integer counting, chunked over p_1:
one walk grid and one set of per-pair bitmasks per chunk (`_walk_masks`)
serve both the census and the search for a walk below the cell bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._parallel import parallel_map
from .partitions import PairPartition, enumerate_pair_partitions, height

COST_GUARD = 10**8


@dataclass(eq=False)
class PartitionTally:
    matched: int = 0
    opposed: int = 0
    solutions: int = 0  # walks solving the cancellation system, opposed ones included
    shared_cells: dict[int, int] = field(default_factory=dict)  # m value -> opposed walks
    block_ties: dict[tuple[int, int], int] = field(default_factory=dict)


@dataclass(eq=False)
class WalkCensus:
    n: int
    k: int
    total_walks: int
    tallies: dict[str, PartitionTally]
    nonpair_walks: int

    def partition_sum_identity(self) -> bool:
        """All matched walks plus the rest must account for every walk."""
        return self.nonpair_walks + sum(t.matched for t in self.tallies.values()) == self.total_walks


def _check_cost(n: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n**k > COST_GUARD:
        raise ValueError(f"n^k = {n**k} exceeds the cost guard {COST_GUARD}")


def _signature(p: PairPartition, pair_index) -> int:
    """Bitmask of p's blocks: bit b is set when pair_index[b] is a block (0-based)."""
    blocks = {(a - 1, b - 1) for a, b in p.blocks}
    return sum(1 << bit for bit, ij in enumerate(pair_index) if ij in blocks)


def _walk_masks(n: int, k: int, p1: int, pair_index):
    """Every closed walk starting at p_1 = p1, one column each.

    Returns the (k+1)-row position grid and, per walk, three bitmasks over
    ``pair_index`` (|d_i| = |d_j|; d_i = -d_j; steps i and j share a cell)
    plus the number of cell-sharing pairs.
    """
    grids = np.indices((n,) * (k - 1), dtype=np.int32).reshape(k - 1, -1)
    width = grids.shape[1]
    first = np.full(width, p1, dtype=np.int32)
    positions = np.vstack([first, grids, first])  # closed: p_{k+1} = p_1
    steps = positions[1:] - positions[:-1]
    magnitudes = np.abs(steps)

    eq_mask = np.zeros(width, dtype=np.int64)
    neg_mask = np.zeros(width, dtype=np.int64)
    cell_mask = np.zeros(width, dtype=np.int64)
    cell_count = np.zeros(width, dtype=np.int16)
    for bit, (i, j) in enumerate(pair_index):
        eq_mask |= (magnitudes[i] == magnitudes[j]).astype(np.int64) << bit
        neg_mask |= (steps[i] == -steps[j]).astype(np.int64) << bit
        tied = ((positions[i] == positions[j]) & (positions[i + 1] == positions[j + 1])) | (
            (positions[i] == positions[j + 1]) & (positions[i + 1] == positions[j])
        )
        cell_mask |= tied.astype(np.int64) << bit
        cell_count += tied
    return positions, eq_mask, neg_mask, cell_mask, cell_count


def _chunk_tallies(n: int, k: int, p1: int, partitions, pair_index, signatures):
    _, eq_mask, neg_mask, cell_mask, cell_count = _walk_masks(n, k, p1, pair_index)
    out = []
    matched_any = np.zeros_like(eq_mask, dtype=bool)
    for p in partitions:
        sig = signatures[p.canonical()]
        is_matched = eq_mask == sig
        matched_any |= is_matched
        solves = (neg_mask & sig) == sig
        is_opposed = is_matched & solves
        values, counts = np.unique(cell_count[is_opposed], return_counts=True)
        ties = {}
        for a, b in p.blocks:
            bit = pair_index.index((a - 1, b - 1))
            ties[(a, b)] = int((is_opposed & ((cell_mask >> bit) & 1).astype(bool)).sum())
        out.append((
            int(is_matched.sum()),
            int(is_opposed.sum()),
            int(np.count_nonzero(solves)),
            {int(v): int(c) for v, c in zip(values, counts)},
            ties,
        ))
    return out, int((~matched_any).sum())


@lru_cache(maxsize=16)
def walk_census(n: int, k: int) -> WalkCensus:
    """Exact per-partition walk counts at size n; treat the result as read-only."""
    _check_cost(n, k)
    partitions = enumerate_pair_partitions(k)
    pair_index = list(itertools.combinations(range(k), 2))
    signatures = {p.canonical(): _signature(p, pair_index) for p in partitions}

    chunks = parallel_map(
        lambda p1: _chunk_tallies(n, k, p1, partitions, pair_index, signatures),
        range(n),
    )
    tallies = {p.canonical(): PartitionTally(block_ties={b: 0 for b in p.blocks})
               for p in partitions}
    nonpair = 0
    for chunk, chunk_nonpair in chunks:
        nonpair += chunk_nonpair
        for p, (matched, opposed, solutions, cells, ties) in zip(partitions, chunk):
            t = tallies[p.canonical()]
            t.matched += matched
            t.opposed += opposed
            t.solutions += solutions
            for value, count in cells.items():
                t.shared_cells[value] = t.shared_cells.get(value, 0) + count
            for block, count in ties.items():
                t.block_ties[block] += count
    return WalkCensus(n, k, n**k, tallies, nonpair)


def opposed_ratio(census: WalkCensus, p: PairPartition) -> float:
    """Opposed-walk count normalized by n^(k/2 + 1)."""
    return census.tallies[p.canonical()].opposed / census.n ** (census.k // 2 + 1)


def solution_ratio(census: WalkCensus, p: PairPartition) -> float:
    """Cancellation-system solution count normalized by n^(k/2 + 1).

    This is the lattice-point count whose limit is the partition's volume.
    At k <= 6 it equals volume + (1 - volume)/n^2 at every size checked,
    against an O(1/n) shortfall for the opposed ratio.
    """
    return census.tallies[p.canonical()].solutions / census.n ** (census.k // 2 + 1)


def extrapolated_opposed_ratio(p: PairPartition, n_grid: tuple[int, ...]) -> float:
    """Intercept of a linear fit of the opposed ratio against 1/n.

    The raw ratio converges like c0 + c1/n + ..., so two or more sizes give
    a far better estimate of the limit than the largest affordable n alone.
    """
    if len(n_grid) < 2:
        raise ValueError("extrapolation needs at least two sizes")
    ratios = [opposed_ratio(walk_census(n, p.k), p) for n in n_grid]
    inv = 1.0 / np.asarray(n_grid, dtype=np.float64)
    return float(np.polyfit(inv, ratios, 1)[1])


def check_cell_bound(n: int, k: int) -> dict:
    """Verify m >= height on every opposed walk of every pair partition; exact."""
    census = walk_census(n, k)
    violations = []
    for p in enumerate_pair_partitions(k):
        tally = census.tallies[p.canonical()]
        floor = height(p)
        bad = {v: c for v, c in tally.shared_cells.items() if v < floor}
        if bad:
            violations.append({
                "partition": p.canonical(),
                "height": floor,
                "offending_cell_counts": bad,
                "example": _find_low_cell_walk(n, k, p, floor),
            })
    return {"n": n, "k": k, "ok": not violations, "violations": violations}


def _find_low_cell_walk(n: int, k: int, p: PairPartition, floor: int):
    """First opposed walk of ``p`` with fewer than ``floor`` shared cells, as
    1-based positions (p_1, ..., p_k), or None when there is none."""
    pair_index = list(itertools.combinations(range(k), 2))
    sig = _signature(p, pair_index)
    for p1 in range(n):
        positions, eq_mask, neg_mask, _, cell_count = _walk_masks(n, k, p1, pair_index)
        hit = np.flatnonzero((eq_mask == sig) & ((neg_mask & sig) == sig) & (cell_count < floor))
        if hit.size:
            return tuple(int(x) + 1 for x in positions[:-1, hit[0]])
    return None


def _decay_flags(ratios: list[float]) -> dict:
    nonzero = any(r > 0 for r in ratios)
    return {
        "ratios": ratios,
        "identically_zero": not nonzero,
        "strictly_decreasing": all(a > b for a, b in zip(ratios, ratios[1:])),
        "final_under_half": nonzero and ratios[-1] < 0.5 * ratios[0],
    }


def check_sn_minus_snstar_decay(n_grid: tuple[int, ...], k: int) -> dict:
    """Matched-but-not-opposed walks, normalized by n^(k/2+1), along a size grid.

    A partition passes when its ratio either vanishes identically (the
    excess is empty, so the bound holds exactly) or decreases strictly.
    """
    if len(n_grid) < 2:
        raise ValueError("need at least two sizes")
    censuses = {n: walk_census(n, k) for n in n_grid}
    report = {"n_grid": tuple(n_grid), "k": k, "partitions": {}}
    for p in enumerate_pair_partitions(k):
        ratios = [
            (censuses[n].tallies[p.canonical()].matched
             - censuses[n].tallies[p.canonical()].opposed) / n ** (k // 2 + 1)
            for n in n_grid
        ]
        flags = _decay_flags(ratios)
        flags["pass"] = flags["identically_zero"] or flags["strictly_decreasing"]
        report["partitions"][p.canonical()] = flags
    report["ok"] = all(v["pass"] for v in report["partitions"].values())
    return report


def check_excess_crossing_decay(
    n_grid: tuple[int, ...], k: int, p: PairPartition, block: tuple[int, int]
) -> dict:
    """Cell-tied opposed walks of one crossed block, normalized by n^(k/2+1).

    The hypothesis requires ``block`` to interleave with some other block of
    the partition.  Ratios identically zero mean the tie is impossible at
    every size, which satisfies the bound exactly.
    """
    if len(n_grid) < 2:
        raise ValueError("need at least two sizes")
    if block not in p.blocks:
        raise ValueError(f"{block} is not a block of {p.canonical()}")
    a, b = block
    crossed = any(
        (a < c < b < d) or (c < a < d < b) for c, d in p.blocks if (c, d) != block
    )
    if not crossed:
        raise ValueError(f"block {block} of {p.canonical()} is not crossed by any other block")
    ratios = [
        walk_census(n, k).tallies[p.canonical()].block_ties[block] / n ** (k // 2 + 1)
        for n in n_grid
    ]
    flags = _decay_flags(ratios)
    flags["pass"] = flags["identically_zero"] or flags["strictly_decreasing"]
    return {"n_grid": tuple(n_grid), "k": k, "partition": p.canonical(),
            "block": block, **flags}


def census_report(census: WalkCensus) -> dict:
    """JSON-ready report: per-partition counts, ratios and cell histograms."""
    norm = census.n ** (census.k // 2 + 1)
    partitions = {}
    for key, tally in sorted(census.tallies.items()):
        partitions[key] = {
            "matched": tally.matched,
            "opposed": tally.opposed,
            "opposed_ratio": tally.opposed / norm,
            "shared_cell_histogram": {str(v): c for v, c in sorted(tally.shared_cells.items())},
            "block_ties": {f"{a}-{b}": c for (a, b), c in sorted(tally.block_ties.items())},
        }
    return {
        "n": census.n,
        "k": census.k,
        "total_walks": census.total_walks,
        "nonpair_walks": census.nonpair_walks,
        "partition_sum_identity": census.partition_sum_identity(),
        "partitions": partitions,
    }

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
sits below them by O(n^(k/2)) walks with extra coincidences.  For each
opposed walk we also count shared matrix cells: index pairs i < j whose
steps touch the same unordered cell {p_i, p_{i+1}} = {p_j, p_{j+1}} — and,
per block, whether that block itself is cell-tied.

Everything is exact integer counting over every walk.  The walks are
split by p_1 into chunks and by (p_2, ..., p_k) into slabs of at most
`_SLAB` walks, so a census holds one slab per worker and its memory stays
bounded whatever n is.  Each walk carries two bitmasks with one bit per
pair of steps: |d_i| = |d_j| and d_i = -d_j.  The positions p_2..p_k, the
steps d_2..d_{k-1} and the bits of every pair among those steps do not
depend on p_1, so `_interior` builds them once per slab and `_walk_masks`
adds, per p_1, only the 2k-3 pairs involving d_1 or d_k.  A partition's
signature sets one bit per block, k/2 in all, and a walk's |step| mask
equals at most one signature.  So one bit count keeps the walks whose mask
has k/2 bits, one sorted lookup assigns each of those to its partition or
to none, and `np.bincount` tallies every partition in that one pass.
Shared cells are worked out afterwards, for the opposed walks only.  Both
the census and the search for a walk below the cell bound scan the walks
this way.

The census tallies only the chunks p_1 < n/2 (0-based) and counts each
twice, plus the middle chunk once when n is odd.  The reflection
p -> n-1-p of every site maps the walks starting at p_1 one to one onto
those starting at n-1-p_1 and negates every step.  That keeps |d_i| = |d_j|,
d_i = -d_j, and both shared-cell tests (p_i = p_j with d_i = d_j,
p_i = p_{j+1} with d_i = -d_j), so the two chunks tally the same counts
and the chunks p_1 >= n/2 need not be scanned.  The search for a walk
below the cell bound still scans every chunk in order, and within it every
slab in order, because it returns the first such walk.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._parallel import parallel_map, thread_count
from .partitions import PairPartition, blocks_cross, enumerate_pair_partitions, height

COST_GUARD = 10**8
MEMORY_GUARD = 2**29  # bytes of census arrays, as `_census_bytes` estimates them
MASK_BITS = 63  # step pairs an int64 bitmask holds below its sign bit
# Walks of the (p_2, ..., p_k) grid per slab.  A census holds one slab per
# worker, so its memory stays a few MiB at every n.  Narrower slabs lose time
# to numpy's per-call overhead (2^14 ran the benchmark's censuses about 40%
# slower); wider ones ran no faster and cost memory.
_SLAB = 2**16


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


def _mask_dtype(k: int):
    return np.int32 if k * (k - 1) // 2 <= 31 else np.int64


def _census_bytes(n: int, k: int, threads: int) -> int:
    """Peak bytes of census arrays, estimated from their shapes.

    Each worker holds one slab of W = min(n^(k-1), _SLAB) walks at a time.
    With b = 4 or 8 bytes per bitmask, the slab's interior holds int16
    positions (k-1)W and steps (k-2)W and two bitmasks: W(4k - 6 + 2b)
    bytes.  Building it takes at most W(12 + b): the int32 digits, or the
    two uint8 rows that gather a byte of bits, one pair's booleans and one
    widened row.  A chunk holds its own two bitmasks and, while it counts
    distinct reversal masks, their sorted copy.  The filter holds one uint8
    bit count and one bool per walk, then the int64 index of the candidate
    walks (those with k/2 |step| bits).  The lookup holds, per candidate, a
    copy of its mask, an int64 partition slot and its clipped copy.  That
    is at most W(3b + 24) when every walk is a candidate, as at k = 2; at
    the benchmark's shapes at most 37% of a chunk's walks are.  Shared
    cells are worked out for the opposed walks only, a small share of W.
    A worker also keeps up to four sets of tallies (its running total, the
    next one, a chunk's counts and their weighted copy), each
    8P(2 * pairs + 4) bytes for P pair partitions.  The estimate is
    threads * (W(4k + 30 + 6b) + 32P(2 * pairs + 4)).
    """
    width = min(n ** (k - 1), _SLAB)
    b = np.dtype(_mask_dtype(k)).itemsize
    parts, pairs = math.prod(range(k - 1, 0, -2)), k * (k - 1) // 2
    return threads * (width * (4 * k + 30 + 6 * b) + 32 * parts * (2 * pairs + 4))


def _check_cost(n: int, k: int) -> None:
    """Reject (n, k) before anything is allocated: too many walks, too many
    step pairs for one bitmask, or more census bytes than MEMORY_GUARD."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n**k > COST_GUARD:
        raise ValueError(f"n^k = {n**k} exceeds the cost guard {COST_GUARD}")
    pairs = k * (k - 1) // 2
    if pairs > MASK_BITS:
        raise ValueError(f"k={k} has {pairs} step pairs; a walk bitmask holds at most {MASK_BITS}")
    threads = thread_count()
    need = _census_bytes(n, k, threads)
    if need > MEMORY_GUARD:
        raise ValueError(
            f"(n, k) = ({n}, {k}) needs about {need / 2**20:.0f} MiB of census arrays with "
            f"{threads} thread(s), over the memory guard of {MEMORY_GUARD / 2**20:.0f} MiB"
        )


def _signature(p: PairPartition, pair_index) -> int:
    """Bitmask of p's blocks: bit b is set when pair_index[b] is a block (0-based)."""
    blocks = {(a - 1, b - 1) for a, b in p.blocks}
    return sum(1 << bit for bit, ij in enumerate(pair_index) if ij in blocks)


def _add_pairs(masks, pairs, steps) -> None:
    """OR the bits of each (bit, i, j) in ``pairs`` into ``masks`` in place:
    row 0 gets |d_i| = |d_j| and row 1 gets d_i = -d_j.  The bits of each
    mask byte are gathered in uint8 first: setting a bit there costs a
    quarter or less of setting it in int32 or int64 masks."""
    bits = np.empty(masks.shape, dtype=np.uint8)
    for byte, group in itertools.groupby(pairs, key=lambda pair: pair[0] // 8):
        bits[:] = 0
        for bit, i, j in group:
            reverse = steps[i] == -steps[j]
            weight = np.uint8(1 << bit % 8)
            bits[0] |= ((steps[i] == steps[j]) | reverse).view(np.uint8) * weight
            bits[1] |= reverse.view(np.uint8) * weight
        for row in range(2):
            masks[row] |= np.left_shift(bits[row], 8 * byte, dtype=masks.dtype)


@dataclass(frozen=True)
class _Interior:
    """The p_1-independent part of a slab of closed walks of length k on n sites."""

    k: int
    pair_index: list[tuple[int, int]]
    rows: np.ndarray  # (k-1, W) int16: p_2..p_k (0-based sites), one column per walk
    steps: np.ndarray  # (k-2, W) int16: d_2..d_{k-1}
    masks: np.ndarray  # (2, W) bits of the pairs among those steps


def _pair_index(k: int) -> list[tuple[int, int]]:
    """Step pairs (i, j), i < j (0-based), in bit order."""
    return list(itertools.combinations(range(k), 2))


def _slabs(n: int, k: int) -> list[tuple[int, int]]:
    """Bounds [lo, hi) of the slabs of the flattened (p_2, ..., p_k) grid."""
    width = n ** (k - 1)
    return [(lo, min(lo + _SLAB, width)) for lo in range(0, width, _SLAB)]


def _interior(n: int, k: int, lo: int = 0, hi: int | None = None) -> _Interior:
    """The p_1-independent part of walks lo..hi-1 (default: all n^(k-1)) of
    the flattened (p_2, ..., p_k) grid, in the C order of
    ``np.indices((n,) * (k - 1))``: p_2 varies slowest, p_k fastest.  The
    census and the search for a low-cell walk build it one slab at a time."""
    pair_index = _pair_index(k)
    hi = n ** (k - 1) if hi is None else hi
    flat = np.arange(lo, hi, dtype=np.int32)  # n^(k-1) < 2^31 under COST_GUARD
    rows = np.empty((k - 1, hi - lo), dtype=np.int16)
    for axis in range(k - 1):
        rows[axis] = flat // n ** (k - 2 - axis) % n
    steps = rows[1:] - rows[:-1]
    masks = np.zeros((2, rows.shape[1]), dtype=_mask_dtype(k))
    inner = [(bit, i, j) for bit, (i, j) in enumerate(pair_index) if i > 0 and j < k - 1]
    _add_pairs(masks, inner, [None, *steps, None])
    return _Interior(k, pair_index, rows, steps, masks)


def _walk_masks(interior: _Interior, p1: int) -> np.ndarray:
    """Bitmasks |d_i| = |d_j| and d_i = -d_j (one row each) of the closed
    walks starting at p_1 = p1 (0-based), one column per column of
    ``interior.rows``."""
    k, rows = interior.k, interior.rows
    start = np.int16(p1)
    steps = [rows[0] - start, *interior.steps, start - rows[-1]]  # closed: p_{k+1} = p_1
    masks = interior.masks.copy()
    edge = [(bit, i, j) for bit, (i, j) in enumerate(interior.pair_index) if i == 0 or j == k - 1]
    _add_pairs(masks, edge, steps)
    return masks


def _shared_cells(interior: _Interior, p1: int, walks: np.ndarray):
    """Shared-cell bitmask and count of the walks from p_1 = p1 at columns
    ``walks`` of ``interior.rows``.  Steps i < j share a cell when p_i = p_j
    with d_i = d_j, or p_i = p_{j+1} with d_i = -d_j."""
    start = np.int16(p1)
    positions = [start, *interior.rows[:, walks], start]
    steps = [b - a for a, b in zip(positions, positions[1:])]
    cell = np.zeros(len(walks), dtype=interior.masks.dtype)
    cell_count = np.zeros(len(walks), dtype=np.int8)
    for bit, (i, j) in enumerate(interior.pair_index):
        tied = (((positions[i] == positions[j]) & (steps[i] == steps[j]))
                | ((positions[i] == positions[j + 1]) & (steps[i] == -steps[j])))
        cell |= tied * cell.dtype.type(1 << bit)
        cell_count += tied
    return cell, cell_count


def _chunk_tallies(interior: _Interior, p1: int, signatures: np.ndarray):
    """Counts of the walks starting at p1, row r for the partition whose
    signature is ``signatures[r]`` (sorted): matched, opposed and solutions
    (P,), the shared-cell histogram (P, pairs + 1) and the cell ties of
    each pair bit (P, pairs).  Each walk is visited once; shared cells are
    worked out for the opposed walks only."""
    eq, neg = _walk_masks(interior, p1)
    parts, pairs = len(signatures), len(interior.pair_index)
    values, counts = np.unique(neg, return_counts=True)
    solutions = np.array([counts[(values & s) == s].sum() for s in signatures], dtype=np.int64)

    # a signature sets one bit per block, k/2 in all: no other walk can match
    # (masks never set their sign bit, so counting the bits of |eq| is exact)
    walks = np.flatnonzero(np.bitwise_count(eq) == interior.k // 2)
    eq = eq[walks]
    slot = np.minimum(np.searchsorted(signatures, eq), parts - 1)
    hit = signatures[slot] == eq
    walks, slot, eq = walks[hit], slot[hit], eq[hit]
    neg = neg[walks]
    matched = np.bincount(slot, minlength=parts)

    hit = (neg & eq) == eq
    walks, slot, eq = walks[hit], slot[hit], eq[hit]
    cell, cell_count = _shared_cells(interior, p1, walks)
    opposed = np.bincount(slot, minlength=parts)
    cells = np.bincount(slot * (pairs + 1) + cell_count, minlength=parts * (pairs + 1))

    ties = cell & eq
    hit = ties != 0
    slot, ties = slot[hit], ties[hit]
    block_ties = np.zeros((parts, pairs), dtype=np.int64)
    for bit in range(pairs):
        block_ties[:, bit] = np.bincount(slot[((ties >> bit) & 1).astype(bool)], minlength=parts)
    return matched, opposed, solutions, cells.reshape(parts, pairs + 1), block_ties


@lru_cache(maxsize=16)
def walk_census(n: int, k: int) -> WalkCensus:
    """Exact per-partition walk counts at size n; treat the result as read-only."""
    _check_cost(n, k)
    partitions = enumerate_pair_partitions(k)
    pair_index = _pair_index(k)
    signature = {p.canonical(): _signature(p, pair_index) for p in partitions}
    ordered = sorted(signature, key=signature.get)
    signatures = np.array([signature[key] for key in ordered], dtype=_mask_dtype(k))

    # chunk n-1-p1 is the mirror image of chunk p1: scan the lower half, count it twice
    weights = [2] * (n // 2) + [1] * (n % 2)

    def tally(group):
        """Weighted counts of the walks in ``group``'s slabs, one slab held at a time."""
        total = [0] * 5
        for bounds in group:
            interior = _interior(n, k, *bounds)
            for p1, weight in enumerate(weights):
                chunk = _chunk_tallies(interior, p1, signatures)
                total = [t + weight * c for t, c in zip(total, chunk)]
            del interior  # free this slab before the next one is built
        return total

    # each worker sums its own slabs, so the tallies held stay one set per worker
    slabs = _slabs(n, k)
    workers = min(thread_count(), len(slabs))
    groups = [slabs[w::workers] for w in range(workers)]
    matched, opposed, solutions, cells, ties = (
        sum(column) for column in zip(*parallel_map(tally, groups)))
    row = {key: r for r, key in enumerate(ordered)}
    tallies = {}
    for p in partitions:
        r = row[p.canonical()]
        tallies[p.canonical()] = PartitionTally(
            matched=int(matched[r]),
            opposed=int(opposed[r]),
            solutions=int(solutions[r]),
            shared_cells={v: int(c) for v, c in enumerate(cells[r]) if c},
            block_ties={(a, b): int(ties[r, pair_index.index((a - 1, b - 1))])
                        for a, b in p.blocks},
        )
    return WalkCensus(n, k, n**k, tallies, n**k - int(matched.sum()))


def _scale(n: int, k: int) -> int:
    """n^(k/2 + 1), the order of a partition's walk counts at size n."""
    return n ** (k // 2 + 1)


def opposed_ratio(census: WalkCensus, p: PairPartition) -> float:
    """Opposed-walk count normalized by n^(k/2 + 1)."""
    return census.tallies[p.canonical()].opposed / _scale(census.n, census.k)


def solution_ratio(census: WalkCensus, p: PairPartition) -> float:
    """Cancellation-system solution count normalized by n^(k/2 + 1).

    This is the lattice-point count whose limit is the partition's volume.
    At k <= 6 it equals volume + (1 - volume)/n^2 at every size checked,
    against an O(1/n) shortfall for the opposed ratio.
    """
    return census.tallies[p.canonical()].solutions / _scale(census.n, census.k)


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
    sig = _signature(p, _pair_index(k))
    for p1 in range(n):
        for bounds in _slabs(n, k):
            interior = _interior(n, k, *bounds)
            eq, neg = _walk_masks(interior, p1)
            walks = np.flatnonzero((eq == sig) & ((neg & sig) == sig))
            low = walks[_shared_cells(interior, p1, walks)[1] < floor]
            if low.size:
                return (p1 + 1, *(int(x) + 1 for x in interior.rows[:, low[0]]))
    return None


def _decay_flags(ratios: list[float]) -> dict:
    """A ratio sequence passes when it vanishes identically (the excess is
    empty, so the bound holds exactly) or decreases strictly."""
    zero = not any(r > 0 for r in ratios)
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    return {"ratios": ratios, "identically_zero": zero, "strictly_decreasing": decreasing,
            "pass": zero or decreasing}


def check_sn_minus_snstar_decay(n_grid: tuple[int, ...], k: int) -> dict:
    """Matched-but-not-opposed walks, normalized by n^(k/2+1), along a size grid;
    each partition is judged by `_decay_flags`."""
    if len(n_grid) < 2:
        raise ValueError("need at least two sizes")
    censuses = {n: walk_census(n, k) for n in n_grid}
    report = {"n_grid": tuple(n_grid), "k": k, "partitions": {}}
    for p in enumerate_pair_partitions(k):
        tallies = [censuses[n].tallies[p.canonical()] for n in n_grid]
        report["partitions"][p.canonical()] = _decay_flags(
            [(t.matched - t.opposed) / _scale(n, k) for n, t in zip(n_grid, tallies)]
        )
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
    if not any(blocks_cross(block, other) for other in p.blocks):
        raise ValueError(f"block {block} of {p.canonical()} is not crossed by any other block")
    ratios = [walk_census(n, k).tallies[p.canonical()].block_ties[block] / _scale(n, k)
              for n in n_grid]
    flags = _decay_flags(ratios)
    return {"n_grid": tuple(n_grid), "k": k, "partition": p.canonical(),
            "block": block, **flags}


def census_report(census: WalkCensus) -> dict:
    """JSON-ready report: per-partition counts, ratios and cell histograms."""
    norm = _scale(census.n, census.k)
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

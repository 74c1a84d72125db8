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
defines (`corrdiag.acceptance` explains which count criterion 7 compares).
For each opposed walk we also count shared matrix cells: index pairs i < j
whose steps touch the same unordered cell {p_i, p_{i+1}} = {p_j, p_{j+1}} —
and, per block, whether that block itself is cell-tied.

Everything is exact integer counting over every walk.  Every count the
census keeps depends only on the steps and on differences of positions,
so it scans only the n^(k-1) walks w with p_1 = 0 (0-based) and credits
each to the walks it stands for.  Let t(w) be the length of w's trailing
run of non-zero sites and s(w) = max w its span.  For j = 0..t(w) the
rotation roll(w, j) is the unique walk with lowest site 0 whose first 0
sits at index j, and each such rotation has n - s(w) translates on
{0, ..., n-1}: every walk is one translate of one rotation of one scanned
walk.  Rotating the step indices by j turns w's counts for a partition Q
into the counts of the rotated partition, block (a, b) becoming block
(a+j, b+j) mod k, and the shared-cell tests are symmetric in the two
steps, so a cell count is the same for every rotation.  So each slab
tallies its walks once, weighted by n - s and keyed by (partition, t),
and the census finally credits rotation j with the counts of every t >= j
through two tables: the rotated partition of each partition and the
rotated bit of each pair bit.

The scanned walks are split by (p_2, ..., p_k) into slabs of at most
`_SLAB` walks, so a census holds one slab per worker and its memory stays
bounded whatever n is.  `_slab` builds a slab's sites, row 0 all zeros,
and two bitmasks per walk with one bit per pair of steps: |d_i| = |d_j|
and d_i = -d_j.  A partition's signature sets one bit per block, k/2 in
all, and a walk's |step| mask equals at most one signature.  So one bit
count keeps the walks whose mask has k/2 bits, one sorted lookup assigns
each of those to its partition or to none, and `np.bincount` tallies every
partition in that one pass.  Shared cells are worked out afterwards, for
the opposed walks only.  The search for a walk below the cell bound scans
the same slabs in order, reading each partition's walks off the rotations
that carry scanned walks to it, and returns the first walk it finds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._parallel import check_memory, parallel_map, workers
from .partitions import PairPartition, _check_ground_set, blocks_cross, enumerate_pair_partitions, height

COST_GUARD = 10**8
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
    nonpair_walks: int  # walks that matched no partition, credited from the scanned ones

    def partition_sum_identity(self) -> bool:
        """Matched plus non-pair walks, each credited from the scanned walks,
        make up all n^k walks: the slabs, rotations and translates cover
        each walk once."""
        return self.nonpair_walks + sum(t.matched for t in self.tallies.values()) == self.total_walks


def _mask_dtype(k: int):
    return np.int32 if k * (k - 1) // 2 <= 31 else np.int64


def _census_bytes(n: int, k: int) -> int:
    """Peak bytes of one worker's census arrays, estimated from their shapes.

    Each worker holds one slab of W = min(n^(k-1), _SLAB) walks from p_1 = 0
    at a time.  With b = 4 or 8 bytes per bitmask, a slab being tallied
    holds W(2k + 3 + 2b) bytes: its k x W int16 sites, its two bitmasks, an
    int8 trailing run and an int16 weight.  (Building the slab takes at
    most W(2k + 5 + b) more, for its transient k x W int16 steps and the
    bytes the bits are gathered in, less than the lookup stage below.)  On
    top of that comes the largest of three stages:

    - `np.unique` of the reversal masks: W(25 + 2b) for a flattened and a
      sorted copy of the masks, the int64 sort order, one bool per walk and
      two int64 index rows, plus the D distinct masks, bD.
    - The solutions table: the int64 key and float64 weights that build it,
      16W, then 8kD for its D x k float64 rows and as much again for the
      rows cut down for one bit of step 1, plus 2b + 10 bytes per mask for
      the masks and their tests.  D <= min(W, 2^pairs), so this assumes
      every reversal mask in the slab is distinct.
    - The lookup and shared cells: at most W(2b + 56) when every walk is a
      candidate (has k/2 |step| bits), as at k = 2, for the candidates'
      masks, int64 indices, slots and keys, and their bincount weights.

    A worker also keeps up to four sets of tallies (its running total, a
    slab's counts, and their sum over workers as float64 and int64), each
    8k(P(2 * pairs + 4) + 1) bytes for P pair partitions: matched, opposed,
    solutions, the shared-cell histogram and the block ties, by t.
    """
    width = min(n ** (k - 1), _SLAB)
    b = np.dtype(_mask_dtype(k)).itemsize
    parts, pairs = math.prod(range(k - 1, 0, -2)), k * (k - 1) // 2
    masks = min(width, 2**pairs)
    stage = max(width * (25 + 2 * b) + b * masks,
                16 * width + masks * (16 * k + 2 * b + 10),
                width * (2 * b + 56))
    return width * (2 * k + 3 + 2 * b) + stage + 32 * k * (parts * (2 * pairs + 4) + 1)


def _check_cost(n: int, k: int) -> None:
    """Reject (n, k) before anything is allocated: a k with no pair
    partitions, too many walks, too many step pairs for one bitmask, or more
    census bytes, one slab per worker, than the memory guard allows."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_ground_set(k)
    if n**k > COST_GUARD:
        raise ValueError(f"n^k = {n**k} exceeds the cost guard {COST_GUARD}")
    pairs = k * (k - 1) // 2
    if pairs > MASK_BITS:
        raise ValueError(f"k={k} has {pairs} step pairs; a walk bitmask holds at most {MASK_BITS}")
    check_memory(f"(n, k) = ({n}, {k})", _census_bytes(n, k), jobs=len(_slabs(n, k)))


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


def _pair_index(k: int) -> list[tuple[int, int]]:
    """Step pairs (i, j), i < j (0-based), in bit order."""
    return list(itertools.combinations(range(k), 2))


def _signatures(k: int):
    """The canonical forms of k's pair partitions in order of their
    signatures, and those signatures, sorted for the census's lookup.  A
    partition's signature sets bit b when pair b of `_pair_index` is one of
    its blocks (0-based)."""
    bit = {(i + 1, j + 1): b for b, (i, j) in enumerate(_pair_index(k))}
    signature = {p.canonical(): sum(1 << bit[ab] for ab in p.blocks)
                 for p in enumerate_pair_partitions(k)}
    ordered = sorted(signature, key=signature.get)
    return ordered, np.array([signature[key] for key in ordered], dtype=_mask_dtype(k))


def _slabs(n: int, k: int) -> list[tuple[int, int]]:
    """Bounds [lo, hi) of the slabs of the flattened (p_2, ..., p_k) grid."""
    width = n ** (k - 1)
    return [(lo, min(lo + _SLAB, width)) for lo in range(0, width, _SLAB)]


def _slab(n: int, k: int, lo: int, hi: int):
    """Walks lo..hi-1 from p_1 = 0 of the flattened (p_2, ..., p_k) grid, in
    the C order of ``np.indices((n,) * (k - 1))``: p_2 varies slowest, p_k
    fastest.  Returns their sites, a (k, W) int16 array with one column per
    walk and row 0 all zeros, and their bitmasks |d_i| = |d_j| and
    d_i = -d_j, one row each."""
    flat = np.arange(lo, hi, dtype=np.int32)  # n^(k-1) < 2^31 under COST_GUARD
    rows = np.zeros((k, hi - lo), dtype=np.int16)
    for axis in range(1, k):
        rows[axis] = flat // n ** (k - 1 - axis) % n
    del flat
    steps = np.roll(rows, -1, axis=0) - rows  # closed: p_{k+1} = p_1
    masks = np.zeros((2, hi - lo), dtype=_mask_dtype(k))
    _add_pairs(masks, [(bit, i, j) for bit, (i, j) in enumerate(_pair_index(k))], steps)
    return rows, masks


def _shared_cells(rows: np.ndarray):
    """Shared-cell bitmask and count of the walks whose sites are the
    columns of ``rows``.  Steps i < j share a cell when p_i = p_j with
    d_i = d_j, or p_i = p_{j+1} with d_i = -d_j."""
    k = len(rows)
    positions = [*rows, rows[0]]
    steps = [b - a for a, b in zip(positions, positions[1:])]
    cell = np.zeros(rows.shape[1], dtype=_mask_dtype(k))
    cell_count = np.zeros(rows.shape[1], dtype=np.int8)
    for bit, (i, j) in enumerate(_pair_index(k)):
        tied = (((positions[i] == positions[j]) & (steps[i] == steps[j]))
                | ((positions[i] == positions[j + 1]) & (steps[i] == -steps[j])))
        cell |= tied * cell.dtype.type(1 << bit)
        cell_count += tied
    return cell, cell_count


def _trailing_and_span(rows: np.ndarray):
    """t(w), the length of the trailing run of non-zero sites (int8), and
    the span max w (int16) of each walk of a slab, whose lowest site is
    its p_1 = 0."""
    trailing = np.zeros(rows.shape[1], dtype=np.int8)
    alive = np.ones(rows.shape[1], dtype=bool)
    for row in rows[:0:-1]:
        alive &= row != 0
        trailing += alive
    return trailing, rows.max(axis=0)


def _slab_tallies(n: int, k: int, lo: int, hi: int, signatures: np.ndarray):
    """Counts of the walks of slab [lo, hi), each weighted by its n - s
    translates (s its span) and keyed by t, its trailing run: matched,
    opposed and solutions (P, k) with row r for the partition whose
    signature is ``signatures[r]`` (sorted), the shared-cell histogram
    (P, k, pairs + 1), the cell ties of each pair bit (P, k, pairs), and
    all the slab's walks (k,).  Each walk is visited once; shared cells
    are worked out for the opposed walks only.

    ``np.bincount`` sums its weights in float64.  Every sum counts at most
    n^k <= COST_GUARD < 2^53 walks, so each is an exact integer and is cast
    back to int64 without loss."""
    rows, (eq, neg) = _slab(n, k, lo, hi)
    trailing, span = _trailing_and_span(rows)
    weight = n - span  # int16: n^2 <= COST_GUARD keeps n below 2^15
    del span
    parts, pairs = len(signatures), k * (k - 1) // 2

    # solutions: a (distinct reversal mask, t) table of weighted walks, then
    # for each signature the sum of the rows whose mask contains it.  Bits
    # 0..k-2 are the pairs (1, 2), ..., (1, k), so a signature's lowest bit is
    # its block holding step 1: the rows are first cut down to those masks.
    values, key = np.unique(neg, return_inverse=True)
    key *= k
    key += trailing
    table = np.bincount(key, weights=weight, minlength=len(values) * k).reshape(-1, k)
    del key
    solutions = np.empty((parts, k))
    first = signatures & -signatures
    for bit in range(k - 1):
        held = (values >> bit) & 1 == 1
        masks, sums = values[held], np.ascontiguousarray(table[held].T)
        for r in np.flatnonzero(first == 1 << bit):
            solutions[r] = sums @ ((masks & signatures[r]) == signatures[r])
    every = table.sum(axis=0)
    del values, table, held, masks, sums

    # a signature sets one bit per block, k/2 in all: no other walk can match
    # (masks never set their sign bit, so counting the bits of |eq| is exact)
    walks = np.flatnonzero(np.bitwise_count(eq) == k // 2)
    eq = eq[walks]
    slot = np.minimum(np.searchsorted(signatures, eq), parts - 1)
    hit = signatures[slot] == eq
    walks, key, eq = walks[hit], slot[hit] * k + trailing[walks[hit]], eq[hit]
    neg = neg[walks]
    matched = np.bincount(key, weights=weight[walks], minlength=parts * k)

    hit = (neg & eq) == eq
    walks, key, eq = walks[hit], key[hit], eq[hit]
    cell, cell_count = _shared_cells(rows[:, walks])
    weight = weight[walks]
    opposed = np.bincount(key, weights=weight, minlength=parts * k)
    cells = np.bincount(key * (pairs + 1) + cell_count, weights=weight,
                        minlength=parts * k * (pairs + 1))

    ties = cell & eq
    hit = ties != 0
    key, ties, weight = key[hit], ties[hit], weight[hit]
    block_ties = np.zeros((parts * k, pairs))
    for bit in range(pairs):
        tied = ((ties >> bit) & 1).astype(bool)
        block_ties[:, bit] = np.bincount(key[tied], weights=weight[tied], minlength=parts * k)
    return (matched.reshape(parts, k), opposed.reshape(parts, k), solutions,
            cells.reshape(parts, k, pairs + 1), block_ties.reshape(parts, k, pairs), every)


def _rotations(k: int, signatures: np.ndarray):
    """Where rotation j, w -> roll(w, j), sends each partition slot and each
    pair bit: (k, P) slots and (k, pairs) bits.  Step d_a of w is step
    d_{a+j} (mod k) of roll(w, j), so pair (a, b) becomes (a+j, b+j)."""
    pair_index = _pair_index(k)
    bit = {ij: b for b, ij in enumerate(pair_index)}
    bit_of = np.array([[bit[tuple(sorted(((a + j) % k, (b + j) % k)))] for a, b in pair_index]
                       for j in range(k)])
    has = (signatures[:, None] >> np.arange(len(pair_index))) & 1
    rotated = (has[None] << bit_of[:, None, :].astype(signatures.dtype)).sum(axis=2)
    return np.searchsorted(signatures, rotated), bit_of


def _credit_rotations(counts: np.ndarray, slot_of: np.ndarray, bit_of=None) -> np.ndarray:
    """Per-partition totals from counts keyed by (slot, t, ...): a walk with
    trailing run t gives rotations j = 0..t, so rotation j gets the counts of
    every t >= j, credited to the rotated slot (and, given ``bit_of``, to the
    rotated pair bit on the last axis)."""
    by_rotation = np.flip(np.cumsum(np.flip(counts, 1), axis=1), 1)
    total = np.zeros((counts.shape[0], *counts.shape[2:]), dtype=np.int64)
    index = (slot_of.T,) if bit_of is None else (slot_of.T[:, :, None], bit_of[None])
    np.add.at(total, index, by_rotation)
    return total


@lru_cache(maxsize=16)
def walk_census(n: int, k: int) -> WalkCensus:
    """Exact per-partition walk counts at size n; treat the result as read-only."""
    _check_cost(n, k)
    pair_index = _pair_index(k)
    ordered, signatures = _signatures(k)

    def tally(group):
        """Counts of the walks from p_1 = 0 in ``group``'s slabs, one slab held at a time."""
        total = _slab_tallies(n, k, *group[0], signatures)
        for bounds in group[1:]:
            for held, counts in zip(total, _slab_tallies(n, k, *bounds, signatures)):
                held += counts
        return total

    # each worker sums its own slabs, so the tallies held stay one set per worker
    slabs = _slabs(n, k)
    count = workers(len(slabs))
    groups = [slabs[w::count] for w in range(count)]
    matched, opposed, solutions, cells, ties, every = (
        sum(column).astype(np.int64) for column in zip(*parallel_map(tally, groups)))
    # a walk with trailing run t stands for its 1 + t rotations
    nonpair = int(np.arange(1, k + 1) @ (every - matched.sum(axis=0)))
    slot_of, bit_of = _rotations(k, signatures)
    matched, opposed, solutions, cells = (
        _credit_rotations(c, slot_of) for c in (matched, opposed, solutions, cells))
    ties = _credit_rotations(ties, slot_of, bit_of)
    row = {key: r for r, key in enumerate(ordered)}
    tallies = {}
    for p in enumerate_pair_partitions(k):
        r = row[p.canonical()]
        tallies[p.canonical()] = PartitionTally(
            matched=int(matched[r]),
            opposed=int(opposed[r]),
            solutions=int(solutions[r]),
            shared_cells={v: int(c) for v, c in enumerate(cells[r]) if c},
            block_ties={(a, b): int(ties[r, pair_index.index((a - 1, b - 1))])
                        for a, b in p.blocks},
        )
    return WalkCensus(n, k, n**k, tallies, nonpair)


def _scale(n: int, k: int) -> int:
    """n^(k/2 + 1), the order of a partition's walk counts at size n."""
    return n ** (k // 2 + 1)


def solution_ratio(census: WalkCensus, p: PairPartition) -> float:
    """Cancellation-system solution count normalized by n^(k/2 + 1); see
    `corrdiag.acceptance` for why criterion 7 compares it with the volume."""
    return census.tallies[p.canonical()].solutions / _scale(census.n, census.k)


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
    1-based positions (p_1, ..., p_k), or None when there is none.

    Every walk of p is a translate of roll(w, j) for a scanned walk w with
    t(w) >= j of the partition that rotation j sends to p, and it shares
    w's cell count.  The walks are tried in order of (slab column, j), an
    order that does not depend on the slab width."""
    ordered, signatures = _signatures(k)
    slot_of = _rotations(k, signatures)[0]
    # rotation j sends the partition in slot sources[j] to p
    sources = np.argmax(slot_of == ordered.index(p.canonical()), axis=1)
    for bounds in _slabs(n, k):
        rows, (eq, neg) = _slab(n, k, *bounds)
        trailing = _trailing_and_span(rows)[0]
        hits = []
        for j, sig in enumerate(signatures[sources]):
            walks = np.flatnonzero((trailing >= j) & (eq == sig) & ((neg & sig) == sig))
            low = walks[_shared_cells(rows[:, walks])[1] < floor]
            if low.size:
                hits.append((int(low[0]), j))
        if hits:
            column, j = min(hits)
            return tuple(int(x) + 1 for x in np.roll(rows[:, column], j))
    return None


def _decay_flags(ratios: list[float]) -> dict:
    """A ratio sequence passes when it vanishes identically (the excess is
    empty, so the bound holds exactly) or decreases strictly."""
    zero = not any(r > 0 for r in ratios)
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    return {"ratios": ratios, "identically_zero": zero, "strictly_decreasing": decreasing,
            "pass": zero or decreasing}


def _check_grid(n_grid: tuple[int, ...]) -> None:
    """The decay checks read their ratios along growing n: reject a grid
    of fewer than two sizes or one that is not strictly increasing."""
    if len(n_grid) < 2:
        raise ValueError("need at least two sizes")
    if any(a >= b for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError(f"sizes must be strictly increasing, got {tuple(n_grid)}")


def check_sn_minus_snstar_decay(n_grid: tuple[int, ...], k: int) -> dict:
    """Matched-but-not-opposed walks, normalized by n^(k/2+1), along a size grid;
    each partition is judged by `_decay_flags`."""
    _check_grid(n_grid)
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
    _check_grid(n_grid)
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

"""Exhaustive closed-walk counts behind the partition combinatorics.

A closed walk (p_1,...,p_k) on {1,...,n} has steps d_i = p_{i+1} - p_i
(cyclically).  Its step magnitudes |d_i| induce an equality pattern on
{1,...,k}; walks whose pattern is exactly a pair partition are "matched",
and a matched walk is "opposed" when every paired step is reversed
(d_i = -d_j within each block).  For each opposed walk we also count
shared matrix cells: index pairs i < j whose steps touch the same
unordered cell {p_i, p_{i+1}} = {p_j, p_{j+1}} — and, per block, whether
that block itself is cell-tied.  The census keeps only counts of the
walks it scans.  The walks that solve a partition's cancellation system,
further |d_i| coincidences allowed, are the lattice points of n - 1 times
the volume's polytope and are counted by `volumes.lattice_count`;
`corrdiag.acceptance` explains which of the two counts criterion 7
compares.

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
rotated ordinal of each of its blocks.

The scanned walks are split by (p_2, ..., p_k) into slabs.  A slab is a
run of whole prefixes (p_2, ..., p_{k-m}) times the trailing block of the
last m axes, m the most axes whose n^m walks fit `_SLAB`.  The block is
built once per census: its sites, the bits of the step pairs among its m
steps (the last returns to p_1 = 0), and its trailing runs and maxima.  A
walk is matched only if each |d| appears exactly twice, so a block walk
with some |step| three times, or with more |steps| seen once than the
k - m steps outside the block, ends no matched walk and no slab holds it.
A slab holds at most `_SLAB` kept walks, so a census holds one slab per
worker and its memory stays bounded whatever n is.  The tally of all
walks by t, which the non-pair count needs, is read off the block's
(run, max) counts: a walk's trailing run reaches into its prefix only
through a block of non-zero sites, and its span is the larger of the two
maxima.  `_slab` lays out a slab's sites, row 0 all zeros, and two bitmasks
per walk with one bit per pair of steps, |d_i| = |d_j| and d_i = -d_j,
taking the block's pairs from the block and working out only the pairs
with a step outside it.  A partition's signature sets one bit per block,
k/2 in all, and a walk's |step| mask equals at most one signature.  So one
bit count keeps the walks whose mask has k/2 bits, one sorted lookup
assigns each of those to its partition or to none, and `np.bincount`
tallies every partition in that one pass.  Shared cells are worked out
afterwards, for the opposed walks only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._parallel import check_memory, parallel_map
from .partitions import PairPartition, _check_ground_set, blocks_cross, enumerate_pair_partitions, height

COST_GUARD = 10**8  # most walks a census scans, n^(k-1)
MASK_BITS = 63  # step pairs an int64 bitmask holds below its sign bit
# Kept walks of the (p_2, ..., p_k) grid per slab, and the most walks of the
# trailing block.  A census holds one slab per worker, so its memory stays a
# few MiB at every n.  Narrower slabs lose time
# to numpy's per-call overhead (2^14 ran the benchmark's censuses about 40%
# slower); wider ones ran no faster and cost memory.
_SLAB = 2**16
# Bytes of the Python objects and array headers a census holds at any shape:
# its peak at (n, k) = (1, 2), where the arrays hold a few bytes, is 10-16 KiB
_CENSUS_OBJECTS = 2**15


@dataclass(eq=False)
class PartitionTally:
    """Counts of one partition's walks, all read off the scan."""

    matched: int = 0
    opposed: int = 0
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

    Each worker holds one slab of W <= min(n^(k-1), _SLAB) walks from
    p_1 = 0 at a time.  With b = 4 or 8 bytes per bitmask, a slab being
    tallied holds W(2k + 3 + 2b) bytes: its k x W int16 sites, its two
    bitmasks, an int8 trailing run and an int16 weight.  (Building the slab
    takes at most W(9 + b) more, for the bytes the bits are gathered in,
    the junction step and the temporaries of one step pair, less than the
    lookup below.)  On top of that comes the lookup and shared cells: at
    most W(2b + 56) when every walk is a candidate (has k/2 |step| bits),
    as at k = 2, for the candidates' masks, int64 indices, slots and keys,
    and their bincount weights.  A slab's P <= min(n^(k-1-m), _SLAB)
    prefixes take at most P(12k + 40): their int64 indices and digits, int16
    sites and steps, and the translates of the block under each.

    The census builds its trailing block of B = n^m <= _SLAB walks once:
    at most B(10m + 30) bytes for its int16 sites, steps and |steps|, the
    int8 tallies of equal |steps| and its runs and maxima, and 48(m + 1)n for
    its (run, max) counts and their translates.  It keeps less than that
    while the slabs are scanned, so its bytes are counted as if every
    worker held them.

    A worker also keeps up to four sets of tallies (its running total, a
    slab's counts, and their sum over workers as float64 and int64), each
    8k(P(pairs + k/2 + 3) + 1) bytes for P pair partitions: matched,
    opposed, the shared-cell histogram and the block ties, by t, and all
    walks by t.

    The Python objects and array headers every census holds whatever its
    shape add `_CENSUS_OBJECTS`, counted as if every worker held them.
    """
    m = _trailing_axes(n, k)
    width, prefixes = min(n ** (k - 1), _SLAB), min(n ** (k - 1 - m), _SLAB)
    b = np.dtype(_mask_dtype(k)).itemsize
    parts, pairs = math.prod(range(k - 1, 0, -2)), k * (k - 1) // 2
    return (width * (2 * k + 59 + 4 * b) + prefixes * (12 * k + 40)
            + n**m * (10 * m + 30) + 48 * (m + 1) * n
            + 32 * k * (parts * (pairs + k // 2 + 3) + 1) + _CENSUS_OBJECTS)


def _check_cost(n: int, k: int) -> None:
    """Reject (n, k) before anything is allocated: a k with no pair
    partitions, sites past int16, more scanned walks n^(k-1) than
    `COST_GUARD`, too many step pairs for one bitmask, or more census
    bytes, one slab per worker, than the memory guard allows."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_ground_set(k)
    if n >= 2**15:
        raise ValueError(f"n={n}: the census's int16 sites and weights hold n < 2^15")
    if n ** (k - 1) > COST_GUARD:
        raise ValueError(f"n^(k-1) = {n ** (k - 1)} scanned walks exceed the cost guard {COST_GUARD}")
    pairs = k * (k - 1) // 2
    if pairs > MASK_BITS:
        raise ValueError(f"k={k} has {pairs} step pairs; a walk bitmask holds at most {MASK_BITS}")
    check_memory(f"(n, k) = ({n}, {k})", _census_bytes(n, k), jobs=len(_slabs(n, k)))


def _add_pairs(masks, pairs) -> None:
    """OR the bits of each (bit, d_i, d_j) in ``pairs`` into ``masks`` in
    place: row 0 gets |d_i| = |d_j| and row 1 gets d_i = -d_j.  The steps
    need only broadcast to a row of ``masks``.  The bits of each mask byte
    are gathered in uint8 first: setting a bit there costs a quarter or less
    of setting it in int32 or int64 masks."""
    bits = np.empty(masks.shape, dtype=np.uint8)
    for byte, group in itertools.groupby(pairs, key=lambda pair: pair[0] // 8):
        bits[:] = 0
        for bit, d_i, d_j in group:
            reverse = d_i == -d_j
            weight = np.uint8(1 << bit % 8)
            bits[0] |= ((d_i == d_j) | reverse).view(np.uint8) * weight
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


def _trailing_axes(n: int, k: int) -> int:
    """m, the most trailing axes (p_{k-m+1}, ..., p_k) whose n^m walks fit
    one slab; 0 when even n walks do not."""
    m = 0
    while m < k - 1 and n ** (m + 1) <= _SLAB:
        m += 1
    return m


def _slab_step(n: int, k: int, kept: int | None = None) -> int:
    """Walks of the flattened (p_2, ..., p_k) grid per slab: as many whole
    prefixes (p_2, ..., p_{k-m}) as fit `_SLAB` walks when each prefix
    brings the ``kept`` walks of the trailing block (by default all n^m of
    them, which gives the most slabs)."""
    block = n ** _trailing_axes(n, k)
    return _SLAB // max(block if kept is None else kept, 1) * block


def _slabs(n: int, k: int, kept: int | None = None) -> range:
    """First walks of the slabs of the flattened (p_2, ..., p_k) grid; slab
    lo ends at min(lo + step, n^(k-1)), the range's step its width."""
    return range(0, n ** (k - 1), _slab_step(n, k, kept))


@dataclass(eq=False)
class _TrailingBlock:
    """A census's trailing block: the walks of its last m axes.

    ``sites`` (m, V) int16 holds the V block walks that some prefix can
    complete to a matched walk, in C order; ``masks`` their bits of the
    step pairs among the block's m steps d_{k-m}, ..., d_{k-1} (0-based;
    the last returns to p_1 = 0); ``run`` and ``top`` their trailing runs
    and maxima.  ``translates[r, u]`` counts the translates of all n^m block
    walks with trailing run r when their prefix has max u."""

    n: int
    k: int
    sites: np.ndarray
    masks: np.ndarray
    run: np.ndarray
    top: np.ndarray
    translates: np.ndarray


def _trailing_block(n: int, k: int) -> _TrailingBlock:
    """The trailing block of the (n, k) census, built once.  A walk is
    matched only if each |d| value appears exactly twice, so a block walk
    with some |step| three times, or with more |steps| seen once than the
    k - m steps outside the block, is no matched walk's tail: it is left
    out, and only ``translates`` still counts it."""
    m = _trailing_axes(n, k)
    grid = np.indices((n,) * m, dtype=np.int16).reshape(m, n**m)
    run, top = _trailing_and_span(grid)
    # under a prefix of max u, the counts[r, s] walks of run r and max s have
    # n - max(u, s) translates each: sum those with s <= u, then those with s > u
    counts = np.bincount(run.astype(np.intp) * n + top, minlength=(m + 1) * n).reshape(m + 1, n)
    free = n - np.arange(n)
    above = np.cumsum((counts * free)[:, :0:-1], axis=1)[:, ::-1]
    translates = np.cumsum(counts, axis=1) * free
    translates[:, :-1] += above
    steps = np.diff(grid, axis=0, append=np.zeros((1, n**m), dtype=np.int16))
    size = np.abs(steps)
    seen = np.zeros((m, n**m), dtype=np.int8)  # the other block steps of the same |d|
    for i, j in itertools.combinations(range(m), 2):
        same = size[i] == size[j]
        seen[i] += same
        seen[j] += same
    del size
    viable = np.flatnonzero((seen.max(axis=0, initial=0) < 2) & ((seen == 0).sum(axis=0) <= k - m))
    steps = steps[:, viable]
    masks = np.zeros((2, len(viable)), dtype=_mask_dtype(k))
    _add_pairs(masks, [(bit, steps[i + m - k], steps[j + m - k])
                       for bit, (i, j) in enumerate(_pair_index(k)) if i >= k - m])
    return _TrailingBlock(n, k, grid[:, viable], masks, run[viable], top[viable], translates)


def _slab(tail: _TrailingBlock, lo: int, hi: int):
    """Walks lo..hi-1 from p_1 = 0 of the flattened (p_2, ..., p_k) grid
    that ``tail`` keeps, in the C order of ``np.indices((n,) * (k - 1))``:
    p_2 varies slowest, p_k fastest; hi may pass the grid's end.  [lo, hi)
    covers whole prefixes (p_2, ..., p_{k-m}), each followed by every kept
    walk of the block.

    Returns their sites, a (k, W) int16 array with one column per walk and
    row 0 all zeros; their bitmasks |d_i| = |d_j| and d_i = -d_j, one row
    each; their trailing runs t (int8) and spans s (int16); and ``every``,
    all walks of [lo, hi), kept or not, weighted by n - s and keyed by t
    (k,) in int64, read off the block's translates by (run, prefix max)."""
    n, k, m = tail.n, tail.k, len(tail.sites)
    head, width = k - 1 - m, tail.sites.shape[1]
    first = np.arange(lo // n**m, min(hi, n ** (k - 1)) // n**m)
    prefix = np.array([first // n ** (head - 1 - axis) % n for axis in range(head)],
                      dtype=np.int16).reshape(head, len(first))
    run, top = _trailing_and_span(prefix)
    # a walk's trailing run reaches into its prefix only through a block of non-zero sites
    by_run = tail.translates[:, top]
    every = np.zeros(k, dtype=np.int64)
    every[:m] = by_run[:m].sum(axis=1)
    np.add.at(every, m + run, by_run[m])
    trailing = (np.multiply.outer(run, tail.run == m) + tail.run).reshape(-1)
    span = np.maximum.outer(top, tail.top).reshape(-1)

    rows = np.zeros((k, len(first), width), dtype=np.int16)
    rows[1:head + 1] = prefix[:, :, None]
    rows[head + 1:] = tail.sites[:, None, :]
    masks = np.empty((2, len(first), width), dtype=tail.masks.dtype)
    masks[:] = tail.masks[:, None, :]
    # the pairs with a step outside the block, sites taken as (P, 1) prefixes by (1, V) block walks
    zero = np.zeros((1, 1), dtype=np.int16)
    positions = [zero, *prefix[:, :, None], *tail.sites[:, None, :], zero]
    steps = [b - a for a, b in zip(positions, positions[1:])]
    _add_pairs(masks, [(bit, steps[i], steps[j])
                       for bit, (i, j) in enumerate(_pair_index(k)) if i < k - m])
    walks = len(first) * width
    return rows.reshape(k, walks), masks.reshape(2, walks), trailing, span, every


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
    """t, the length of the trailing run of non-zero sites (int8), and the
    max (int16) of each column of ``rows``: walks from p_1 = 0, whose run
    ends at p_1, or a census's prefixes or trailing block."""
    trailing = np.zeros(rows.shape[1], dtype=np.int8)
    alive = np.ones(rows.shape[1], dtype=bool)
    for row in rows[::-1]:
        alive &= row != 0
        trailing += alive
    return trailing, rows.max(axis=0, initial=0)


def _weighted_counts(key: np.ndarray, weight: np.ndarray, size: int) -> np.ndarray:
    """``np.bincount``'s float64 sums of ``weight`` by ``key``, float64 also
    when a slab has no such walk (``np.bincount`` then returns int64)."""
    return np.bincount(key, weights=weight, minlength=size).astype(np.float64, copy=False)


def _slab_tallies(tail: _TrailingBlock, lo: int, hi: int, signatures: np.ndarray):
    """Counts of the walks of slab [lo, hi), each weighted by its n - s
    translates (s its span) and keyed by t, its trailing run: matched and
    opposed (P, k) with row r for the partition whose signature is
    ``signatures[r]`` (sorted), the shared-cell histogram (P, k, pairs + 1),
    the cell ties of each block (P, k, k/2), blocks in bit order, and all
    the slab's walks (k,), int64 from `_slab`.  Each kept walk is visited
    once; shared cells are worked out for the opposed walks only.

    ``np.bincount`` sums the other tallies' weights in float64.  Every sum
    counts at most n^k walks, and `_check_cost` keeps n < 2^15 and
    n^(k-1) <= COST_GUARD, so n^k < 2^15 * 10^8 < 2^53: each sum is an exact
    integer and is cast back to int64 without loss."""
    n, k = tail.n, tail.k
    rows, (eq, neg), trailing, span, every = _slab(tail, lo, hi)
    weight = n - span  # int16: `_check_cost` keeps n below 2^15
    del span
    parts, pairs, half = len(signatures), k * (k - 1) // 2, k // 2

    # a signature sets one bit per block, k/2 in all: no other walk can match
    # (masks never set their sign bit, so counting the bits of |eq| is exact)
    walks = np.flatnonzero(np.bitwise_count(eq) == half)
    eq = eq[walks]
    slot = np.minimum(np.searchsorted(signatures, eq), parts - 1)
    hit = signatures[slot] == eq
    walks, key, eq = walks[hit], slot[hit] * k + trailing[walks[hit]], eq[hit]
    neg = neg[walks]
    matched = _weighted_counts(key, weight[walks], parts * k)

    hit = (neg & eq) == eq
    walks, key, eq = walks[hit], key[hit], eq[hit]
    cell, cell_count = _shared_cells(rows[:, walks])
    weight = weight[walks]
    opposed = _weighted_counts(key, weight, parts * k)
    cells = _weighted_counts(key * (pairs + 1) + cell_count, weight, parts * k * (pairs + 1))

    # only block bits can tie: take each walk's blocks from its lowest bit up
    hit = (cell & eq) != 0
    key, cell, eq, weight = key[hit], cell[hit], eq[hit], weight[hit]
    block_ties = np.zeros((parts * k, half))
    for block in range(half):
        low = eq & -eq
        tied = (cell & low) != 0
        block_ties[:, block] = np.bincount(key[tied], weights=weight[tied], minlength=parts * k)
        eq ^= low
    return (matched.reshape(parts, k), opposed.reshape(parts, k),
            cells.reshape(parts, k, pairs + 1), block_ties.reshape(parts, k, half), every)


def _rotations(k: int, signatures: np.ndarray):
    """Where rotation j, w -> roll(w, j), sends each partition slot, each
    pair bit and each block of each slot: (k, P) slots, (k, pairs) bits and
    (k, P, k/2) block ordinals, blocks in bit order.  Step d_a of w is step
    d_{a+j} (mod k) of roll(w, j), so pair (a, b) becomes (a+j, b+j)."""
    pair_index = _pair_index(k)
    bit = {ij: b for b, ij in enumerate(pair_index)}
    bit_of = np.array([[bit[tuple(sorted(((a + j) % k, (b + j) % k)))] for a, b in pair_index]
                       for j in range(k)])
    blocks = np.nonzero((signatures[:, None] >> np.arange(len(pair_index))) & 1)[1]
    moved = np.int64(1) << bit_of[:, blocks.reshape(len(signatures), k // 2)]
    rotated = moved.sum(axis=2)
    # a moved block's ordinal is the number of the rotated partition's bits below it
    return (np.searchsorted(signatures, rotated), bit_of,
            np.bitwise_count(rotated[..., None] & (moved - 1)))


def _credit_rotations(counts: np.ndarray, slot_of: np.ndarray, block_of=None) -> np.ndarray:
    """Per-partition totals from counts keyed by (slot, t, ...): a walk with
    trailing run t gives rotations j = 0..t, so rotation j gets the counts of
    every t >= j, credited to the rotated slot (and, given ``block_of``, to
    the rotated block ordinal on the last axis)."""
    by_rotation = np.flip(np.cumsum(np.flip(counts, 1), axis=1), 1)
    total = np.zeros((counts.shape[0], *counts.shape[2:]), dtype=np.int64)
    index = ((slot_of.T,) if block_of is None
             else (slot_of.T[:, :, None], block_of.transpose(1, 0, 2)))
    np.add.at(total, index, by_rotation)
    return total


@lru_cache(maxsize=16)
def walk_census(n: int, k: int) -> WalkCensus:
    """Exact per-partition walk counts at size n; treat the result as read-only."""
    _check_cost(n, k)
    ordered, signatures = _signatures(k)
    tail = _trailing_block(n, k)
    slabs = _slabs(n, k, tail.sites.shape[1])

    def tally(share):
        """Counts of the walks from p_1 = 0 in ``share``'s slabs, one slab held at a time."""
        total = _slab_tallies(tail, share[0], share[0] + slabs.step, signatures)
        for lo in share[1:]:
            for held, counts in zip(total, _slab_tallies(tail, lo, lo + slabs.step, signatures)):
                held += counts
        return total

    matched, opposed, cells, ties, every = (
        sum(column).astype(np.int64) for column in zip(*parallel_map(tally, slabs)))
    # a walk with trailing run t stands for its 1 + t rotations
    nonpair = int(np.arange(1, k + 1) @ (every - matched.sum(axis=0)))
    slot_of, _, block_of = _rotations(k, signatures)
    matched, opposed, cells = (_credit_rotations(c, slot_of) for c in (matched, opposed, cells))
    ties = _credit_rotations(ties, slot_of, block_of)
    row = {key: r for r, key in enumerate(ordered)}
    tallies = {}
    for p in enumerate_pair_partitions(k):
        r = row[p.canonical()]
        tallies[p.canonical()] = PartitionTally(
            matched=int(matched[r]),
            opposed=int(opposed[r]),
            shared_cells={v: int(c) for v, c in enumerate(cells[r]) if c},
            block_ties={block: int(ties[r, o]) for o, block in enumerate(p.blocks)},
        )
    return WalkCensus(n, k, n**k, tallies, nonpair)


def _scale(n: int, k: int) -> int:
    """n^(k/2 + 1), the order of a partition's walk counts at size n."""
    return n ** (k // 2 + 1)


def check_cell_bound(n: int, k: int) -> dict:
    """Verify m >= height on every opposed walk of every pair partition; exact.

    Read off the census's shared-cell histograms.  Each violation names its
    ``partition``, its ``height`` and its ``offending_cell_counts``: the
    opposed walks with each m below the height.  ``ok`` is false when there
    is any violation."""
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
            })
    return {"n": n, "k": k, "ok": not violations, "violations": violations}


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
    n_grid: tuple[int, ...], p: PairPartition, block: tuple[int, int]
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
    ratios = [walk_census(n, p.k).tallies[p.canonical()].block_ties[block] / _scale(n, p.k)
              for n in n_grid]
    flags = _decay_flags(ratios)
    return {"n_grid": tuple(n_grid), "k": p.k, "partition": p.canonical(),
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

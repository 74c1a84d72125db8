"""Pair partitions of {1,...,k}: enumeration, crossing structure, height."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

MAX_GROUND_SET = 16  # (k-1)!! growth; 15!! = 2,027,025 is the practical ceiling


def _check_ground_set(k: int) -> None:
    if k < 2 or k % 2:
        raise ValueError(f"k must be a positive even integer, got {k}")
    if k > MAX_GROUND_SET:
        raise ValueError(f"k={k} exceeds the enumeration cap {MAX_GROUND_SET}")


@dataclass(frozen=True)
class PairPartition:
    """A perfect pairing of {1,...,k} into k/2 two-element blocks.

    Blocks are stored as (smaller, larger) and sorted by their smaller
    element, so structural equality, hashing and text round-trips are all
    canonical.
    """

    k: int
    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.k < 2 or self.k % 2:
            raise ValueError(f"ground set size must be a positive even integer, got {self.k}")
        seen: set[int] = set()
        for a, b in self.blocks:
            if not 1 <= a < b <= self.k:
                raise ValueError(f"block ({a},{b}) is not an increasing pair inside 1..{self.k}")
            seen.update((a, b))
        if len(self.blocks) != self.k // 2 or len(seen) != self.k:
            raise ValueError("blocks must tile {1,...,k} into k/2 disjoint pairs")
        if list(self.blocks) != sorted(self.blocks):
            raise ValueError("blocks must be sorted by smaller element")

    def canonical(self) -> str:
        """Text key, e.g. '1-3,2-4'."""
        return ",".join(f"{a}-{b}" for a, b in self.blocks)

    @classmethod
    def from_string(cls, text: str) -> "PairPartition":
        pairs = []
        for chunk in text.split(","):
            a, b = (int(x) for x in chunk.split("-"))
            pairs.append((min(a, b), max(a, b)))
        pairs.sort()
        return cls(2 * len(pairs), tuple(pairs))


@lru_cache(maxsize=None)
def _all_pairings(k: int) -> tuple[PairPartition, ...]:
    out: list[PairPartition] = []

    def extend(remaining: tuple[int, ...], acc: tuple[tuple[int, int], ...]):
        if not remaining:
            out.append(PairPartition(k, acc))
            return
        first, rest = remaining[0], remaining[1:]
        for idx, mate in enumerate(rest):
            extend(rest[:idx] + rest[idx + 1:], acc + ((first, mate),))

    extend(tuple(range(1, k + 1)), ())
    return tuple(out)


def enumerate_pair_partitions(k: int) -> list[PairPartition]:
    """All (k-1)!! pairings of {1,...,k}.

    Order is deterministic: the smallest unpaired element is matched with
    each larger candidate in turn, which is lexicographic in the block list.
    """
    _check_ground_set(k)
    return list(_all_pairings(k))


def blocks_cross(first: tuple[int, int], second: tuple[int, int]) -> bool:
    """True iff blocks (a, b) and (c, d) interleave: a < c < b < d or c < a < d < b."""
    (a, b), (c, d) = first, second
    return a < c < b < d or c < a < d < b


def is_crossing(p: PairPartition) -> bool:
    """True iff two blocks interleave as i < j < l < m with i~l and j~m."""
    return any(blocks_cross(x, y) for x, y in itertools.combinations(p.blocks, 2))


def height(p: PairPartition) -> int:
    """Number of blocks that are nearest-neighbour or enclose a self-paired window.

    A block (i,j) counts when j = i+1, or when every element of the window
    {i+1,...,j-1} is paired with another element of the same window.
    """
    partner = {}
    for a, b in p.blocks:
        partner[a] = b
        partner[b] = a
    total = 0
    for a, b in p.blocks:
        if b == a + 1:
            total += 1
            continue
        if all(a < partner[x] < b for x in range(a + 1, b)):
            # a self-paired window necessarily has even size
            assert (b - a - 1) % 2 == 0
            total += 1
    return total

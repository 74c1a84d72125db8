"""Pair partitions of {1,...,k}: enumeration, crossing structure, height.

The core works on partner tuples: a pairing of {1,...,k} is the tuple
``partner`` of length k with ``partner[i] = j`` when i + 1 and j + 1 share a
block (0-based).  `PairPartition` is the checked, text-keyed object built
from one; `height` and `is_crossing` read its partner tuple.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from ._parallel import check_memory

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

    def partner(self) -> tuple[int, ...]:
        """Partner tuple (module docstring): entry i - 1 is the partner of i, less 1."""
        partner = [0] * self.k
        for a, b in self.blocks:
            partner[a - 1], partner[b - 1] = b - 1, a - 1
        return tuple(partner)

    @classmethod
    def from_string(cls, text: str) -> "PairPartition":
        pairs = []
        for chunk in text.split(","):
            a, b = (int(x) for x in chunk.split("-"))
            pairs.append((min(a, b), max(a, b)))
        pairs.sort()
        return cls(2 * len(pairs), tuple(pairs))


def _pairings(k: int) -> Iterator[tuple[int, ...]]:
    """Every pairing of {1,...,k} as a partner tuple, in the order of
    `enumerate_pair_partitions`: the smallest unpaired element is matched
    with each larger candidate in turn."""
    partner = [0] * k

    def extend(remaining: tuple[int, ...]):
        if not remaining:
            yield tuple(partner)
            return
        first, rest = remaining[0], remaining[1:]
        for idx, mate in enumerate(rest):
            partner[first], partner[mate] = mate, first
            yield from extend(rest[:idx] + rest[idx + 1:])

    return extend(tuple(range(k)))


def _from_partner(partner: tuple[int, ...]) -> PairPartition:
    return PairPartition(len(partner), tuple((i + 1, j + 1) for i, j in enumerate(partner) if i < j))


def _text(partner: tuple[int, ...]) -> str:
    """`PairPartition.canonical` of the pairing with this partner tuple."""
    return ",".join(f"{i + 1}-{j + 1}" for i, j in enumerate(partner) if i < j)


@lru_cache(maxsize=None)
def _all_pairings(k: int) -> tuple[PairPartition, ...]:
    return tuple(map(_from_partner, _pairings(k)))


def _pairing_bytes(k: int) -> int:
    """Bytes one cached PairPartition of {1,...,k} holds with its blocks and
    its slots in the cache and the returned list: 32 a ground-set element
    over a fixed 144 (tracemalloc: 527 at k = 12, 591 at k = 14)."""
    return 144 + 32 * k


def enumerate_pair_partitions(k: int) -> list[PairPartition]:
    """All (k-1)!! pairings of {1,...,k}.

    Order is deterministic: the smallest unpaired element is matched with
    each larger candidate in turn, which is lexicographic in the block list.
    The pairings are kept for the life of the process, so the memory guard
    counts `_pairing_bytes` for each before they are built.
    """
    _check_ground_set(k)
    check_memory(f"the k={k} pair partitions", _pairing_bytes(k) * math.prod(range(1, k, 2)))
    return list(_all_pairings(k))


def _dihedral_images(partner: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The 2k images of a pairing under the dihedral group of the k-cycle:
    the rotations i -> i + r (mod k), then the same after the reflection
    i -> k - 1 - i (0-based).  Images of a symmetric pairing repeat."""
    k = len(partner)
    images = []
    for base in (partner, tuple(k - 1 - j for j in reversed(partner))):
        for r in range(k):
            # the image pairs i + r with base[i] + r: entry i is base[i - r] + r
            plus = list(range(r, k)) + list(range(r))
            images.append(tuple(map(plus.__getitem__, base[k - r:] + base[:k - r])))
    return images


def blocks_cross(first: tuple[int, int], second: tuple[int, int]) -> bool:
    """True iff blocks (a, b) and (c, d) interleave: a < c < b < d or c < a < d < b."""
    (a, b), (c, d) = first, second
    return a < c < b < d or c < a < d < b


def _crossing(partner: tuple[int, ...]) -> bool:
    """True iff two blocks of the pairing interleave.  The opening elements
    of a non-crossing pairing close in last-opened-first order, which one
    scan with a stack tests."""
    stack = []
    for i, j in enumerate(partner):
        if i < j:
            stack.append(i)
        elif stack.pop() != j:
            return True
    return False


def _height(partner: tuple[int, ...]) -> int:
    """Blocks (i, j) of the pairing whose window i+1..j-1 is paired within
    itself, the window's least and largest partner both inside (i, j); an
    empty window (j = i + 1) counts."""
    return sum(1 for i, j in enumerate(partner)
               if i < j and (j == i + 1 or (min(partner[i + 1:j]) > i
                                            and max(partner[i + 1:j]) < j)))


def is_crossing(p: PairPartition) -> bool:
    """True iff two blocks interleave as i < j < l < m with i~l and j~m."""
    return _crossing(p.partner())


def height(p: PairPartition) -> int:
    """Number of blocks that are nearest-neighbour or enclose a self-paired window.

    A block (i,j) counts when j = i+1, or when every element of the window
    {i+1,...,j-1} is paired with another element of the same window.
    """
    return _height(p.partner())

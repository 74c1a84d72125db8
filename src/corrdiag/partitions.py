"""Pair partitions of {1,...,k}: enumeration, crossing structure, height.

A pairing of {1,...,k} is its partner tuple: the tuple ``partner`` of length
k with ``partner[i] = j`` when i + 1 and j + 1 share a block (0-based).  The
core computes on these tuples, and `PairPartition` is the checked wrapper of
one, with its blocks and text read off the tuple.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

# the largest order enumerated or whose moments are computed: 13!! = 135,135
# pairings, about 34 MB when `enumerate_pair_partitions` keeps them
MAX_GROUND_SET = 14


def _check_ground_set(k: int) -> None:
    if k < 2 or k % 2:
        raise ValueError(f"k must be a positive even integer, got {k}")
    if k > MAX_GROUND_SET:
        raise ValueError(f"k={k} exceeds the enumeration cap {MAX_GROUND_SET}")


@dataclass(frozen=True)
class PairPartition:
    """A perfect pairing of {1,...,k}, stored as its partner tuple (module
    docstring), so structural equality and hashing are canonical.

    ``blocks`` lists the pairs as (smaller, larger), 1-based and sorted by
    the smaller element; ``canonical`` is their text.
    """

    partner: tuple[int, ...]

    def __post_init__(self):
        partner = self.partner
        k = len(partner)
        if k < 2 or k % 2 or any(not 0 <= j < k or j == i or partner[j] != i
                                 for i, j in enumerate(partner)):
            raise ValueError(f"{partner} is not the partner tuple of a pairing of a "
                             "nonempty even ground set: an involution with no fixed point")

    @property
    def k(self) -> int:
        return len(self.partner)

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        return tuple((i + 1, j + 1) for i, j in enumerate(self.partner) if i < j)

    def canonical(self) -> str:
        """Text key, e.g. '1-3,2-4'."""
        return ",".join(f"{a}-{b}" for a, b in self.blocks)

    @classmethod
    def from_string(cls, text: str) -> "PairPartition":
        """Parse blocks 'a-b' joined by commas, in any order and either way
        round, that use each of 1..k once, k twice the number of blocks."""
        chunks = text.split(",")
        k = 2 * len(chunks)
        partner = [-1] * k
        for chunk in chunks:
            try:
                a, b = (int(end) - 1 for end in chunk.split("-"))
            except ValueError:  # not two integers
                a = b = -1
            if a == b or not (0 <= a < k and 0 <= b < k) or max(partner[a], partner[b]) >= 0:
                raise ValueError(f"{text!r} is not a pair partition: blocks a-b, joined by "
                                 f"commas, must use each of 1..{k} once")
            partner[a], partner[b] = b, a
        return cls(tuple(partner))


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


@lru_cache(maxsize=None)
def _all_pairings(k: int) -> tuple[PairPartition, ...]:
    return tuple(map(PairPartition, _pairings(k)))


def enumerate_pair_partitions(k: int) -> list[PairPartition]:
    """All (k-1)!! pairings of {1,...,k}, for even k up to MAX_GROUND_SET.

    Order is deterministic: the smallest unpaired element is matched with
    each larger candidate in turn, which is lexicographic in the block list.
    The pairings are kept for the life of the process.
    """
    _check_ground_set(k)
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
    return _crossing(p.partner)


def height(p: PairPartition) -> int:
    """Number of blocks that are nearest-neighbour or enclose a self-paired window.

    A block (i,j) counts when j = i+1, or when every element of the window
    {i+1,...,j-1} is paired with another element of the same window.
    """
    return _height(p.partner)

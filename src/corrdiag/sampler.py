"""Diagonal generators and assembly of the scaled symmetric matrix.

A matrix of size n is filled diagonal by diagonal: offset r gets a fresh
vector of length n - r from its own generator stream, the matrix is
mirrored to be exactly symmetric, and all entries are divided by sqrt(n).
Every generator produces mean-0, variance-1 entries; they differ in the
correlation within one diagonal:

    Independent        i.i.d. standard normals (correlation 0)
    Equicorrelated(c)  sqrt(c) * G + sqrt(1-c) * Z_p, one shared G per
                       diagonal (correlation exactly c at every size)
    CurieWeiss(beta)   one exact spin sample per diagonal, at the
                       diagonal's own length
    Toeplitz           one standard normal repeated along the diagonal
                       (correlation 1)

Seed layout: numpy's spawn tree.  Diagonal r of realization t is child r of
SeedSequence(seed, spawn_key=(t,)), the stream SeedSequence(seed,
spawn_key=(t, r)), so diagonals are independent, runs are reproducible,
and realizations never share entropy.  Every other integer seed a run
derives (per-partition volume seeds, per-criterion and per-size ensemble
seeds) is ``child_seed(seed, *key)``, the first 64-bit word of the child
stream SeedSequence(seed, spawn_key=key).  Normals are drawn by inverse CDF
(ndtri) on 53-bit uniforms offset to the open interval, a choice fixed here
because bit-exact reproducibility is promised: a raw PCG64 word w gives the
uniform ((w >> 11) + 0.5) * 2^-53.

`diagonal_rng` and `sample_diagonal` are the per-diagonal reference.
`build_matrix` gives the same bytes without a generator per diagonal: it
mixes only the offset word r into numpy's pool of the realization's
SeedSequence to derive all n PCG64 states in one vectorized pass, loads
each into one reused PCG64, and reads raw words a slab of whole diagonals
at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import check_memory
from .curie_weiss import check_beta, pair_correlation, sample_spins


@dataclass(frozen=True)
class Independent:
    """I.i.d. standard normal entries."""


@dataclass(frozen=True)
class Equicorrelated:
    """Gaussian entries with pairwise correlation c inside each diagonal."""

    c: float

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"correlation c must lie in [0, 1], got {self.c}")


@dataclass(frozen=True)
class CurieWeiss:
    """Each diagonal is one exact Curie-Weiss spin sample at its own length."""

    beta: float

    def __post_init__(self):
        check_beta(self.beta)


@dataclass(frozen=True)
class Toeplitz:
    """One normal per diagonal, repeated: entry (p,q) depends only on |p-q|."""


GeneratorSpec = Independent | Equicorrelated | CurieWeiss | Toeplitz


def _standard_normal(rng: np.random.Generator, size=None):
    # imported here: scipy.special costs about 0.3 s and 24 MB, and only sampling uses it
    from scipy.special import ndtri

    # 53-bit uniforms shifted off the endpoints keep ndtri finite
    u = (rng.integers(0, 1 << 53, size=size, dtype=np.uint64) + 0.5) * (1.0 / (1 << 53))
    return ndtri(u)


def sample_diagonal(gen: GeneratorSpec, length: int, rng: np.random.Generator) -> np.ndarray:
    """One diagonal of the requested length from the generator's law."""
    if length < 1:
        raise ValueError(f"diagonal length must be >= 1, got {length}")
    if isinstance(gen, Independent):
        return _standard_normal(rng, length)
    if isinstance(gen, Equicorrelated):
        shared = math.sqrt(gen.c) * _standard_normal(rng)
        return shared + math.sqrt(1.0 - gen.c) * _standard_normal(rng, length)
    if isinstance(gen, CurieWeiss):
        return sample_spins(length, gen.beta, rng)
    if isinstance(gen, Toeplitz):
        return np.full(length, _standard_normal(rng))
    raise TypeError(f"unknown generator spec: {gen!r}")


def diagonal_rng(seed: int, realization: int, offset: int) -> np.random.Generator:
    """The documented per-diagonal stream: child (realization, offset) of seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(realization, offset)))


def child_seed(seed: int, *key: int) -> int:
    """Integer seed of child stream ``key`` of ``seed``: the first 64-bit word
    of SeedSequence(seed, spawn_key=key)."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


def _kept_bytes(gen: GeneratorSpec, n: int) -> int:
    """Bytes a size-n build keeps for the life of the process: a Curie-Weiss
    build fills `curie_weiss._level_cdf` for lengths 1..n, n(n + 3)/2 doubles
    per beta; the other generators keep nothing."""
    return 4 * n * (n + 3) if isinstance(gen, CurieWeiss) else 0


def build_matrix(n: int, gen: GeneratorSpec, realization: int = 0, seed: int = 0) -> np.ndarray:
    """One realization of the scaled symmetric matrix as a dense float array.
    The memory guard counts the matrix and `_kept_bytes`."""
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    if not isinstance(gen, GeneratorSpec):
        raise TypeError(f"unknown generator spec: {gen!r}")
    check_memory(f"an n={n} matrix", 8 * n * n, _kept_bytes(gen, n))
    parent = np.random.SeedSequence(seed, spawn_key=(realization,))  # rejects a negative seed or realization
    # allocate the matrix before the seed arrays: those small arrays would
    # otherwise split the heap hole that the last freed matrix left, the new
    # matrix would not fit there, and an n=1000 ensemble's peak RSS grew 5 MB
    a = np.empty((n, n))
    flat = a.reshape(-1)
    for r, values in _scaled_diagonals(gen, n, _stream_states(parent, n)):
        flat[r:(n - r) * (n + 1):n + 1] = values  # entries (i, i + r)
        flat[r * n::n + 1] = values  # entries (i + r, i)
    return a


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _stream_states(parent: np.random.SeedSequence, n: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of child r of ``parent`` for every r < n.

    ``parent`` is realization t's SeedSequence(seed, spawn_key=(t,)); its
    child r, diagonal r's stream SeedSequence(seed, spawn_key=(t, r)), has
    the parent's entropy words and then r, so its pool is numpy's
    ``parent.pool`` with only r mixed in.  That step and generate_state(4,
    np.uint64), as uint32 arithmetic on arrays of length n, and PCG64's
    seeding step (inc = 2 seq + 1, two LCG steps) in Python ints are coded here.
    """
    def words(value):  # uint32 words SeedSequence splits a non-negative integer into
        return (max(int(value).bit_length(), 1) + 31) // 32

    # before r, SeedSequence's hash constant has stepped 4 times per entropy
    # word (the seed's words zero-padded to the pool size of 4, then the spawn
    # key's): 16 to fill and cross-mix the pool, 4 to mix in each later word
    entropy_words = max(4, words(parent.entropy)) + sum(map(words, parent.spawn_key))
    hash_const = _INIT_A * pow(_MULT_A, 4 * entropy_words, 1 << 32) & _MASK32
    offsets = np.arange(n, dtype=np.uint32)
    pool = []
    for word in parent.pool.tolist():
        value = offsets ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> 16
        value = (_MIX_MULT_L * word & _MASK32) - _MIX_MULT_R * value
        pool.append(value ^ (value >> 16))

    hash_const = _INIT_B
    state32 = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state32.append(value ^ (value >> 16))
    # generate_state's uint64 words are little-endian pairs of uint32 words
    state64 = [(lo.astype(np.uint64) | hi.astype(np.uint64) << 32).tolist()
               for lo, hi in zip(state32[::2], state32[1::2])]
    streams = []
    for s_hi, s_lo, i_hi, i_lo in zip(*state64):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        streams.append((state, inc))
    return streams


def _load(bitgen: np.random.PCG64, stream: tuple[int, int]) -> None:
    state, inc = stream
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}


_SLAB = 2**16  # raw words turned into normals at a time


def _normal_slabs(bitgen: np.random.PCG64, streams, words: list[int]):
    """Standard normals of whole diagonals, at most _SLAB words a slab unless
    one diagonal needs more: yields (first, end, normals of diagonals
    first..end-1 back to back).  Diagonal r draws words[r] raw words from
    its own stream; a word w gives ndtri(((w >> 11) + 0.5) * 2^-53), which is
    _standard_normal's uniform, since integers(0, 2**53, dtype=np.uint64)
    returns w >> 11 (Lemire's method never rejects on a power-of-two range).
    """
    from scipy.special import ndtri

    # one pair of buffers for every slab, so no slab outlives the next one
    raw = np.empty(min(sum(words), max(_SLAB, max(words))), dtype=np.uint64)
    normals = np.empty(len(raw))
    first = 0
    while first < len(words):
        end, total = first + 1, words[first]
        while end < len(words) and total + words[end] <= _SLAB:
            total += words[end]
            end += 1
        at = 0
        for stream, count in zip(streams[first:end], words[first:end]):
            _load(bitgen, stream)
            raw[at:at + count] = bitgen.random_raw(count)
            at += count
        bits, z = raw[:total], normals[:total]
        bits >>= 11
        np.add(bits, 0.5, out=z)
        z *= 1.0 / (1 << 53)
        yield first, end, ndtri(z, out=z)
        first = end


def _scaled_diagonals(gen: GeneratorSpec, n: int, streams):
    """Yield (r, diagonal r / sqrt(n)) for r < n: the values, and the float
    operations in their order, of sample_diagonal(gen, n - r, rng) / sqrt(n)
    with rng on stream r."""
    scale = math.sqrt(n)
    bitgen = np.random.PCG64()
    if isinstance(gen, CurieWeiss):
        rng = np.random.Generator(bitgen)
        for r, stream in enumerate(streams):
            _load(bitgen, stream)
            yield r, sample_spins(n - r, gen.beta, rng) / scale
        return
    shared = int(not isinstance(gen, Independent))  # one draw first, shared by the diagonal
    own = not isinstance(gen, Toeplitz)  # then one draw per entry
    words = [shared + own * (n - r) for r in range(n)]
    for first, end, z in _normal_slabs(bitgen, streams, words):
        if isinstance(gen, Equicorrelated):
            counts = words[first:end]
            starts = np.cumsum(counts) - counts
            head = math.sqrt(gen.c) * z[starts]
            z *= math.sqrt(1.0 - gen.c)
            z += np.repeat(head, counts)
        z /= scale
        at = 0
        for r in range(first, end):
            yield r, z[at + shared:at + words[r]] if own else z[at]
            at += words[r]


def _same_diagonal_target(gen: GeneratorSpec, length: int) -> float:
    if isinstance(gen, Independent):
        return 0.0
    if isinstance(gen, Equicorrelated):
        return gen.c
    if isinstance(gen, CurieWeiss):
        return pair_correlation(length, gen.beta) if length >= 2 else 0.0
    return 1.0


def validate_conditions(gen: GeneratorSpec, n: int, draws: int, seed: int = 0) -> dict:
    """Empirical moment report for one generator: mean, variance, covariance
    within a diagonal and across two diagonals, each with a pass flag.

    This is a diagnostic report, not a gate: flags use wide bands (4 sigma
    style) so a healthy generator passes with margin.
    """
    if draws < 1000:
        raise ValueError(f"need at least 1000 draws for stable flags, got {draws}")
    if n < 3:
        raise ValueError(f"need n >= 3 to compare two diagonals, got {n}")
    # first and second, one draws x n temporary at a time, four vectors of
    # length draws, and the buffer of one NumPy ufunc call
    need = 8 * (draws * (3 * n + 4) + np.getbufsize())
    check_memory(f"{draws} draws of two diagonals at n={n}", need)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    first = np.empty((draws, n))
    for row in first:
        row[:] = sample_diagonal(gen, n, rng)
    second = np.empty((draws, n - 1))
    for row in second:
        row[:] = sample_diagonal(gen, n - 1, rng)

    mean = float(first.mean())
    variance = float(first.var())
    row_sum = first.sum(axis=1)
    row_sq = (first**2).sum(axis=1)
    pair_products = (row_sum**2 - row_sq) / (n * (n - 1))
    cov_same = float(pair_products.mean())
    cov_same_sigma = float(pair_products.std(ddof=1) / math.sqrt(draws))

    cross_products = (first[:, : n - 1] * second).mean(axis=1)
    cov_cross = float(cross_products.mean())
    cov_cross_sigma = float(cross_products.std(ddof=1) / math.sqrt(draws))

    target = _same_diagonal_target(gen, n)
    report = {
        "generator": repr(gen),
        "n": n,
        "draws": draws,
        "mean": mean,
        "variance": variance,
        "cov_same_diagonal": cov_same,
        "cov_same_target": target,
        "cov_cross_diagonal": cov_cross,
        "mean_ok": abs(mean) < 4.0 / math.sqrt(draws),
        "variance_ok": abs(variance - 1.0) < 10.0 / math.sqrt(draws),
        "cov_same_ok": abs(cov_same - target) < max(4.0 * cov_same_sigma, 1e-12),
        "cov_cross_ok": abs(cov_cross) < max(4.0 * cov_cross_sigma, 1e-12),
    }
    report["all_ok"] = all(report[key] for key in
                           ("mean_ok", "variance_ok", "cov_same_ok", "cov_cross_ok"))
    return report

"""Diagonal generators and matrix assembly."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from corrdiag._parallel import check_memory
from corrdiag.curie_weiss import _level_cdf, pair_correlation
from corrdiag.sampler import (
    CurieWeiss,
    Equicorrelated,
    Independent,
    Toeplitz,
    build_matrix,
    child_seed,
    diagonal_rng,
    sample_diagonal,
    validate_conditions,
)
from corrdiag import sampler

GENERATORS = [Independent(), Equicorrelated(0.5), CurieWeiss(2.0), Toeplitz()]


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: type(g).__name__)
def test_matrix_is_symmetric_with_unit_scale(gen):
    n = 60
    m = build_matrix(n, gen, realization=0, seed=3)
    assert m.shape == (n, n)
    assert np.array_equal(m, m.T)
    assert np.isfinite(m).all()
    # entries were divided by sqrt(n): second moment of entries is O(1/n)
    assert 0.2 / n < np.mean(m**2) < 5.0 / n


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: type(g).__name__)
def test_matrix_reproducible_and_seed_sensitive(gen):
    a = build_matrix(40, gen, realization=2, seed=9)
    b = build_matrix(40, gen, realization=2, seed=9)
    c = build_matrix(40, gen, realization=3, seed=9)
    d = build_matrix(40, gen, realization=2, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_diagonals_are_internally_constant_for_full_correlation():
    n = 30
    m = build_matrix(n, Toeplitz(), realization=0, seed=1) * np.sqrt(n)
    for offset in range(1, n):
        diag = np.diagonal(m, offset)
        assert np.allclose(diag, diag[0], atol=1e-12)


def test_independent_diagonal_not_constant():
    m = build_matrix(30, Independent(), realization=0, seed=1)
    diag = np.diagonal(m, 1)
    assert np.std(diag) > 0


def test_distinct_diagonals_use_distinct_streams():
    rng_a = diagonal_rng(5, 0, 1)
    rng_b = diagonal_rng(5, 0, 2)
    assert not np.array_equal(rng_a.random(8), rng_b.random(8))


def test_sample_diagonal_lengths():
    rng = np.random.default_rng(0)
    for gen in GENERATORS:
        x = sample_diagonal(gen, 17, rng)
        assert x.shape == (17,)
        assert np.isfinite(x).all()


def test_equicorrelated_validates_range():
    with pytest.raises(ValueError):
        Equicorrelated(-0.1)
    with pytest.raises(ValueError):
        Equicorrelated(1.5)
    with pytest.raises(ValueError):
        CurieWeiss(0.0)


def test_validate_conditions_pass_for_all_generators():
    for gen in GENERATORS:
        report = validate_conditions(gen, 8, draws=4000, seed=2)
        assert report["all_ok"], report


def test_validate_conditions_targets():
    report = validate_conditions(Equicorrelated(0.7), 8, draws=2000, seed=0)
    assert report["cov_same_target"] == pytest.approx(0.7)
    # spins: same-diagonal correlation at finite length is the exact two-point value
    report = validate_conditions(CurieWeiss(1.2), 8, draws=2000, seed=0)
    assert report["cov_same_target"] == pytest.approx(pair_correlation(8, 1.2))
    report = validate_conditions(Toeplitz(), 8, draws=2000, seed=0)
    assert report["cov_same_target"] == pytest.approx(1.0)


def test_validate_conditions_rejects_tiny_runs():
    with pytest.raises(ValueError):
        validate_conditions(Independent(), 8, draws=10)
    with pytest.raises(ValueError):
        validate_conditions(Independent(), 2, draws=2000)


def test_matrix_guard_accepts_benchmark_sizes_and_rejects_huge_ones():
    # n = 1000 matrices on 2 threads and the CLI's condition check at n = 1000
    # (20 draws per site) stay under the guard; n = 20000 is rejected unbuilt
    check_memory("ensemble", 8 * 1000**2 * 2)
    check_memory("conditions", 8 * (20 * 1000 * (3 * 1000 + 4) + np.getbufsize()))
    with pytest.raises(ValueError, match="memory guard"):
        build_matrix(20000, Independent())


def test_matrix_guard_counts_the_curie_weiss_level_table(monkeypatch):
    import corrdiag._parallel as parallel
    from corrdiag.spectra import run_ensemble

    # n = 100: the matrix is 8n^2 = 80 000 bytes, and a Curie-Weiss build
    # keeps level CDFs of lengths 1..n, 4n(n + 3) = 41 200 bytes more
    monkeypatch.setattr(parallel, "MEMORY_GUARD", 100_000)
    monkeypatch.setenv("CORRDIAG_THREADS", "1")
    spins = []
    monkeypatch.setattr(sampler, "sample_spins", lambda *args: spins.append(args))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="memory guard"):
            build_matrix(100, CurieWeiss(2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spins == [] and peak < 8 * 100**2
    assert build_matrix(100, Equicorrelated(0.5)).shape == (100, 100)
    # the shared term of an ensemble counts the table too: 17n^2 bytes a
    # worker, 2520 bytes of histogram and moment rows, and the table
    monkeypatch.setattr(parallel, "MEMORY_GUARD", 200_000)
    with pytest.raises(ValueError, match="memory guard"):
        run_ensemble(100, CurieWeiss(2.0), 1, seed=0)
    assert spins == []
    assert run_ensemble(100, Equicorrelated(0.5), 1, seed=0).n == 100


@pytest.mark.parametrize("n, draws", [(200, 4000), (50, 1000)])
def test_validate_conditions_peak_within_guard_estimate(monkeypatch, n, draws):
    import tracemalloc

    from corrdiag import sampler

    estimates = []

    def record(what, need, shared=0, jobs=1):
        estimates.append(need + shared)
        check_memory(what, need, shared, jobs)

    monkeypatch.setattr(sampler, "check_memory", record)
    validate_conditions(Independent(), 3, draws=1000)  # lazy scipy.special import out of the trace
    for gen in (Equicorrelated(0.5), CurieWeiss(2.0)):
        tracemalloc.start()
        try:
            validate_conditions(gen, n, draws=draws, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.9 * estimates[-1] <= peak <= estimates[-1], (gen, peak, estimates[-1])


def test_gaussian_tails_present():
    # inversion sampling must reach past |x| = 3 on a large draw
    m = build_matrix(300, Independent(), realization=0, seed=4) * np.sqrt(300)
    assert np.abs(m).max() > 3.0
    assert np.abs(m).max() < 8.0


def test_child_seed_distinct_and_pinned():
    seeds = {child_seed(5, k, i) for k in (2, 4, 6) for i in range(10)}
    assert len(seeds) == 30
    # the documented layout: first 64-bit word of SeedSequence(seed, spawn_key=key)
    assert child_seed(5, 4, 1) == 2192821385777484778
    assert child_seed(1729, 7, 100) == 712944754390216424
    assert child_seed(3, 50) == 4522566153492081178


# SHA-256 of build_matrix(n, gen, realization=1, seed=5).tobytes(); any change
# to sampling, seeding, assembly or scaling shows up here.  At n=600 a
# Curie-Weiss matrix draws spins at 600 distinct lengths.
MATRIX_SHA256 = {
    Independent(): {
        1: "bace4becac8cad947ab77a25a91ec6211cceda145dcda68458f1d675aff9572d",
        2: "8ab8da807aa4d54b39fade6329781bcc47dea02f20ee70cf8af30e6ecf0cf286",
        7: "00aad012f48ccf920e633b0d0d8b24e9d70b6b8e3aab45561a29b43b00202b1e",
        64: "f2b1af05af8151bf7ed04ed851c69f2daf8e2fc9e30a734161d96baea123bf8c",
        600: "4e11f7749d8c9ce97d6565d812ece9df60566886947a17ff3541d2286ac06f21",
    },
    Equicorrelated(0.5): {
        1: "1661564b1b1f6e0c3111e8301dc8448a000c4e77bd41bc7fa3d509c46feab60c",
        2: "a71c1e3f1b5b9438770f08dd2bd67481b6d0d05b846cb7589e7bf9f293ce9fad",
        7: "649da8c8d57bddd6192c10afbb55df88bbeb1e1299c9aee8919e1689f439a548",
        64: "4102633d9637040ebd8f8ce25b9828ee76085c7452ce3d78477fd5a3ac8ca1b2",
        600: "4584a9cb5ecb8c4cec723f40a7cc71749c702ddd039c742cae007b76911a4149",
    },
    CurieWeiss(2.0): {
        1: "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
        2: "701d8abe4f930906dc0c0b025ea8220f9ba3b981e7a4e31eabe738e3a6696a61",
        7: "8d8d77e08babaf149a5e984e24cb36b4f2d7aca6dca7b726a3c8b3664d1e47bc",
        64: "d568365e5bfde56c9485312c5aba06a5bb91ed6cd66c0ea31d5beeefd3e776cf",
        600: "8d48a6b4b925f5b9ff2c235035bbd763169eb8b01f9fb2c86cd87731deb6c394",
    },
    Toeplitz(): {
        1: "bace4becac8cad947ab77a25a91ec6211cceda145dcda68458f1d675aff9572d",
        2: "cd88576f561a53b88e7affbfffdee89c75bc8996b18f8917420b4788451f8a0c",
        7: "0e457ff23281dc3d3ce0afdd3e6fec41052a64d5aa7ca74cecd43fea62c49aa0",
        64: "0d467574bf0064a8adb51bb5e4871e975e5f2cc1920fddeb472c8cc788e36ca4",
        600: "f645c35abe379cd4ed25baa8066f7a09d4a41d8bcedf132d589ed483e3d4a456",
    },
}


@pytest.mark.parametrize("gen,n", [(g, n) for g in MATRIX_SHA256 for n in MATRIX_SHA256[g]],
                         ids=lambda v: type(v).__name__ if not isinstance(v, int) else str(v))
def test_matrix_bytes_pinned(gen, n):
    a = build_matrix(n, gen, realization=1, seed=5)
    assert a.dtype == np.float64 and a.shape == (n, n)
    assert hashlib.sha256(a.tobytes()).hexdigest() == MATRIX_SHA256[gen][n]


def test_curie_weiss_rebuild_misses_no_level_cache():
    # every (length, beta) a build needs stays cached, so a second build of
    # the same size computes no level CDF again
    gen = CurieWeiss(2.0)
    build_matrix(600, gen, realization=0, seed=3)
    before = _level_cdf.cache_info()
    build_matrix(600, gen, realization=1, seed=3)
    after = _level_cdf.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == 600


@pytest.mark.parametrize("width", [1, 7, 4096])
def test_matrix_bytes_invariant_to_slab_width(monkeypatch, width):
    # 1 puts every diagonal in a slab of its own (each needs more words than
    # that), 7 packs several short ones, 4096 splits n = 600 mid-matrix
    monkeypatch.setattr(sampler, "_SLAB", width)
    for gen, pinned in MATRIX_SHA256.items():
        for n, digest in pinned.items():
            a = build_matrix(n, gen, realization=1, seed=5)
            assert hashlib.sha256(a.tobytes()).hexdigest() == digest, (gen, n)


def reference_matrix(n, gen, realization, seed):
    """The per-diagonal loop build_matrix must reproduce byte for byte: each
    diagonal drawn by sample_diagonal from its own diagonal_rng stream."""
    a = np.empty((n, n))
    flat = a.reshape(-1)
    scale = math.sqrt(n)
    for r in range(n):
        values = sample_diagonal(gen, n - r, diagonal_rng(seed, realization, r)) / scale
        flat[r:(n - r) * (n + 1):n + 1] = values  # entries (i, i + r)
        flat[r * n::n + 1] = values  # entries (i + r, i)
    return a


TWO_WORD_SEED = child_seed(5, 14)


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: type(g).__name__)
@pytest.mark.parametrize("n", [1, 2, 3, 361, 362, 363])
def test_matrix_matches_per_diagonal_reference(gen, n):
    # n(n+1)/2 first passes 2^16 words at n = 362, so 362 and 363 take two slabs
    assert TWO_WORD_SEED >= 2**32
    a = build_matrix(n, gen, realization=3, seed=TWO_WORD_SEED)
    assert a.tobytes() == reference_matrix(n, gen, 3, TWO_WORD_SEED).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, child_seed(1729, 7, 100),
                                  2**130 + 3])
def test_stream_states_match_numpy(seed):
    # 2^130 + 3 has five uint32 words, more than the pool size of 4
    n = 1000
    for realization in (0, 1, 2**32 + 1):
        parent = np.random.SeedSequence(seed, spawn_key=(realization,))
        streams = sampler._stream_states(parent, n)
        assert len(streams) == n
        for r in (0, 1, n - 1):
            bitgen = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(realization, r)))
            assert streams[r] == tuple(bitgen.state["state"][key] for key in ("state", "inc"))


def test_raw_words_give_the_reference_uniform_bits():
    # build_matrix reads raw PCG64 words: integers(0, 2**53) on uint64 must be
    # w >> 11, one word per draw, for scalar and array draws alike
    for seed, realization, r in ((5, 1, 0), (TWO_WORD_SEED, 3, 17)):
        def raw():
            return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(realization, r)))

        rng = diagonal_rng(seed, realization, r)
        assert rng.integers(0, 1 << 53, dtype=np.uint64) == raw().random_raw() >> 11
        rng = diagonal_rng(seed, realization, r)
        assert np.array_equal(rng.integers(0, 1 << 53, size=1000, dtype=np.uint64),
                              raw().random_raw(1000) >> 11)


def test_negative_seed_or_realization_rejected():
    for kwargs in ({"seed": -1}, {"realization": -1}):
        for gen in GENERATORS:
            with pytest.raises(ValueError, match="non-negative"):
                build_matrix(4, gen, **kwargs)


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: type(g).__name__)
def test_build_peak_is_matrix_plus_one_slab(gen):
    # normals are drawn a slab of at most 2^16 words at a time, so a build
    # holds the matrix and about 1 MiB besides; holding all n(n+1)/2 draws at
    # once would add 8 MiB.  The first build loads scipy and fills the
    # Curie-Weiss level cache, which later builds reuse.
    n = 1000
    build_matrix(n, gen, realization=0, seed=1)
    tracemalloc.start()
    try:
        build_matrix(n, gen, realization=1, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * n + 2 * 2**20, peak

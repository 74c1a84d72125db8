"""Spectral statistics: eigenvalues, moments, ensembles, CSV output."""

import numpy as np
import pytest

from corrdiag.sampler import Equicorrelated, Independent, build_matrix
from corrdiag.spectra import (
    EnsembleStats,
    concentration_probe,
    eigenvalues_symmetric,
    empirical_moments,
    moment_comparison_rows,
    run_ensemble,
    trace_moment_direct,
    write_histogram_csv,
    write_moment_csv,
)


def test_eigenvalues_of_known_matrix():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert eigenvalues_symmetric(m) == pytest.approx([1.0, 3.0])


def test_eigenvalues_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_empirical_vs_trace_power_routes():
    m = build_matrix(120, Equicorrelated(0.3), realization=0, seed=8)
    moments = empirical_moments(eigenvalues_symmetric(m), 12)
    for k in range(1, 13):
        assert moments[k - 1] == pytest.approx(trace_moment_direct(m, k), abs=1e-8)


def test_trace_and_frobenius_identities():
    m = build_matrix(90, Independent(), realization=1, seed=8)
    lam = eigenvalues_symmetric(m)
    assert lam.sum() == pytest.approx(np.trace(m), abs=1e-10 * 90)
    assert (lam**2).sum() == pytest.approx(np.linalg.norm(m, "fro") ** 2, abs=1e-10 * 90)


def test_trace_moment_guards():
    m = build_matrix(20, Independent(), 0, 0)
    with pytest.raises(ValueError):
        trace_moment_direct(m, 0)
    with pytest.raises(ValueError):
        trace_moment_direct(m, 13)  # above the supported direct range


def test_run_ensemble_statistics():
    stats = run_ensemble(80, Equicorrelated(0.5), 12, kmax=4, seed=6)
    assert stats.per_realization.shape == (12, 4)
    assert stats.moments.shape == (4,)
    assert stats.total_count() == 80 * 12
    assert stats.moments[1] == pytest.approx(1.0, abs=0.15)
    # odd moments of a symmetric-law ensemble hover near zero
    assert abs(stats.moments[0]) < 0.05
    assert np.all(stats.moment_se > 0)


def test_run_ensemble_reproducible():
    a = run_ensemble(50, Equicorrelated(0.5), 5, kmax=2, seed=3)
    b = run_ensemble(50, Equicorrelated(0.5), 5, kmax=2, seed=3)
    assert np.array_equal(a.per_realization, b.per_realization)
    assert np.array_equal(a.counts, b.counts)


def test_run_ensemble_single_realization_has_zero_se():
    stats = run_ensemble(50, Independent(), 1, kmax=2, seed=0)
    assert np.all(stats.moment_se == 0.0)


@pytest.mark.parametrize("bad", [{"kmax": 0}, {"bins": 0}])
def test_run_ensemble_rejects_bad_shape_before_sampling(monkeypatch, bad):
    import corrdiag.spectra as spectra

    built = []
    monkeypatch.setattr(spectra, "build_matrix", lambda *args, **kwargs: built.append(args))
    with pytest.raises(ValueError):
        run_ensemble(10, Independent(), 2, seed=0, **bad)
    assert built == []


def test_run_ensemble_guard_refuses_n10000_before_building(monkeypatch):
    import corrdiag.spectra as spectra

    # an n=10000 worker holds its matrix, LAPACK's copy and the finiteness
    # mask: 17n^2 bytes, over the guard on one worker already
    built = []
    monkeypatch.setattr(spectra, "build_matrix", lambda *args, **kwargs: built.append(args))
    monkeypatch.setenv("CORRDIAG_THREADS", "2")
    with pytest.raises(ValueError, match="memory guard"):
        run_ensemble(10000, Independent(), 2, seed=0)
    assert built == []


def test_run_ensemble_guard_counts_the_eigvalsh_copy(monkeypatch):
    import corrdiag.spectra as spectra

    # one n=9000 matrix is 648 MB, but 17n^2 bytes (1377 MB) exceed 1 GiB
    built = []
    monkeypatch.setattr(spectra, "build_matrix", lambda *args, **kwargs: built.append(args))
    monkeypatch.setenv("CORRDIAG_THREADS", "1")
    with pytest.raises(ValueError, match="memory guard"):
        run_ensemble(9000, Independent(), 1, seed=0)
    assert built == []


def test_run_ensemble_guard_counts_workers_that_start(monkeypatch):
    import corrdiag.spectra as spectra

    # 64 threads requested, but 2 realizations start 2 workers of 17n^2 bytes
    class Built(Exception):
        pass

    def build(*args, **kwargs):
        raise Built

    monkeypatch.setattr(spectra, "build_matrix", build)
    monkeypatch.setenv("CORRDIAG_THREADS", "64")
    with pytest.raises(Built):
        run_ensemble(2000, Independent(), 2, seed=0)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_ensemble_guard_accepts_benchmark_shape(monkeypatch, threads):
    import corrdiag.spectra as spectra

    # the benchmark's ensemble: n = 1000, 6 realizations, 100 bins
    class Built(Exception):
        pass

    def build(*args, **kwargs):
        raise Built

    monkeypatch.setattr(spectra, "build_matrix", build)
    monkeypatch.setenv("CORRDIAG_THREADS", threads)
    with pytest.raises(Built):
        run_ensemble(1000, Independent(), 6, bins=100, seed=0)


@pytest.mark.parametrize("realizations", [4, 16])
def test_run_ensemble_peak_within_guard_estimate(monkeypatch, realizations):
    import tracemalloc

    import corrdiag.spectra as spectra
    from corrdiag._parallel import check_memory

    # at many bins the histogram and per-realization rows dominate the estimate
    estimates = []

    def record(what, per_worker, shared=0, jobs=1):
        estimates.append(per_worker + shared)  # one worker
        check_memory(what, per_worker, shared, jobs)

    monkeypatch.setattr(spectra, "check_memory", record)
    monkeypatch.setenv("CORRDIAG_THREADS", "1")
    run_ensemble(20, Equicorrelated(0.5), 2, bins=10, seed=1)  # load lazy imports first
    tracemalloc.start()
    try:
        run_ensemble(20, Equicorrelated(0.5), realizations, bins=200_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.85 * estimates[-1] <= peak <= estimates[-1], (peak, estimates[-1])


def test_run_ensemble_peak_on_two_threads_within_guard_estimate(monkeypatch):
    import tracemalloc

    import corrdiag.spectra as spectra
    from corrdiag._parallel import check_memory, workers

    # 500 realizations of a 1x1 matrix: whatever the pool keeps per
    # realization, and the guard does not count, would dominate the peak
    estimates = []

    def record(what, per_worker, shared=0, jobs=1):
        estimates.append(workers(jobs) * per_worker + shared)
        check_memory(what, per_worker, shared, jobs)

    monkeypatch.setattr(spectra, "check_memory", record)
    monkeypatch.setenv("CORRDIAG_THREADS", "2")
    run_ensemble(1, Independent(), 3, bins=1)  # load lazy imports first
    tracemalloc.start()
    try:
        run_ensemble(1, Independent(), 500, bins=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimates[-1], (peak, estimates[-1])


def test_thread_count_does_not_change_results(monkeypatch):
    # 7 realizations on 4 threads make uneven shares: 2, 2, 2 and 1
    for realizations, threads in ((6, "3"), (7, "4")):
        results = []
        for count in ("1", threads):
            monkeypatch.setenv("CORRDIAG_THREADS", count)
            results.append(run_ensemble(60, Equicorrelated(0.25), realizations, kmax=4,
                                        bins=20, hist_range=(-1.5, 1.5), seed=11))
        baseline, threaded = results
        assert np.array_equal(baseline.per_realization, threaded.per_realization)
        assert np.array_equal(baseline.counts, threaded.counts)
        assert (baseline.underflow, baseline.overflow) == (threaded.underflow, threaded.overflow)
        assert baseline.underflow > 0 and baseline.overflow > 0


def test_histogram_accounts_for_every_eigenvalue():
    stats = run_ensemble(70, Independent(), 4, kmax=2, bins=40, hist_range=(-2.5, 2.5), seed=1)
    assert stats.counts.sum() + stats.underflow + stats.overflow == 70 * 4
    assert len(stats.bin_edges) == 41


def test_histogram_csv_format(tmp_path):
    stats = run_ensemble(40, Independent(), 3, kmax=2, bins=10, hist_range=(-3, 3), seed=2)
    path = write_histogram_csv(stats, tmp_path / "h.csv", ("corrdiag test", "config: x"))
    lines = path.read_text().splitlines()
    assert lines[0] == "# corrdiag test"
    assert any(line.startswith("# underflow=") for line in lines)
    header_idx = lines.index("bin_left,bin_right,count,density")
    data = [line.split(",") for line in lines[header_idx + 1 :]]
    assert len(data) == 10
    counts = np.array([int(row[2]) for row in data])
    densities = np.array([float(row[3]) for row in data])
    width = 0.6
    total = counts.sum() + stats.underflow + stats.overflow
    assert densities == pytest.approx(counts / (total * width), rel=1e-12)


def test_moment_csv_and_z_scores(tmp_path):
    stats = run_ensemble(60, Equicorrelated(0.5), 8, kmax=4, seed=5)
    rows = moment_comparison_rows(stats, {2: 1.0, 4: 13.0 / 6.0})
    path = write_moment_csv(rows, tmp_path / "m.csv", ("corrdiag test",))
    lines = path.read_text().splitlines()
    assert lines[1] == "k,empirical,SE,theoretical,theory_SE,z_score"
    by_k = {int(row.split(",")[0]): row.split(",") for row in lines[2:]}
    assert by_k[4][4] == "0"  # theory values are exact
    assert float(by_k[4][5]) == (stats.moments[3] - 13.0 / 6.0) / stats.moment_se[3]


def test_concentration_probe_slope():
    report = concentration_probe((30, 60, 120), Equicorrelated(0.5), 2, 200, seed=4)
    assert set(report) == {"n_grid", "k", "fourth_central", "slope"}
    assert len(report["fourth_central"]) == 3
    assert all(v > 0 for v in report["fourth_central"])
    assert report["slope"] < 2.5


def test_concentration_probe_guards():
    with pytest.raises(ValueError):
        concentration_probe((30, 60), Independent(), 2, 200)
    with pytest.raises(ValueError):
        concentration_probe((30, 60, 120), Independent(), 2, 50)


# Exact bytes of both CSV writers for a hand-built ensemble: no eigvalsh runs,
# so no BLAS thread setting can move a digit.  Row k=3 has zero spread.
PINNED_HISTOGRAM = """\
# corrdiag test
# config: x
# underflow=1 overflow=1
bin_left,bin_right,count,density
-1,-0.5,1,0.16666666666666666
-0.5,0,3,0.5
0,0.5,4,0.66666666666666663
0.5,1,2,0.33333333333333331
"""
PINNED_MOMENTS = """\
# corrdiag test
k,empirical,SE,theoretical,theory_SE,z_score
2,1.0123456789,0.02,1,0,0.61728394500000228
3,-0.002,0,0,0,-inf
4,2.25,0.10000000000000001,2.1666666666666665,0,0.83333333333333481
"""


def test_csv_writers_pinned_bytes(tmp_path):
    stats = EnsembleStats(
        n=3, realizations=4, kmax=4,
        per_realization=np.zeros((4, 4)),
        moments=np.array([0.015625, 1.0123456789, -0.002, 2.25]),
        moment_se=np.array([0.001, 0.02, 0.0, 0.1]),
        bin_edges=np.linspace(-1.0, 1.0, 5),
        counts=np.array([1, 3, 4, 2]), underflow=1, overflow=1,
    )
    hist = write_histogram_csv(stats, tmp_path / "h.csv", ("corrdiag test", "config: x"))
    theory = {2: 1.0, 3: 0.0, 4: 2.0 + (2.0 / 3.0) * 0.5 * 0.5}
    rows = moment_comparison_rows(stats, theory)
    assert rows[2]["z_score"] == (2.25 - theory[4]) / 0.1
    moments = write_moment_csv(rows, tmp_path / "m.csv", ("corrdiag test",))
    assert hist.read_text() == PINNED_HISTOGRAM
    assert moments.read_text() == PINNED_MOMENTS

"""Acceptance criteria, one test per criterion, at their stated scales.

Each test prints the criterion's PASS/FAIL line (visible with -s, and in the
failure report otherwise) and asserts that the criterion holds.

Which walk count criterion 7 compares with the volumes is explained in the
calibration notes of `corrdiag.acceptance`.
"""

import pytest

from corrdiag import acceptance
from corrdiag.partitions import enumerate_pair_partitions, is_crossing
from corrdiag.volumes import lattice_polynomial

SEED = acceptance.DEFAULT_SEED


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance_csv")


def _run(number, out_dir):
    result = acceptance._CRITERIA[number](SEED, out_dir)
    print(result.headline())
    for line in result.details:
        print(f"    {line}")
    return result


def test_criterion_1_pair_partition_combinatorics(out_dir):
    result = _run(1, out_dir)
    assert result.passed, "\n".join(result.details)


def test_criterion_2_volume_monte_carlo(out_dir):
    result = _run(2, out_dir)
    assert result.passed, "\n".join(result.details)


def test_criterion_3_limiting_moment_formula(out_dir):
    result = _run(3, out_dir)
    assert result.passed, "\n".join(result.details)


def test_criterion_4_figure_scale_ensembles(out_dir):
    result = _run(4, out_dir)
    assert result.passed, "\n".join(result.details)
    # the histogram files named in the details must actually exist
    for c in acceptance.TOLERANCES["figure_c_grid"]:
        assert (out_dir / f"figure_c{c:g}_hist.csv").exists()


def test_criterion_5_interpolation_endpoints(out_dir):
    result = _run(5, out_dir)
    assert result.passed, "\n".join(result.details)


def test_criterion_6_curie_weiss_transition(out_dir):
    result = _run(6, out_dir)
    assert result.passed, "\n".join(result.details)


def test_criterion_7_exhaustive_counting(out_dir):
    result = _run(7, out_dir)
    assert result.passed, "\n".join(result.details)


def _finite_n_law_fails(k):
    """Crossing partitions at order k whose solution count L(n - 1) is not
    volume n^h + (1 - volume) n^(h-2), h = k/2 + 1, as polynomials in n.
    Both sides have degree h, so agreement at the h + 1 sizes n = 1..h+1
    is agreement as polynomials."""
    h = k // 2 + 1
    failed = []
    for p in enumerate_pair_partitions(k):
        if not is_crossing(p):
            continue
        lattice = lattice_polynomial(p)
        volume = lattice[-1]
        if any(sum(c * (n - 1) ** i for i, c in enumerate(lattice))
               != volume * n**h + (1 - volume) * n ** (h - 2) for n in range(1, h + 2)):
            failed.append(p.canonical())
    return failed


def test_criterion_7_finite_n_law_is_exact_at_k_up_to_6():
    # the calibration note of criterion 7: exact at k = 4 and 6, not at k = 8
    assert _finite_n_law_fails(4) == [] and _finite_n_law_fails(6) == []
    at_k8 = _finite_n_law_fails(8)
    assert len(at_k8) == 31 and "1-3,2-4,5-7,6-8" in at_k8


def test_criterion_8_trace_concentration(out_dir):
    result = _run(8, out_dir)
    assert result.passed, "\n".join(result.details)


def test_criterion_9_numerics_self_consistency(out_dir):
    result = _run(9, out_dir)
    assert result.passed, "\n".join(result.details)


def test_run_acceptance_collects_all(tmp_path):
    # cheap criteria only: the driver returns one result per requested number
    results = acceptance.run_acceptance((1, 2, 9), out_dir=tmp_path)
    assert [r.number for r in results] == [1, 2, 9]
    assert all(r.passed for r in results)


def test_run_acceptance_rejects_unknown():
    with pytest.raises(ValueError):
        acceptance.run_acceptance((1, 42))


def test_run_acceptance_checks_every_number_before_running_any(monkeypatch, tmp_path):
    def must_not_run(seed, out_dir):
        raise AssertionError("criterion ran before the selection was validated")

    monkeypatch.setitem(acceptance._CRITERIA, 1, must_not_run)
    with pytest.raises(ValueError, match="no criterion 42"):
        acceptance.run_acceptance((1, 42), out_dir=tmp_path / "d")
    with pytest.raises(ValueError, match="criterion 1 is selected more than once"):
        acceptance.run_acceptance((1, 1), out_dir=tmp_path / "d")
    assert not (tmp_path / "d").exists()

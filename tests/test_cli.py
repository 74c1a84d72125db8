"""Command-line interface: formats, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrdiag
from corrdiag import acceptance
from corrdiag.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# SHA-256 of every output of each command, recorded with OPENBLAS_NUM_THREADS=1.
# Paths are relative to the run directory because headers echo the config.
PINNED_OUTPUTS = {
    ("moments", "--k", "6", "--c", "0", "0.5", "1", "--samples", "4000", "--seed", "1",
     "--cache", "volumes.txt", "--out", "moments.csv"): {
        "moments.csv": "c16076984325261b08a17ee14059478a4ff67562fddce40a4de2c8d7760775ec",
        "stdout": "e2eccc155adb86c32e33714118aa510c0539f05e155b02ec1d054960d58eaf72",
    },
    ("volume", "1-3,2-4", "--samples", "5000", "--seed", "2"): {
        "stdout": "4612d6b97d5f7e1bb46483d15c2f53922067aca99e6405e3363940404ef88544",
    },
    ("partitions", "--k", "6"): {
        "stdout": "ea5064f0652e7c88b0c0442f74393e8ec91c103ef52ef9756abcd9d1e93ae361",
    },
    ("curie-weiss", "--beta", "0.5", "2", "--n", "200"): {
        "stdout": "46ac9b909d4d63356a04613ec9a9472aa56c73718fbdc653e88d1a16f828b304",
    },
    ("oracle", "--n", "6", "--k", "4", "--out", "oracle.json"): {
        "oracle.json": "464b5b10cd2dd62e5bc362bfe1dea3a59a8e7e96e8d1ff1ee2df90c580252297",
    },
    ("simulate", "--n", "60", "--realizations", "3", "--seed", "2", "--out", "d"): {
        "d/histogram.csv": "3c8951d33a89cd625130b2c5d6943e5cda83a5b083f8762626107d4217353fac",
        "d/moments.csv": "5632be0e8f8c61bfea0c0acff3d399d03855a4802e487bb0ccb5641dd9f74a85",
    },
}


def _fresh_interpreter_env():
    src = str(Path(corrdiag.__file__).parents[1])
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


@pytest.mark.parametrize("argv", list(PINNED_OUTPUTS), ids=lambda argv: argv[0])
def test_outputs_pinned(tmp_path, argv):
    # a fresh interpreter, so the BLAS thread setting holds before NumPy loads
    done = subprocess.run([sys.executable, "-m", "corrdiag.cli", *argv], cwd=tmp_path,
                          env=_fresh_interpreter_env(), capture_output=True, check=True)
    digests = {
        name: hashlib.sha256(done.stdout if name == "stdout"
                             else (tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_OUTPUTS[argv]
    }
    assert digests == PINNED_OUTPUTS[argv]


def _loads_scipy(tmp_path, *argvs):
    """Run each argv through main() in one fresh interpreter; did scipy load?"""
    script = (
        "import contextlib, io, json, sys\n"
        "from corrdiag.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'scipy' in sys.modules]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], cwd=tmp_path,
                          env=_fresh_interpreter_env(), capture_output=True, text=True,
                          check=True)
    codes, loaded = json.loads(done.stdout)
    assert codes == [0] * len(argvs)
    return loaded


def test_commands_that_never_sample_do_not_load_scipy(tmp_path):
    # other test modules import scipy, so only a fresh interpreter can tell
    assert not _loads_scipy(tmp_path,
                            ["partitions", "--k", "4"],
                            ["volume", "1-3,2-4", "--samples", "1000"],
                            ["moments", "--k", "4", "--samples", "1000"],
                            ["oracle", "--n", "6", "--k", "4"])
    assert _loads_scipy(tmp_path, ["simulate", "--n", "20", "--realizations", "1"])


def test_partitions_stdout(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--k", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# corrdiag ")
    assert "canonical,crossing,height" in lines
    assert "1-3,2-4,1,0" in lines
    assert "# total=3 noncrossing=2" in lines


def test_partitions_to_file(tmp_path, capsys):
    target = tmp_path / "parts.csv"
    code, out, _ = run_cli(capsys, "partitions", "--k", "6", "--out", str(target))
    assert code == 0 and str(target) in out
    body = [l for l in target.read_text().splitlines() if not l.startswith("#")]
    assert len(body) == 1 + 15  # header row + partitions


def test_volume_command(capsys):
    code, out, _ = run_cli(capsys, "volume", "1-3,2-4", "--samples", "20000", "--seed", "5")
    assert code == 0
    data = [l for l in out.splitlines() if not l.startswith("#")]
    key, samples, seed, value, se, exact = data[0].split()
    assert key == "1-3,2-4" and samples == "20000" and seed == "5" and exact == "0"
    assert 0.6 < float(value) < 0.75


def test_moments_table_format(capsys):
    code, out, _ = run_cli(capsys, "moments", "--k", "4", "--c", "0", "1",
                           "--samples", "20000", "--seed", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "k,c,value,std_error,form"
    table = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
    assert table[("2", "0")][2] == "1"
    assert table[("2", "1")][2] == "1"
    assert float(table[("4", "1")][2]) == pytest.approx(8.0 / 3.0, abs=0.05)
    assert table[("3", "0")][2] == "0"


# --samples, --seed and --cache are inert: every seed gives the exact rows
@pytest.mark.parametrize("seed", [0, 1])
def test_moments_rows_pinned(tmp_path, capsys, seed):
    cache = tmp_path / "volumes.txt"
    code, out, _ = run_cli(capsys, "moments", "--k", "6", "--c", "0.5", "1", "--samples",
                           "4000", "--seed", str(seed), "--cache", str(cache))
    assert code == 0 and not cache.exists()
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[1:] == [f"{row},0,all_partitions" for row in (
        "1,0.5,0", "1,1,0", "2,0.5,1", "2,1,1", "3,0.5,0", "3,1,0",
        "4,0.5,2.16666666667", "4,1,2.66666666667", "5,0.5,0", "5,1,0",
        "6,0.5,6.25", "6,1,11")]


def test_exact_moment_rows(capsys):
    code, out, _ = run_cli(capsys, "moments", "--k", "10", "--c", "0.5", "1",
                           "--samples", "1", "--seed", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[1:] == [f"{row},0,all_partitions" for row in (
        "1,0.5,0", "1,1,0", "2,0.5,1", "2,1,1", "3,0.5,0", "3,1,0",
        "4,0.5,2.16666666667", "4,1,2.66666666667", "5,0.5,0", "5,1,0",
        "6,0.5,6.25", "6,1,11", "7,0.5,0", "7,1,0",
        "8,0.5,21.4083333333", "8,1,60.5333333333", "9,0.5,0", "9,1,0",
        "10,0.5,83.3715277778", "10,1,415")]


def test_curie_weiss_command(capsys):
    code, out, _ = run_cli(capsys, "curie-weiss", "--beta", "2.0", "--n", "200")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0].startswith("beta,n,pair_correlation,limiting_correlation")
    beta, n, pc, lc, m = lines[1].split(",")
    assert (beta, n) == ("2", "200")
    assert float(lc) == pytest.approx(0.916814, abs=1e-5)
    assert 0 < float(pc) < 1


def test_curie_weiss_command_at_huge_beta(capsys):
    # at beta = 1e17 the two spins align almost surely; an unshifted level
    # law lost the weights to the rounding of beta*n/2 and printed 3
    code, out, _ = run_cli(capsys, "curie-weiss", "--n", "2", "--beta", "1e17")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert float(lines[1].split(",")[2]) == 1.0


def test_simulate_writes_expected_files(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--generator", "equicorrelated", "--c", "0.5",
        "--n", "80", "--realizations", "4", "--k", "4", "--seed", "3",
        "--bins", "20", "--range", "-4", "4", "--out", str(tmp_path),
    )
    assert code == 0
    hist = (tmp_path / "histogram.csv").read_text().splitlines()
    assert hist[0].startswith("# corrdiag ")
    assert "config:" in hist[1] and "seed=3" in hist[1]
    assert sum(not l.startswith("#") for l in hist) == 21  # column header + 20 bins
    moments = (tmp_path / "moments.csv").read_text().splitlines()
    assert any(l.startswith("k,empirical") for l in moments)


def test_simulate_reruns_byte_identical(tmp_path, capsys):
    args = ("simulate", "--generator", "toeplitz", "--n", "60", "--realizations", "3",
            "--k", "2", "--seed", "9")
    run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a/histogram.csv").read_bytes() == (tmp_path / "b/histogram.csv").read_bytes()
    assert (tmp_path / "a/moments.csv").read_bytes() == (tmp_path / "b/moments.csv").read_bytes()


def test_simulate_matrix_dump_roundtrip(tmp_path, capsys):
    n = 30
    code, _, _ = run_cli(
        capsys, "simulate", "--generator", "independent", "--n", str(n),
        "--realizations", "2", "--k", "2", "--seed", "7", "--out", str(tmp_path),
        "--dump-matrix",
    )
    assert code == 0
    flat = np.fromfile(tmp_path / "matrix_upper.f64", dtype=np.float64)
    assert flat.shape == (n * (n + 1) // 2,)
    from corrdiag.sampler import Independent, build_matrix

    expected = build_matrix(n, Independent(), realization=0, seed=7)
    assert np.array_equal(flat, expected[np.triu_indices(n)])


def test_simulate_check_conditions(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--generator", "curie-weiss", "--beta", "1.5",
        "--n", "10", "--seed", "0", "--check-conditions",
    )
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True


def test_simulate_check_conditions_makes_no_out_directory(tmp_path, capsys):
    target = tmp_path / "d"
    code, out, _ = run_cli(
        capsys, "simulate", "--generator", "independent", "--n", "10", "--seed", "0",
        "--check-conditions", "--out", str(target),
    )
    assert code == 0 and json.loads(out)["all_ok"] is True
    assert not target.exists()


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "6", "--k", "4")
    assert code == 0
    report = json.loads(out)
    assert report["partition_sum_identity"] is True
    assert report["total_walks"] == 6**4


def test_oracle_out_file_is_header_then_report(tmp_path, capsys):
    target = tmp_path / "oracle" / "report.json"
    code, _, _ = run_cli(capsys, "oracle", "--n", "5", "--k", "4", "--out", str(target))
    assert code == 0
    _, stdout, _ = run_cli(capsys, "oracle", "--n", "5", "--k", "4")
    lines = target.read_text().splitlines(keepends=True)
    assert lines[0].startswith("# corrdiag ") and lines[1].startswith("# config: ")
    assert "".join(lines[2:]) == stdout


def test_oracle_memory_guard_exits_before_allocating(capsys, monkeypatch):
    import tracemalloc

    from corrdiag import _parallel, oracle

    # a census holds one slab per worker, so these shapes fit in a few MiB and
    # only the walk-count guard bounds them; a lowered memory guard refuses them
    oracle._check_cost(10, 8)
    oracle._check_cost(6, 10)
    monkeypatch.setattr(_parallel, "MEMORY_GUARD", oracle._census_bytes(6, 8) // 2)
    for n, k in (("6", "10"), ("10", "8")):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "oracle", "--n", n, "--k", k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "memory guard" in err
        assert peak < 2**22


def test_matrix_memory_guard_exits_before_allocating(tmp_path, capsys):
    import tracemalloc

    target = tmp_path / "d"
    for argv in (("simulate", "--n", "200000", "--out", str(target)),
                 ("simulate", "--n", "5", "--bins", "1000000000", "--out", str(target)),
                 ("simulate", "--n", "20000", "--check-conditions")):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "memory guard" in err
        assert peak < 2**22  # the arrays would need over a hundred gigabytes
        assert not target.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_thread_count_below_one_exits_before_creating_out_dir(tmp_path, capsys, monkeypatch,
                                                             threads):
    target = tmp_path / "d"
    monkeypatch.setenv("CORRDIAG_THREADS", threads)
    code, out, err = run_cli(capsys, "simulate", "--n", "10", "--realizations", "2",
                             "--out", str(target))
    assert code == 2 and out == ""
    assert "CORRDIAG_THREADS must be a positive integer" in err
    assert not target.exists()


def test_ensemble_bytes_independent_of_blas_and_worker_threads(tmp_path):
    # at n = 1000 two OpenBLAS threads change eigvalsh's bytes; importing
    # corrdiag pins one BLAS thread unless the caller chose a setting
    base = _fresh_interpreter_env()
    for name in ("OPENBLAS_NUM_THREADS", "CORRDIAG_THREADS"):
        base.pop(name, None)
    outputs = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"CORRDIAG_THREADS": "2"}):
        out = tmp_path / str(len(outputs))
        subprocess.run([sys.executable, "-m", "corrdiag.cli", "simulate", "--n", "1000",
                        "--realizations", "2", "--out", str(out)],
                       env={**base, **extra}, capture_output=True, check=True)
        outputs.append([(out / name).read_bytes() for name in ("histogram.csv", "moments.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_oracle_check_heights(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "7", "--k", "4", "--check-heights")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_oracle_check_heights_out_file_is_header_then_report(tmp_path, capsys):
    target = tmp_path / "oracle" / "heights.json"
    code, out, _ = run_cli(capsys, "oracle", "--n", "5", "--k", "4", "--check-heights",
                           "--out", str(target))
    assert code == 0 and out == f"wrote {target}\n"
    _, stdout, _ = run_cli(capsys, "oracle", "--n", "5", "--k", "4", "--check-heights")
    assert json.loads(stdout)["ok"] is True
    lines = target.read_text().splitlines(keepends=True)
    assert lines[0].startswith("# corrdiag ") and lines[1].startswith("# config: ")
    assert "check_heights=True" in lines[1]
    assert "".join(lines[2:]) == stdout


def test_verify_subset_passes(tmp_path, capsys):
    target = tmp_path / "d"
    code, out, _ = run_cli(capsys, "verify", "--criteria", "1", "--out", str(target))
    assert code == 0
    assert "PASS criterion 1" in out
    assert "all 1 criteria passed" in out
    assert not target.exists()  # criterion 1 writes no file


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", "10", "--realizations", "0"),
    ("simulate", "--n", "10", "--range", "5", "-5"),
    ("verify", "--criteria", "42"),
    ("verify", "--criteria", "1", "42"),
    ("simulate", "--n", "10", "--bins", "0"),
    ("simulate", "--n", "10", "--k", "0"),
    ("simulate", "--seed", "-1", "--n", "5", "--realizations", "2"),
    ("moments", "--k", "18", "--samples", "1"),
    ("moments", "--k", "0"),
    ("oracle", "--n", "5", "--k", "0"),
    ("oracle", "--n", "5", "--k", "3"),
    ("moments", "--k", "16"),
    ("curie-weiss", "--beta", "nan", "--n", "10"),
    ("curie-weiss", "--beta", "0.5", "inf", "--n", "10"),
    ("simulate", "--generator", "curie-weiss", "--beta", "nan", "--n", "5", "--realizations", "2"),
    ("simulate", "--generator", "curie-weiss", "--beta", "inf", "--n", "5", "--realizations", "2"),
    ("simulate", "--n", "20", "--realizations", "2", "--range", "0", "inf"),
    ("volume", "1-3,2-4", "--samples", "1000000001"),
    ("volume", "1-3,2", "--samples", "1000"),
])
def test_bad_input_exits_before_creating_out_dir(tmp_path, capsys, argv):
    target = tmp_path / "d"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2 and out == "" and err.startswith("error:")
    assert not target.exists()


def test_verify_reports_failure_on_tampered_tolerance(tmp_path, capsys, monkeypatch):
    # tighten the k=4 ratio gap beyond reach: verify must fail loudly, not adapt
    for key, value in {"oracle_k4_gap": 1e-9, "oracle_k6_n": 4, "oracle_k4_n": 10,
                       "cell_bound_max_n": 3, "volume_samples": 2000,
                       "decay_grid_k4": (6, 8, 10), "decay_grid_k6": (8, 10, 12),
                       "tie_k6": ("1-3,2-5,4-6", (1, 3))}.items():
        monkeypatch.setitem(acceptance.TOLERANCES, key, value)
    code, out, _ = run_cli(capsys, "verify", "--criteria", "7", "--out", str(tmp_path))
    assert code == 1
    assert "FAIL criterion 7" in out


def _stub_criteria(monkeypatch) -> list:
    started = []
    for number in acceptance._CRITERIA:
        monkeypatch.setitem(acceptance._CRITERIA, number, lambda *args: started.append(args))
    return started


def test_verify_refuses_a_tolerances_option(tmp_path, capsys, monkeypatch):
    # the criteria run as stated: the parser knows no override
    started = _stub_criteria(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--criteria", "1", "--tolerances", "{}", "--out", str(tmp_path / "d")])
    assert exc.value.code == 2 and started == []
    assert "--tolerances" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_verify_rejects_a_negative_seed_before_any_criterion(tmp_path, capsys, monkeypatch):
    started = _stub_criteria(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--criteria", "3", "9", "--seed", "-1",
                             "--out", str(tmp_path / "d"))
    assert code == 2 and out == "" and started == []
    assert err.startswith("error:") and "seed" in err
    assert not (tmp_path / "d").exists()


def test_error_exit_code_is_two(capsys):
    code, _, err = run_cli(capsys, "volume", "not-a-partition")
    assert code == 2
    assert err.startswith("error:")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "corrdiag" in capsys.readouterr().out


def test_partitions_cap_exits_before_allocating(tmp_path, capsys):
    import tracemalloc

    target = tmp_path / "d"
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "partitions", "--k", "16", "--out", str(target))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exceeds the enumeration cap 14" in err
    assert not target.exists()
    assert peak < 2**22  # the cap refuses the 2,027,025 pairings before any is built

"""Smoke test of the benchmark at toy sizes; takes about a minute.

    python3 -m pytest perfbench/test_smoke.py

Run it from the root of a corrdiag source tree.  It runs every workload
untraced and traced, shows that the output checks reject corrupted outputs,
that a vanished wrap point reads "missing", and that the benchmark refuses to
run without a source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
from run import DEFAULT_SEED, HERE, run, spawn_pass
from workloads import WORKLOADS, Checker, workload_ops

ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCES = json.loads((HERE / "reference.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5])
def test_untraced_run_is_correct(workload, seed):
    line = run(workload, seed, 0, trace=False, size="toy", root=ROOT)["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 3 * len(workload_ops(workload, seed, "toy"))
    assert [m["name"] for m in BENCH["end_to_end"]] == list(line["metrics"])
    assert all(m["value"] > 0 for m in line["metrics"].values())


# a per-layer count that the workload's own layers must move
OWN_LAYER = {"ensemble": "sampler.diagonals", "moments": "volumes.cache_misses",
             "oracle": "oracle.census_cache_hits"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = run(workload, DEFAULT_SEED, 0, trace=True, size="toy", root=ROOT)
    line = result["line"]
    assert line["correct"], "traced outputs must match the untraced ones"
    assert [m["name"] for m in BENCH["per_layer"]] == list(line["metrics"])
    values = {name: m["value"] for name, m in line["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values()), values
    assert values[OWN_LAYER[workload]] > 0
    assert values["trace.accounted"] == pytest.approx(1.0, abs=0.05)
    assert values["trace.overhead"] > 0
    assert (result["work"] / "pass-01" / "spans.json").is_file()


@pytest.fixture(scope="module")
def toy_passes(tmp_path_factory):
    """One untraced toy pass per workload, run in a scratch directory."""
    base = tmp_path_factory.mktemp("passes")
    out = {}
    for workload in WORKLOADS:
        ops = workload_ops(workload, DEFAULT_SEED, "toy")
        result = spawn_pass(ROOT / "src", base / workload, ops, False, 120.0)
        assert result is not None
        out[workload] = (ops, base / workload)
    return out


def _flip_last_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


def _replace(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_checks_reject_corrupted_outputs(toy_passes, tmp_path):
    checker = Checker(REFERENCES, "toy")

    def errors_after(workload, label, corrupt):
        ops, pass_dir = toy_passes[workload]
        copy = tmp_path / f"{workload}-{label}"
        shutil.copytree(pass_dir, copy)
        op = next(op for op in ops if op.label == label)
        assert checker.check(op, copy, 0) == []
        corrupt(copy / "out", copy / "stdout" / f"{label}.txt")
        return checker.check(op, copy, 0)

    assert errors_after("ensemble", "toeplitz",
                        lambda out, _: _flip_last_byte(out / "ensemble/toeplitz/matrix_upper.f64"))
    assert errors_after("ensemble", "curie_weiss",
                        lambda out, _: _replace(out / "ensemble/curie_weiss/histogram.csv",
                                                "underflow=0", "underflow=1"))
    assert errors_after("ensemble", "equicorrelated",
                        lambda out, _: (out / "ensemble/equicorrelated/moments.csv").unlink())
    assert errors_after("moments", "cold",
                        lambda out, _: _replace(out / "moments/cold.csv", "\n6,0,5,", "\n6,0,5.5,"))
    assert errors_after("moments", "warm",
                        lambda out, _: _replace(out / "moments/warm.csv", "\n3,0,0,", "\n3,0,1e-300,"))
    assert errors_after("oracle", "n5_k6",
                        lambda out, _: _replace(out / "oracle/n5_k6.json",
                                                '"total_walks": 15625', '"total_walks": 15626'))
    assert errors_after("oracle", "heights_n5_k6",
                        lambda _, stdout: _replace(stdout, '"ok": true', '"ok": false'))
    ops, pass_dir = toy_passes["oracle"]
    assert checker.check(ops[0], pass_dir, 1) == ["exit code 1"]


def test_missing_wrap_point_reads_missing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import corrdiag.sampler
    import corrdiag.spectra

    build_matrix = corrdiag.spectra.build_matrix
    # as if a later commit had renamed diagonal_rng away
    monkeypatch.setattr(tracer, "WRAPS", tuple(
        (module, "renamed_away" if path == "diagonal_rng" else path, name)
        for module, path, name in tracer.WRAPS))
    trace = tracer.Tracer()
    trace.install()
    try:
        assert corrdiag.spectra.build_matrix is not build_matrix
        corrdiag.spectra.run_ensemble(8, corrdiag.sampler.Toeplitz(), 2, seed=3)
    finally:
        trace.uninstall()
    assert corrdiag.spectra.build_matrix is build_matrix
    metrics = tracer.layer_metrics(trace, 1.0)
    assert metrics["sampler.seed_ms"] == "missing"
    assert metrics["self_s.sampler"] == "missing"
    assert metrics["sampler.build_ms.toeplitz"] > 0
    assert metrics["sampler.diagonals"] == 2 * 8


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""

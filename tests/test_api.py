"""The package's public surface: its export list, the input checks of its
entry points, and what the benchmark in perfbench/ calls of it."""

import ast
import importlib
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import corrdiag
from corrdiag.cli import build_parser
from corrdiag.curie_weiss import MAX_SPINS, magnetization_levels
from corrdiag.moments import catalan
from corrdiag.oracle import check_excess_crossing_decay
from corrdiag.partitions import PairPartition
from corrdiag.sampler import Independent, build_matrix, sample_diagonal
from corrdiag.spectra import empirical_moments, trace_moment_direct

ROOT = Path(__file__).resolve().parents[1]
NOT_A_SPEC = object()


def _imported_names() -> list[str]:
    tree = ast.parse(Path(corrdiag.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names]


def test_all_lists_exactly_the_imported_names():
    assert len(corrdiag.__all__) == len(set(corrdiag.__all__))
    assert sorted(corrdiag.__all__) == sorted(_imported_names())


def test_every_exported_name_resolves():
    for name in corrdiag.__all__:
        assert getattr(corrdiag, name) is not None, name


def test_retired_opposed_ratio_exports_are_gone():
    for name in ("opposed_ratio", "extrapolated_opposed_ratio", "solution_ratio", "VolumeCache",
                 "MomentValue"):
        assert name not in corrdiag.__all__
        assert not hasattr(corrdiag, name)


def _relative_imports(module: str) -> dict[str, set[str]]:
    """Names ``module`` imports from each sibling module, by sibling."""
    tree = ast.parse((Path(corrdiag.__file__).parent / f"{module}.py").read_text())
    names: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:  # ``from . import m`` imports module m
                names.setdefault(node.module or alias.name, set()).add(alias.name)
    return names


def test_oracle_imports_nothing_from_volumes():
    # the walk census counts only the walks it scans; lattice counts live in volumes
    modules = _relative_imports("oracle")
    assert "_parallel" in modules and "volumes" not in modules


def test_moments_import_no_monte_carlo():
    # every limiting moment is exact: no sampled volume, seed or sampler stream
    names = _relative_imports("moments")
    assert names["volumes"] == {"orbit_volumes"}
    assert names["sampler"] <= {"CurieWeiss", "Equicorrelated", "GeneratorSpec",
                                "Independent", "Toeplitz"}


def test_partitions_hold_partner_tuples_under_one_cap():
    # one representation of a pairing and one bound on k: no text keys, no byte estimate
    from corrdiag import moments, partitions, volumes

    for module, name in ((partitions, "_from_partner"), (partitions, "_text"),
                         (partitions, "_pairing_bytes"), (volumes, "_orbit_key")):
        assert not hasattr(module, name), name
    assert "_parallel" not in _relative_imports("partitions")
    assert moments.EXACT_MAX_K is partitions.MAX_GROUND_SET


@pytest.mark.parametrize("call, args, error, message", [
    (sample_diagonal, (Independent(), 0, np.random.default_rng(0)), ValueError, "got 0$"),
    (build_matrix, (0, Independent()), ValueError, "got 0$"),
    (sample_diagonal, (NOT_A_SPEC, 3, np.random.default_rng(0)), TypeError, re.escape(repr(NOT_A_SPEC))),
    (build_matrix, (3, NOT_A_SPEC), TypeError, re.escape(repr(NOT_A_SPEC))),
    (empirical_moments, (np.ones(3), 0), ValueError, "got 0$"),
    (trace_moment_direct, (np.eye(501), 2), ValueError, "n=501 "),
    (check_excess_crossing_decay, ((6, 8), PairPartition.from_string("1-2,3-5,4-6"), (1, 2)),
     ValueError, r"block \(1, 2\) of 1-2,3-5,4-6 is not crossed"),
    (magnetization_levels, (MAX_SPINS + 1, 1.0), ValueError, f"spin count {MAX_SPINS + 1} "),
    (catalan, (-1,), ValueError, "got -1$"),
], ids=["sample_diagonal-length", "build_matrix-size", "sample_diagonal-spec", "build_matrix-spec",
        "empirical_moments-kmax", "trace_moment_direct-size", "check_excess_crossing_decay-block",
        "magnetization_levels-spins", "catalan-index"])
def test_entry_points_name_the_value_they_refuse(call, args, error, message):
    with pytest.raises(error, match=message):
        call(*args)


@pytest.fixture
def perfbench(monkeypatch):
    """Import perfbench/'s modules read-only: neither this process nor the
    benchmark's child passes write bytecode beside them."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    yield importlib.import_module
    for name in ("run", "workloads", "matrices"):
        sys.modules.pop(name, None)


def _tracer_table(name: str):
    """The literal table ``name`` of the benchmark's perfbench/tracer.py, read
    from its source without importing or running it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py has no table {name}")


def _attribute(module: str, path: str):
    owner = importlib.import_module(module)
    for name in path.split("."):
        owner = getattr(owner, name)
    return owner


def test_benchmark_wrap_points_resolve():
    # the tracer wraps each name where its caller looks it up; a renamed or
    # removed one makes every metric that depends on it read "missing"
    for module, path, _ in _tracer_table("WRAPS"):
        assert callable(_attribute(module, path)), (module, path)
    for module in _tracer_table("PARALLEL_MAPS"):
        assert callable(_attribute(module, "parallel_map")), module
    for module, function, _ in _tracer_table("CACHE_COUNTERS"):
        assert hasattr(_attribute(module, function), "cache_info"), (module, function)


def test_benchmark_commands_parse(perfbench):
    # every argv the benchmark runs must still parse: a dropped flag would
    # otherwise show only as a failed benchmark run
    workloads = perfbench("workloads")
    parser = build_parser()
    for size in ("full", "toy"):
        for workload in workloads.WORKLOADS:
            ops = workloads.workload_ops(workload, seed=1, size=size)
            assert ops, (workload, size)
            for op in ops:
                parser.parse_args(op.argv)


@pytest.mark.parametrize("workload", ["ensemble", "moments", "oracle"])
def test_traced_toy_benchmark_reports_every_metric(perfbench, tmp_path, workload):
    # a traced pass that dies, or a metric that reads "missing" because a wrap
    # point moved, would otherwise show only in a full benchmark run.  The
    # run reads this tree's src/ and writes only under tmp_path
    for name in ("src", "BENCHMARK.json"):
        (tmp_path / name).symlink_to(ROOT / name)
    line = perfbench("run").run(workload, 1, 0, True, size="toy", root=tmp_path)["line"]
    assert line["correct"] and line["failed"] == 0
    values = {name: metric["value"] for name, metric in line["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()), values

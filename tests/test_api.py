"""The package's export list."""

import ast
import importlib
import sys
from pathlib import Path

import corrdiag
from corrdiag.cli import build_parser


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


def _tracer_table(name: str):
    """The literal table ``name`` of the benchmark's perfbench/tracer.py, read
    from its source without importing or running it."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text())
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


def test_benchmark_commands_parse(monkeypatch):
    # every argv the benchmark runs must still parse: a dropped flag would
    # otherwise show only as a failed benchmark run.  perfbench/workloads.py
    # is imported read-only, with no bytecode written beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
        parser = build_parser()
        for size in ("full", "toy"):
            for workload in workloads.WORKLOADS:
                ops = workloads.workload_ops(workload, seed=1, size=size)
                assert ops, (workload, size)
                for op in ops:
                    parser.parse_args(op.argv)
    finally:
        for name in ("workloads", "matrices"):
            sys.modules.pop(name, None)

"""The package's export list."""

import ast
from pathlib import Path

import corrdiag


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
    assert names["volumes"] == {"exact_volume"}
    assert names["sampler"] <= {"CurieWeiss", "Equicorrelated", "GeneratorSpec",
                                "Independent", "Toeplitz"}

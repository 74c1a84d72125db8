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
    for name in ("opposed_ratio", "extrapolated_opposed_ratio", "solution_ratio"):
        assert name not in corrdiag.__all__
        assert not hasattr(corrdiag, name)


def test_oracle_imports_nothing_from_volumes():
    # the walk census counts only the walks it scans; lattice counts live in volumes
    tree = ast.parse((Path(corrdiag.__file__).parent / "oracle.py").read_text())
    modules = {node.module or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    assert "_parallel" in modules and "volumes" not in modules

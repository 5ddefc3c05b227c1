"""Static checks on the package source."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "invopoly"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


def _imports_oracle(name: str) -> bool:
    tree = ast.parse((SRC / name).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            if not node.module or node.module == "invopoly":
                modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    return any(m.split(".")[-1] == "oracle" for m in modules)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_cli_imports_oracle(path):
    # the oracle referees the criterion, so the library decides with the
    # criterion alone; only the command line (and the package's re-exports)
    # may run the oracle
    assert not _imports_oracle(path.name)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_from_other_modules(path):
    # each module keeps its _-prefixed names to itself; what another module
    # needs is public (the walk over mu_d, say, stays inside criterion)
    tree = ast.parse(path.read_text(), filename=str(path))
    private = sorted(
        (node.lineno, f"{node.module}.{alias.name}")
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names if alias.name.startswith("_"))
    assert not private, f"{path.name}: imports private names {private}"


@pytest.mark.parametrize("name", ["criterion.py", "construct.py", "families.py", "cli.py"])
def test_log_tables_are_not_read_above_polyring(name):
    # whether h is summed through the log tables or by Horner's rule is
    # decided in polyring (SparsePoly.point_values); the modules above it
    # read h through that evaluator and never the tables themselves
    tree = ast.parse((SRC / name).read_text(), filename=name)
    reads = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "log_table")
    assert not reads, f"{name} reads log_table at lines {reads}"

"""Every name a module imports is used in it, and every import is at module level.

No linter is part of the toolchain, so this scan is the guard against dead
imports. `__init__.py` is skipped: its imports are the public re-exports.
An import inside a function binds its name when the function runs, so it
would bypass a test or benchmark that replaces the module attribute.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "blab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    assert _unused_imports("import json\nfrom os import path, sep\nprint(sep)\n") == [
        "line 1: json", "line 2: path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _nested_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]


def test_scan_finds_a_nested_import():
    source = "import os\n\ndef f():\n    from . import nn\n    return nn\n"
    assert _nested_imports(source) == ["line 4"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    assert _nested_imports(path.read_text()) == []


def _imported_modules(source: str) -> set[str]:
    """Absolute names of the modules a blab module imports from."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "blab." * (node.level > 0) + (node.module or "")
            modules.update([base] if node.module else (base + a.name for a in node.names))
    return modules


def test_metrics_needs_neither_the_solver_nor_the_networks():
    # the instruments read working sets only, so metrics sits below boundary and nn
    assert _imported_modules("from . import nn\nfrom .data import D\n") == {"blab.nn", "blab.data"}
    assert not _imported_modules((SRC / "metrics.py").read_text()) & {"blab.boundary", "blab.nn"}


def test_geometry_imports_no_blab_module():
    # the oracles stay independent of the data model, the networks and the solver
    assert not {m for m in _imported_modules((SRC / "geometry.py").read_text())
                if m.startswith("blab")}


def test_config_imports_only_the_data_model_and_the_networks():
    # the config format sits below the runners that read it
    assert {m for m in _imported_modules((SRC / "config.py").read_text())
            if m.startswith("blab")} <= {"blab.data", "blab.nn"}

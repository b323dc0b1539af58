"""Every name a module imports is used in it, every import is at module level,
every public function, class and method has a caller in blab, every field
blab stores has a reader, and every module-level name blab binds is read in blab.

No linter is part of the toolchain, so these scans are the guard against dead
imports, dead code and dead state. `__init__.py` is skipped by the import scan:
its imports are the public re-exports. An import inside a function binds its
name when the function runs, so it would bypass a test or benchmark that
replaces the module attribute. Public code that only tests call is code the
program does not need, and a field nothing reads is work done for no one; so
is a constant, table or helper that outlived the code that read it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "blab"
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


def _public_without_a_caller(sources: dict[str, str]) -> list[str]:
    """module.name of each public function, class or method that no code of
    these modules names (as a name or an attribute) outside its own definition."""
    nodes = [(module, node) for module, source in sources.items()
             for node in ast.walk(ast.parse(source))]
    refs = [(node.id if isinstance(node, ast.Name) else node.attr, node) for _, node in nodes
            if isinstance(node, (ast.Name, ast.Attribute))]
    found = []
    for module, node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            own = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and id(ref) not in own for name, ref in refs):
                found.append(f"{module}.{node.name}")
    return sorted(found)


def test_scan_finds_public_code_without_a_caller():
    source = ("def used():\n    return 1\n\ndef recursive():\n    return recursive()\n\n"
              "class Box:\n    def get(self):\n        return used() + self._size\n")
    assert _public_without_a_caller({"m": source}) == ["m.Box", "m.get", "m.recursive"]


def test_every_public_function_class_and_method_has_a_caller_in_blab():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert _public_without_a_caller(sources) == []


def _unread_module_names(sources: dict[str, str]) -> list[str]:
    """module.name of each name a module body binds (an assignment, a function
    or a class) that no code of these modules reads outside that binding."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(node.id if isinstance(node, ast.Name) else node.attr, node)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    found = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = {id(n) for n in ast.walk(stmt)}
            found += [f"{module}.{name}" for name in names
                      if not any(read == name and id(ref) not in own for read, ref in reads)]
    return sorted(found)


def test_scan_finds_a_module_level_name_nobody_reads():
    source = ("TOL = 1e-9\n_TABLE, SIZE = (1, 2), 3\nPair = tuple[int, int]\nLIMIT: int = 4\n\n"
              "def _helper():\n    return _helper()\n\ndef used():\n    return LIMIT + b.SIZE\n")
    other = "from .m import used\n\nprint(used())\n"
    assert _unread_module_names({"m": source, "b": other}) == [
        "m.Pair", "m.TOL", "m._TABLE", "m._helper"]


def test_every_module_level_name_blab_binds_is_read_in_blab():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert _unread_module_names(sources) == []


def _unread_fields(sources: dict[str, str], readers: list[str]) -> list[str]:
    """module.Class.name of each field a class body of these modules annotates
    (a dataclass field) and each self.<name> its methods assign, that no code
    in readers loads as an attribute."""
    loaded = {node.attr for source in readers for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = set()
    for module, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = {node.target.id for node in cls.body
                     if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
            names.update(node.attr for node in ast.walk(cls)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                         and isinstance(node.value, ast.Name) and node.value.id == "self")
            found.update(f"{module}.{cls.name}.{name}" for name in names - loaded)
    return sorted(found)


def test_scan_finds_a_field_without_a_reader():
    source = ("@dataclass\nclass Report:\n    epochs: int\n    loss: float\n\n"
              "class Run:\n    def __init__(self, path):\n        self.path = path\n"
              "        self.size = 0\n        self.size += 1\n\n"
              "def show(report, run):\n    return report.epochs, run.path\n")
    assert _unread_fields({"m": source}, [source]) == ["m.Report.loss", "m.Run.size"]


def test_every_field_blab_stores_has_a_reader():
    # two fields have readers only outside blab: TrainReport.epochs_run (perfbench's
    # tracer) and PiecewiseLinearBoundary.pieces (a geometry test)
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    readers = [p.read_text() for d in ("src/blab", "perfbench", "tests")
               for p in (ROOT / d).rglob("*.py")]
    assert _unread_fields(sources, readers) == []

"""Every name a module of loccgraph imports is read in that module.

Two kinds of import are exempt: the names the package re-exports in
__init__.__all__, and, in statements marked `noqa: F401`, the names the
benchmark's layer trace wraps in that module (test_layertrace_names checks
that those exist)."""

import ast
import sys
from pathlib import Path

import loccgraph

SOURCE = Path(loccgraph.__file__).resolve().parent
sys.path.insert(0, str(SOURCE.parents[1] / "perfbench"))

import layertrace  # noqa: E402

TRACED = {
    (owner.__name__.rpartition(".")[2], name)
    for table in (layertrace.DECISION_FUNCTIONS, layertrace.SETUP_FUNCTIONS)
    for (_, name), owners in table.items() for owner in owners
}


def _unread_imports(path: Path) -> list[str]:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    exempt = set(loccgraph.__all__) if path.name == "__init__.py" else set()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        traced = any("noqa: F401" in line
                     for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in exempt and not (traced and (path.stem, name) in TRACED):
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in read]


def test_every_imported_name_is_read():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    assert [bad for path in modules for bad in _unread_imports(path)] == []


def test_an_unread_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nfrom typing import Optional, Sequence\n"
                      "from .linalg import frame, gram  # noqa: F401\n"
                      "x: Optional[int] = None\n")
    # the layer trace wraps frame in criteria, not in this module
    assert _unread_imports(module) == [
        "module.py:1 os", "module.py:2 Sequence", "module.py:3 frame", "module.py:3 gram"]

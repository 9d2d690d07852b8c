"""Static checks on the package source and the tests."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "spinwitness"


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports in order to re-export
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted(TESTS.glob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def _linalg_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return [f"{path.name}:{name}" for name in names
            if name.startswith(("scipy.linalg", "scipy.sparse.linalg"))]


def test_lapack_only_in_eigensolvers():
    # one eigensolver entry point: every other module solves through it
    found = [entry for path in sorted(SRC.glob("*.py"))
             if path.name != "eigensolvers.py"
             for entry in _linalg_imports(path)]
    assert found == []
    assert _linalg_imports(SRC / "eigensolvers.py")

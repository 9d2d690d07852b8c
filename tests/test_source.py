"""Static checks on the package source and the tests."""

import ast
import dataclasses
import importlib
from pathlib import Path

from spinwitness.hamiltonians import SpinSystem

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



def test_one_failure_type_per_exit_code():
    # the CLI exits 2 on ConfigError and 3 on SolverError; any other
    # exception class in the package is a failure type neither handler names
    errors = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"spinwitness.{path.stem}")
        errors |= {f"{path.stem}.{name}" for name, obj in vars(module).items()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__ == module.__name__}
    assert errors == {"config.ConfigError", "eigensolvers.SolverError"}


def test_one_hamiltonian_builder():
    # build_hamiltonian assembles every Hamiltonian but full_spectrum's, which
    # sizes its symmetry blocks from a basis before it assembles on it
    naming = [path.name for path in sorted(SRC.glob("*.py"))
              if "heisenberg_matrix" in path.read_text()]
    assert naming == ["hamiltonians.py", "operators.py", "witness.py"]


def test_energies_in_units_of_j():
    # J is the energy unit, not a knob: no system field or parameter
    # carries it, and no function takes a unit of its own
    assert [f.name for f in dataclasses.fields(SpinSystem)] == ["topology", "site_two_s"]
    params = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                    if arg is not None:
                        params.setdefault(arg.arg, []).append(
                            f"{path.stem}.{getattr(node, 'name', 'lambda')}")
    assert "coupling" not in params
    assert "unit" not in params

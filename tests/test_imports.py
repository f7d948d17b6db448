"""Static checks of the package's imports, read with `ast` from the source:
the runtime needs the standard library only, chi's two routes import no
solver, and the symbolic adjoint route is called only where `onshell
adjoint` prints it."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "onshell"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """(level, module) per imported module: level 0 for an absolute import,
    and for `from . import x` the module is x."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                out += [(node.level, alias.name) for alias in node.names]
            else:
                out.append((node.level, node.module))
    return out


def test_the_modules_are_found():
    assert {p.stem for p in MODULES} >= {"__init__", "chi", "cli", "extension", "spectral"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    outside = [module for level, module in _imported(_tree(path))
               if level == 0 and module.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_chi_imports_no_solver():
    imported = [module for level, module in _imported(_tree(SRC / "chi.py"))]
    solvers = {"extension", "spectral", "onshell.extension", "onshell.spectral"}
    assert [m for m in imported if m in solvers] == []
    assert "onshell" not in imported and "opalg" in imported


def test_adjoint_restriction_is_called_only_by_the_adjoint_subcommand():
    callers = []
    for path in MODULES:
        for func in ast.walk(_tree(path)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers += [f"{path.stem}.{func.name}" for node in ast.walk(func)
                            if isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name)
                            and node.func.id == "adjoint_restriction"]
    assert callers == ["cli._cmd_adjoint"]

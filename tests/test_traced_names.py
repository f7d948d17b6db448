"""Every name that the benchmark tracer wraps exists in `onshell`.

`perfbench/tracing.py` looks its entry points and the counted scalar
methods up by name when it installs; a rename or a deletion in `src/` would
only show there.  The two tables are read from the file's source, so the
tracer itself is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _table(name):
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


@pytest.mark.parametrize("module, cls, attr, group", _table("ENTRY_POINTS"))
def test_entry_point_resolves(module, cls, attr, group):
    owner = importlib.import_module(f"onshell.{module}")
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("attr", _table("SCALAR_METHODS"))
def test_scalar_method_resolves(attr):
    from onshell.scalar import GaussianRational
    assert callable(vars(GaussianRational)[attr])

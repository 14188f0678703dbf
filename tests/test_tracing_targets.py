"""Every entry point the benchmark tracer patches exists in hierctrl.

perfbench/tracing.py names its traced layers as (module, attribute path)
pairs.  The file is read as text and parsed, never imported or changed, so
a refactor that renames or removes a traced function or method fails here,
not only in the traced benchmark run."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    """The (module, attribute path) of each TARGETS entry."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


@pytest.mark.parametrize("module, path", _targets(), ids=lambda v: v)
def test_traced_entry_point_resolves(module, path):
    obj = functools.reduce(getattr, path.split("."), importlib.import_module(f"hierctrl.{module}"))
    assert callable(obj)

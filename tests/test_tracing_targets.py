"""Every entry point the benchmark tracer patches exists in hierctrl.

perfbench/tracing.py names its traced layers as (module, attribute path)
pairs.  The file is read as text and parsed, never imported or changed, so
a refactor that renames or removes a traced function or method fails here,
not only in the traced benchmark run."""

import ast
import functools
import importlib
from pathlib import Path

import numpy as np
import pytest
from conftest import make_hum_spec

from hierctrl import hum

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


def test_grad_G_reaches_each_traced_solver_once(monkeypatch):
    """grad_G calls both inner solvers through hum's own bindings, the ones
    the tracer patches there, once each, so a Lambda apply's traced calls
    and sweeps count every inner solve."""
    traced = {(module, path) for module, path in _targets()}
    assert {("hum", "solve_coupled_adjoint"), ("nash", "solve_nash_fixed_point")} <= traced
    calls = []
    for name in ("solve_coupled_adjoint", "solve_nash_fixed_point"):
        original = getattr(hum, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(hum, name, counted)
    spec = make_hum_spec().with_zero_data()
    hum.grad_G(spec, np.random.default_rng(5).standard_normal(spec.grid.n_interior), 0.0)
    assert calls == ["solve_coupled_adjoint", "solve_nash_fixed_point"]


def test_recycled_solve_reaches_the_traced_cg(monkeypatch):
    """A warm-started minimize_G with Ritz pairs runs its preconditioned CG
    through hum's conjugate_gradient binding, the one the tracer patches,
    so the traced iterations are the solve's cg_iterations."""
    assert ("linalg", "conjugate_gradient") in set(_targets())
    spec = make_hum_spec()
    cold = hum.minimize_G(spec, 1e-4, cg_tol=1e-9)
    assert cold.cg_iterations >= hum.RITZ_DIRECTIONS and len(cold.ritz.values) > 0
    calls = []
    original = hum.conjugate_gradient

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((kwargs.get("preconditioner") is not None, result.iterations))
        return result

    monkeypatch.setattr(hum, "conjugate_gradient", counted)
    warm = hum.minimize_G(spec.with_(w0=1.1 * spec.w0), 1e-4, cg_tol=1e-9, start=cold)
    assert warm.cg_iterations > 0
    assert [pre for pre, _ in calls] == [True]
    assert sum(its for _, its in calls) == warm.cg_iterations

"""Guard: every module-level function in src/hierctrl is reached from src/,
or is a reference the tests compare against and is named below with its reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hierctrl"

# (module, function): why it stays although no command reaches it
TEST_REFERENCES = {
    ("hum", "apply_lambda"): "Lambda alone, for the symmetry and semidefiniteness checks",
    ("hum", "eval_G"): "the functional whose finite differences check grad_G",
    ("nash", "apply_A"): "the equilibrium operator the converged controls must satisfy",
    ("nash", "apply_response"): "the response operator A_i of the duality and linearity checks",
    ("nash", "apply_response_adjoint"): "A_i^*, the other side of the response duality check",
    ("nash", "compute_rhs"): "the right side B of the equilibrium equation A(v) = B",
    ("nash", "diagnostics"): "contraction diagnostics (M0, coercivity margin, measured factor)",
    ("operators", "duality_gap"): "the discrete duality identity of the forward and backward marches",
    ("semilinear", "quasi_equilibrium_residual"): "plug-back residual of the semilinear optimality system",
    ("semilinear", "sample_bound"): "the sampled derivative bound a nonlinearity must keep within M",
}


def _referenced(paths):
    """Every name the files refer to: loaded names and imported names.

    Attribute names do not count: `ast.evaluate(env)` calls a method, and
    must not keep a module-level function of the same name alive.
    """
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _unreached():
    src_refs = _referenced(SRC.glob("*.py"))
    return {(path.stem, node.name)
            for path in SRC.glob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name not in src_refs}


def test_every_function_is_reached_or_a_named_test_reference():
    unreached = _unreached()
    # delete these, or name them in TEST_REFERENCES with the reason they stay
    assert sorted(unreached - TEST_REFERENCES.keys()) == []
    # stale entries: src/ reaches these now, or they are gone
    assert sorted(TEST_REFERENCES.keys() - unreached) == []


def test_named_test_references_are_used_by_tests():
    test_refs = _referenced((ROOT / "tests").glob("test_*.py"))
    assert sorted(name for _, name in TEST_REFERENCES if name not in test_refs) == []

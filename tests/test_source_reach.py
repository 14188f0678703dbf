"""Guards against code that nothing uses: every module-level function in
src/hierctrl is reached from src/, and every public method is named by an
attribute access in src/, or is a reference the tests compare against and
is named below with its reason; every module-level import is used; every
dataclass and NamedTuple field is read."""

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
    ("operators", "duality_gap"): "the discrete duality identity of the forward and backward marches",
    ("semilinear", "quasi_equilibrium_residual"): "plug-back residual of the semilinear optimality system",
    ("semilinear", "sample_bound"): "the sampled derivative bound a nonlinearity must keep within M",
}

# (module, class, method): why a public method stays although no attribute
# access in src/ names it.  The match is by name, so a method that shares
# its name with one src/ calls (DenseInverse.solve, Factorization.solve)
# passes unlisted.
METHOD_TEST_REFERENCES = {
    ("carleman", "EtaFunction", "on_nodes"): "eta on the grid nodes, which the weight-property checks sample",
    ("mesh", "SpaceTimeField", "from_spatial"): "a field constant in time: the test problems' targets and leaders",
    ("mesh", "SubdomainMask", "node_count"): "the node count the mask-building checks assert",
    ("operators", "TimeStepper", "step"): "the per-level representation (Modes, DenseInverse or "
                                          "Factorization) the tests inspect and march against",
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


def _attribute_names(paths):
    return {node.attr
            for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def _unnamed_methods():
    """Public methods (and properties) whose name no src/ attribute access uses."""
    src_attrs = _attribute_names(SRC.glob("*.py"))
    return {(path.stem, cls.name, item.name)
            for path in SRC.glob("*.py")
            for cls in ast.walk(ast.parse(path.read_text()))
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            and item.name not in src_attrs}


def test_every_public_method_is_named_in_src_or_a_named_test_reference():
    unnamed = _unnamed_methods()
    # delete these, or name them in METHOD_TEST_REFERENCES with the reason they stay
    assert sorted(unnamed - METHOD_TEST_REFERENCES.keys()) == []
    assert sorted(METHOD_TEST_REFERENCES.keys() - unnamed) == []


def test_named_method_references_are_used_by_tests():
    test_attrs = _attribute_names([*(ROOT / "tests").glob("*.py")])
    assert sorted(name for *_, name in METHOD_TEST_REFERENCES if name not in test_attrs) == []


def _imported_names(tree):
    """Names the module's top-level imports bind, __future__ aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def _exported_names(tree):
    """The strings of a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_module_import_is_used():
    unused = []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name) for name in _imported_names(tree) - loaded - _exported_names(tree)]
    assert sorted(unused) == []


def _is_record_class(node):
    """A @dataclass (bare or called) or a NamedTuple subclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return (any(getattr(d, "id", None) == "dataclass" for d in decorators)
            or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases))


def _fields():
    return {(path.stem, node.name, item.target.id)
            for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef) and _is_record_class(node)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}


def test_every_record_field_is_read():
    """Each field is read as an attribute somewhere in src/ or tests/.  The
    match is by name, so a field that shares its name with an attribute
    read elsewhere passes."""
    read = {node.attr
            for path in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")]
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert sorted(f for f in _fields() if f[2] not in read) == []

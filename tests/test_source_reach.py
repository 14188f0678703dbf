"""Guards against code that nothing uses: every module-level function in
src/hierctrl is reached from src/ (a re-export in __init__.py does not
count); every dataclass and NamedTuple field, public method and property of
a src/ class is read by src/ code during the shipped runs, or is a reference
the tests read and is named below with its reason; every attribute a
HierctrlError subclass sets is written to error.json (cli._error_details
reads it) or is named below with its reason; every module-level import is
used."""

import ast
import dataclasses
import importlib
import inspect
import sys
import textwrap
from functools import cached_property
from pathlib import Path

from test_cli import CONFIGS, _with_keys

from hierctrl.cli import _error_details, run
from hierctrl.errors import HierctrlError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hierctrl"
MODULES = [importlib.import_module(f"hierctrl.{path.stem}") for path in sorted(SRC.glob("*.py"))
           if path.stem != "__init__"]

# (module, function): why it stays although no command reaches it.  The
# references the tests compare against live in tests/oracles.py instead.
TEST_REFERENCES = {}

# (module, class, method or property): why it stays although no src/ code
# reads it in the traced runs.
METHOD_TEST_REFERENCES = {}

# (module, class, field): why a record field stays although no src/ code
# reads it in the traced runs.
FIELD_TEST_REFERENCES = {
    ("hum", "HumResult", "true_residual"):
        "the accuracy guard: the tests hold each solve's recomputed residual ||b - (Lambda + eps) psi0|| "
        "/ ||b|| to cg_tol, where cg_residuals holds the recurrence's own estimates",
    ("hum", "CoupledAdjointState", "iterations"):
        "the sweeps of each coupled-adjoint solve: perfbench/tracing.py reads it for hum.coupled_adjoint.sweeps",
}

# (module, class, attribute): why an attribute a src/ error sets stays although
# cli._error_details does not write it to error.json.
ERROR_ATTRIBUTE_REFERENCES = {
    ("errors", "MaxIterations", "best"):
        "library API: every failure carries its best iterate (the ROADMAP's robustness aim), which a caller "
        "of linalg.iterate or conjugate_gradient can restart from; an array does not belong in error.json",
    ("errors", "MaxIterations", "history"):
        "library API: the changes or residuals the loop recorded up to the failure, beside its best iterate",
    ("errors", "ParseError", "offset"):
        "library API of expressions.parse_expr; a config's parse error is a validation ConfigError, which "
        "writes no error.json and whose message carries the offset ('at offset N')",
    ("errors", "ParseError", "expected"):
        "library API of expressions.parse_expr: the tokens expected at the offset, for a caller that "
        "suggests a fix",
}

# The shipped runs (tools/shipped_runs.sh), as (subcommand, config stem).
SHIPPED_RUNS = (("nash", "nash_1d"), ("nash", "nash_2d"), ("null-control", "null_control_1d"),
                ("trajectory", "trajectory_1d"), ("semilinear", "semilinear_1d"),
                ("second-order", "second_order_1d"), ("observability", "observability_1d"),
                ("observability", "observability_distinct_1d"), ("carleman", "carleman_1d"),
                ("oracle", "nash_1d"), ("oracle", "nash_2d"))


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
    src_refs = _referenced(path for path in SRC.glob("*.py") if path.name != "__init__.py")
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


def _classes():
    return [cls for module in MODULES for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__]


def _fields(cls):
    """The fields of a dataclass or a NamedTuple; none for other classes."""
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls)]
    return list(cls._fields) if issubclass(cls, tuple) else []


def _methods(cls):
    """The public methods and properties a class defines itself."""
    return [name for name, member in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(member) or isinstance(member, (property, cached_property)))]


def _traced_reads(tmp_path, monkeypatch):
    """(class, name) of every attribute read that src/ code makes on an
    instance of a src/ class while the shipped runs, and the grad-tanh
    semilinear run that marches on band LU factors, run in-process."""
    sources = {module.__file__ for module in MODULES}
    reads = set()

    def traced(original):
        def __getattribute__(self, name):
            if sys._getframe(1).f_code.co_filename in sources:
                reads.add((type(self), name))
            return original(self, name)
        return __getattribute__

    originals = {cls: cls.__getattribute__ for cls in _classes()}  # all taken before any is wrapped
    for cls, original in originals.items():
        monkeypatch.setattr(cls, "__getattribute__", traced(original))
    grad_tanh = tmp_path / "grad_tanh.ini"
    grad_tanh.write_text(_with_keys("semilinear_1d.ini", [("nonlinearity", "preset", "grad-tanh"),
                                                          ("nonlinearity", "c2", "0.3")]))
    runs = [(sub, CONFIGS / f"{stem}.ini") for sub, stem in SHIPPED_RUNS] + [("semilinear", grad_tanh)]
    for k, (subcommand, config) in enumerate(runs):
        assert run(subcommand, config, tmp_path / f"out{k}") == 0, (subcommand, config.name)
    return reads


def _unread(reads):
    """(module, class, member, kind) of every field, public method and
    property that no traced read reaches, on its class or a subclass."""
    readers = {}
    for cls, name in reads:
        readers.setdefault(name, set()).add(cls)
    return {(cls.__module__.rsplit(".", 1)[-1], cls.__name__, name, kind)
            for cls in _classes()
            for kind, names in (("field", _fields(cls)), ("method", _methods(cls)))
            for name in names
            if not any(issubclass(reader, cls) for reader in readers.get(name, ()))}


def test_every_record_field_and_public_method_is_read_in_src_or_a_named_test_reference(tmp_path, monkeypatch):
    unread = _unread(_traced_reads(tmp_path, monkeypatch))
    fields = {member[:3] for member in unread if member[3] == "field"}
    methods = {member[:3] for member in unread if member[3] == "method"}
    # delete these, or name them in FIELD_ or METHOD_TEST_REFERENCES with the reason they stay
    assert sorted(fields - FIELD_TEST_REFERENCES.keys()) == []
    assert sorted(methods - METHOD_TEST_REFERENCES.keys()) == []
    # stale entries: src/ reads these now, or they are gone
    assert sorted(FIELD_TEST_REFERENCES.keys() - fields) == []
    assert sorted(METHOD_TEST_REFERENCES.keys() - methods) == []


def _read_attributes(paths):
    return {node.attr
            for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _error_attributes():
    """(module, class, attribute) of every attribute a HierctrlError
    subclass in src/ sets on itself."""
    return {(cls.__module__.rsplit(".", 1)[-1], cls.__name__, node.attr)
            for cls in _classes() if issubclass(cls, HierctrlError)
            for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(cls))))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def _written_to_error_json():
    """The attributes cli._error_details reads from the error, as exc.name
    or getattr(exc, "name", ...)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(_error_details)))
    return ({node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "exc"}
            | {node.args[1].value for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
               and getattr(node.args[0], "id", None) == "exc" and isinstance(node.args[1], ast.Constant)})


def test_every_error_attribute_is_written_to_error_json_or_a_named_reference():
    attributes = _error_attributes()
    assert {"ratio", "best", "offset"} <= {name for *_, name in attributes}  # the scan sees them
    unwritten = {key for key in attributes if key[2] not in _written_to_error_json()}
    # write these in cli._error_details, or name them in ERROR_ATTRIBUTE_REFERENCES with the reason they stay
    assert sorted(unwritten - ERROR_ATTRIBUTE_REFERENCES.keys()) == []
    # stale entries: error.json carries these now, or they are gone
    assert sorted(ERROR_ATTRIBUTE_REFERENCES.keys() - unwritten) == []


def test_named_member_references_are_read_by_tests():
    read = _read_attributes([*(ROOT / "tests").glob("*.py")])
    named = FIELD_TEST_REFERENCES.keys() | METHOD_TEST_REFERENCES.keys() | ERROR_ATTRIBUTE_REFERENCES.keys()
    assert sorted(name for *_, name in named if name not in read) == []


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

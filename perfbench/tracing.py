"""Span tracer installed from outside the program.

`Patch` replaces the public functions of each traced layer, in every
hierctrl module that binds them (including names imported into other
modules, such as `hum.solve_nash_fixed_point` or `cli.minimize_G`), and the
traced methods on their classes.  Each call records one span: layer name,
start, end, parent span and job id.  Spans live in flat arrays in memory
and are written out once, when the run ends.

`job_metrics` turns the spans of each job into its per-layer metrics:
calls, work counts, inclusive time and self time (duration minus the time
its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("linalg", "operators", "nash", "hum", "semilinear", "carleman", "config", "cli")


def _rhs_columns(args, kwargs):
    rhs = kwargs["rhs"] if "rhs" in kwargs else args[1]
    return rhs.shape[1] if np.ndim(rhs) == 2 else 1


def _written_bytes(args, kwargs):
    # write_manifest(out, ...) names a directory; the other writers a file
    target = Path(args[0])
    return (target / "manifest.json" if target.is_dir() else target).stat().st_size


# (module, attribute path, span name, work counter, how to read the count)
TARGETS = (
    ("linalg", "factorize", "linalg.factorize", None, None),
    ("linalg", "Factorization.solve", "linalg.solve", "linalg.solve.cols",
     lambda args, kwargs, result: _rhs_columns(args, kwargs)),
    ("linalg", "conjugate_gradient", "linalg.cg", "linalg.cg.iters",
     lambda args, kwargs, result: result.iterations),
    ("operators", "TimeStepper.__init__", "operators.stepper", None, None),
    ("operators", "TimeStepper.march_forward", "operators.march", None, None),
    ("operators", "TimeStepper.march_backward", "operators.march", None, None),
    ("nash", "solve_nash_fixed_point", "nash.fixed_point", "nash.fixed_point.sweeps",
     lambda args, kwargs, result: result.iterations),
    ("nash", "verify_first_order", "nash.verify", None, None),
    ("hum", "grad_G", "hum.grad", None, None),
    ("hum", "solve_coupled_adjoint", "hum.coupled_adjoint", "hum.coupled_adjoint.sweeps",
     lambda args, kwargs, result: result.iterations),
    ("hum", "minimize_G", "hum.minimize", None, None),
    ("semilinear", "semilinear_null_control", "semilinear.outer", "semilinear.outer.iters",
     lambda args, kwargs, result: result.outer_iterations),
    ("semilinear", "solve_free_trajectory", "semilinear.free_trajectory", None, None),
    ("carleman", "build_carleman_weights", "carleman.weights", None, None),
    ("config", "load_config", "config.load", None, None),
    ("config", "validate_for", "config.load", None, None),
    ("config", "build_problem_spec", "config.load", None, None),
    ("cli", "write_csv", "cli.write", "cli.write.bytes",
     lambda args, kwargs, result: _written_bytes(args, kwargs)),
    ("cli", "dump_field", "cli.write", "cli.write.bytes",
     lambda args, kwargs, result: _written_bytes(args, kwargs)),
    ("cli", "write_summary", "cli.write", "cli.write.bytes",
     lambda args, kwargs, result: _written_bytes(args, kwargs)),
    ("cli", "write_manifest", "cli.write", "cli.write.bytes",
     lambda args, kwargs, result: _written_bytes(args, kwargs)),
)

JOB_SPAN = "cli.run"


class Tracer:
    """Span store for one process.  Not thread-safe: jobs run one at a time."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.job_id = -1
        self.counts = defaultdict(lambda: defaultdict(int))  # job -> counter -> total

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span, counter=None, count=None):
        nid = self.name_id(span)
        stack, start, end = self._stack, self.start, self.end
        add_name, add_parent, add_job = self.name.append, self.parent.append, self.job.append
        add_start, add_end = start.append, end.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_job(self.job_id)
            add_start(0.0)
            add_end(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                self.counts[self.job_id][counter] += count(args, kwargs, result)
            return result

        return traced

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        """Write every span (and the layer-name table) as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


class Patch:
    """Every module binding and class attribute of the traced functions.

    `apply` swaps the tracing wrappers in and `revert` swaps the originals
    back, so one process can alternate untraced and traced jobs.
    """

    def __init__(self, tracer: Tracer):
        modules = {m: importlib.import_module(f"hierctrl.{m}") for m in MODULES}
        bindings = [mod for key, mod in sys.modules.items()
                    if key == "hierctrl" or key.startswith("hierctrl.")]
        self.swaps = []  # (owner, attribute, original, wrapper)
        for module, attr, span, counter, count in TARGETS:
            owner = modules[module]
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, leaf)
            wrapper = tracer.wrap(original, span, counter, count)
            if cls_path:
                self.swaps.append((owner, leaf, original, wrapper))
                continue
            for mod in bindings:
                for key, value in vars(mod).items():
                    if value is original:
                        self.swaps.append((mod, key, original, wrapper))

    def apply(self):
        for owner, key, _, wrapper in self.swaps:
            setattr(owner, key, wrapper)

    def revert(self):
        for owner, key, original, _ in self.swaps:
            setattr(owner, key, original)


def job_metrics(tracer: Tracer):
    """Per-layer metrics of every traced job, keyed by job id."""
    spans = tracer.arrays()
    names = spans["name"]
    parents = spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parents >= 0
    child_cover = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_cover
    ids = tracer._ids

    # a march belongs to a gradient if a hum.grad span is among its ancestors
    in_grad = names == ids.get("hum.grad", -1)
    while True:
        inherited = in_grad | (has_parent & in_grad[np.maximum(parents, 0)])
        if np.array_equal(inherited, in_grad):
            break
        in_grad = inherited
    grad_march = in_grad & (names == ids.get("operators.march", -1))

    out = {}
    for job_id in np.unique(spans["job"]):
        if job_id < 0:
            continue
        sel = spans["job"] == job_id
        name = names[sel]

        def calls(label):
            return int(np.count_nonzero(name == ids.get(label, -1)))

        def total(values, label):
            return float(values[sel][name == ids.get(label, -1)].sum())

        grad_calls = calls("hum.grad")
        counts = tracer.counts[int(job_id)]
        out[int(job_id)] = {
            "linalg.solve.calls": calls("linalg.solve"),
            "linalg.solve.cols": counts["linalg.solve.cols"],
            "linalg.solve.self_s": total(self_time, "linalg.solve"),
            "linalg.factorize.calls": calls("linalg.factorize"),
            "linalg.factorize.self_s": total(self_time, "linalg.factorize"),
            "linalg.cg.iters": counts["linalg.cg.iters"],
            "operators.march.calls": calls("operators.march"),
            "operators.march.self_s": total(self_time, "operators.march"),
            "operators.stepper.builds": calls("operators.stepper"),
            "operators.stepper.self_s": total(self_time, "operators.stepper"),
            "nash.fixed_point.calls": calls("nash.fixed_point"),
            "nash.fixed_point.sweeps": counts["nash.fixed_point.sweeps"],
            "nash.fixed_point.self_s": total(self_time, "nash.fixed_point"),
            "nash.verify.calls": calls("nash.verify"),
            "nash.verify.s": total(dur, "nash.verify"),
            "hum.grad.calls": grad_calls,
            "hum.coupled_adjoint.calls": calls("hum.coupled_adjoint"),
            "hum.coupled_adjoint.sweeps": counts["hum.coupled_adjoint.sweeps"],
            "hum.coupled_adjoint.self_s": total(self_time, "hum.coupled_adjoint"),
            "hum.minimize.calls": calls("hum.minimize"),
            "hum.minimize.s": total(dur, "hum.minimize"),
            "hum.marches_per_grad": (int(np.count_nonzero(grad_march[sel])) / grad_calls
                                     if grad_calls else 0.0),
            "semilinear.outer.iters": counts["semilinear.outer.iters"],
            "semilinear.free_trajectory.s": total(dur, "semilinear.free_trajectory"),
            "carleman.weights.s": total(dur, "carleman.weights"),
            "config.load.s": total(dur, "config.load"),
            "cli.write.s": total(dur, "cli.write"),
            "cli.write.bytes": counts["cli.write.bytes"],
            "trace.spans": int(np.count_nonzero(sel)),
        }
    return out

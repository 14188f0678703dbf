"""Output checks for one job.  A job passes only if every check holds.

The checks read the job's artifacts and its INI file with plain numpy, not
through hierctrl, so a change to the program cannot change what is checked.
"""

from __future__ import annotations

import configparser
import csv
import math
from pathlib import Path

import numpy as np

REFERENCE_RTOL = 1e-6


def _read_ini(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    parser.read(path)
    return parser


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _read_summary(path):
    items = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" = ")
        items[key] = value
    return items


def _read_field_1d(path):
    """A 1D field dump as an (nt+1, nx) array; its '# nx ny nt' header is a comment."""
    return np.loadtxt(path, comments="#", ndmin=2)


def z_norm(values, h, dt):
    """Discrete L2(Q) norm of (z, grad z) over interior nodes and levels 1..nt (1D).

    Mirrors the program's outer-loop change norm: centred gradient, boundary
    nodes excluded, right-endpoint rule in time.
    """
    grad = np.zeros_like(values)
    grad[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * h)
    total = 0.0
    for arr in (values, grad):
        inner = arr[1:, 1:-1]
        total += dt * h * float(np.sum(inner * inner))
    return math.sqrt(total)


def key_values(subcommand, out):
    """The values compared with the recorded reference: terminal norms or mismatch."""
    if subcommand == "null-control":
        return [float(row["terminal_norm"]) for row in _read_csv(Path(out, "sweep.csv"))]
    return [float(_read_summary(Path(out, "summary.txt"))["terminal_mismatch"])]


def check_job(subcommand, ini, out, code, reference=None):
    """Return None when the job passed, else the reason it failed."""
    out = Path(out)
    if code != 0:
        return f"exit code {code}"
    if (out / "error.json").exists():
        return "error.json written"
    config = _read_ini(ini)
    if subcommand == "null-control":
        eps = [float(v) for v in config["weights"]["eps_list"].split(",")]
        norms = key_values(subcommand, out)
        if len(norms) != len(eps):
            return f"sweep.csv has {len(norms)} rows for {len(eps)} eps"
        if not all(math.isfinite(v) for v in norms):
            return "non-finite terminal norm"
        if any(a <= b for a, b in zip(norms, norms[1:])):
            return "terminal norms not strictly decreasing"
    elif subcommand == "semilinear":
        history = _read_csv(out / "outer_history.csv")
        last = float(history[-1]["change_norm"])
        outer_tol = float(config["solver"]["outer_tol"])
        length = float(config["grid"]["lengths"])
        T = float(config["grid"]["T"])
        w = _read_field_1d(out / "u.field.txt") - _read_field_1d(out / "ubar.field.txt")
        nx, nt = w.shape[1], w.shape[0] - 1
        scale = z_norm(w, length / (nx - 1), T / nt)
        # 1e-9 relative slack for the rounding of w = u - ubar read back from the dumps
        if not last <= outer_tol * scale * (1.0 + 1e-9):
            return f"last outer change {last:.3e} above outer_tol * scale {outer_tol * scale:.3e}"
        if not math.isfinite(key_values(subcommand, out)[0]):
            return "non-finite terminal_mismatch"
    else:
        raise ValueError(f"no output check for {subcommand!r}")
    if reference is not None:
        got = key_values(subcommand, out)
        if len(got) != len(reference):
            return f"{len(got)} key values against {len(reference)} recorded"
        for g, r in zip(got, reference):
            if not abs(g - r) <= REFERENCE_RTOL * abs(r):
                return f"key value {g!r} differs from recorded {r!r} by more than {REFERENCE_RTOL:g}"
    return None


def neutral_outputs(out):
    """The artifacts tracing must leave byte-identical: CSV bodies and summary.txt."""
    out = Path(out)
    files = sorted(out.glob("*.csv")) + [out / "summary.txt"]
    return {p.name: p.read_bytes() for p in files}

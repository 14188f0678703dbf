#!/usr/bin/env bash
# Robustness matrix: every subcommand on its shipped 1D config under 34 perturbations.
# Usage: tools/robustness_scan.sh [REF]
# Runs the 8 subcommands (nash and oracle on nash_1d.ini, every other one on
# its own *_1d.ini) under each perturbation below, 272 runs, in-process
# through hierctrl.cli.run on this working tree's src/ and, given git
# revision REF, also on REF's (exported with `git archive` into a temporary
# directory).  A perturbation edits a few keys of the config: grid extremes,
# T, lengths, alpha, mu, eps, lambda and s, reaction and transport size, data
# scale, nonlinearity, solver caps and geometry; a subcommand that does not
# read a key runs as shipped.  Prints one line per (subcommand, perturbation):
# its outcome on REF (when given) and on the tree, as the exit code and, for a
# failure, the error type: `0`, `1 ContractionFailure`, `2 ConfigError`, ...
# Marks `UNTYPED <type>` for an exception that is not a HierctrlError, and
# `0 NONFINITE <file>` for a run that exited 0 with nan or inf among the
# numbers of an output file.
# Exits non-zero only when a run of the working tree has one of those two
# outcomes; other outcomes, and REF's, are printed, not gated.  Overflow and
# invalid-value warnings are not errors here (CI's shipped runs make them so).
# Known wrong outcomes on well-posed linear problems, left to ROADMAP item 21:
# - u0 x 1e-300: null-control exits 0 with a zero answer (f = 0, 0 CG
#   iterations), as the square of ||b|| underflows; its drop_factor is then
#   inf, so the run reads `0 NONFINITE summary.txt`.
# - u0 x 1e200: nash, oracle, null-control, trajectory, semilinear and
#   second-order exit 1 with ContractionFailure, as the L2 norms of the Nash
#   sweep overflow.
# Known non-finite outputs by design, which the rule above marks too: the
# drop_factor of a null-control run whose terminal norm is 0 (u0 = 0) is
# inf, and carleman writes ratio_max and ratio_median as nan when every ratio
# sample under- or overflows (lambda = 50, s = 1e4, and lengths = 5.5 on its
# unit domain; its summary says so).  With these the scan exits non-zero
# today; CI prints it, not gated.
# The temporary directory is removed either way.
set -euo pipefail
ref="${1:-}"
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
trees=("$root")
names=("tree")
if [[ -n "$ref" ]]; then
  mkdir "$tmp/ref"
  git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"
  trees=("$tmp/ref" "$root")
  names=("$ref" "tree")
fi

status=0
for i in "${!trees[@]}"; do
  code=0
  PYTHONPATH="${trees[$i]}/src" python - "$root/configs" "$tmp/runs-$i" > "$tmp/outcomes-$i" <<'EOF' || code=$?
import configparser
import contextlib
import io
import json
import re
import sys
import warnings
from pathlib import Path

from hierctrl.cli import run
from hierctrl.errors import HierctrlError

configs, work = Path(sys.argv[1]), Path(sys.argv[2])
CONFIG = {"nash": "nash_1d", "null-control": "null_control_1d", "trajectory": "trajectory_1d",
          "semilinear": "semilinear_1d", "second-order": "second_order_1d", "observability": "observability_1d",
          "carleman": "carleman_1d", "oracle": "nash_1d"}
NON_FINITE = re.compile(r"(?<![A-Za-z_])[-+]?(?:nan|inf|infinity)(?![A-Za-z_])", re.IGNORECASE)


def keys(*edits):
    """Set each (section, key, value)."""
    return list(edits)


def both(section, key, value):
    """Set key1 and key2 of a section to one value."""
    return [(section, f"{key}1", value), (section, f"{key}2", value)]


def scaled(key, factor):
    """Multiply the data expression key by factor, where the config has it."""
    return [("data", key, lambda text: f'"{factor}*({text.strip(chr(34))})"')]


PERTURBATIONS = {
    "nx=6": keys(("grid", "nx", "6")),
    "nx=96": keys(("grid", "nx", "96")),
    "nt=4": keys(("grid", "nt", "4")),
    "nt=160": keys(("grid", "nt", "160")),
    "T=1e-3": keys(("grid", "T", "1e-3")),
    "T=100": keys(("grid", "T", "100")),
    "lengths=5.5": keys(("grid", "lengths", "5.5")),
    "lengths=60": keys(("grid", "lengths", "60.0")),
    "alpha=0": both("weights", "alpha", "0"),
    "alpha=10": both("weights", "alpha", "10"),
    "alpha=1e6": both("weights", "alpha", "1e6"),
    "mu=1e-12": both("weights", "mu", "1e-12"),
    "mu=1e6": both("weights", "mu", "1e6"),
    "eps=1e-14": keys(("weights", "eps_list", "1e-14")),
    "eps=1e3": keys(("weights", "eps_list", "1e3")),
    "lambda=1e-6": keys(("weights", "lambda", "1e-6")),
    "lambda=50": keys(("weights", "lambda", "50")),
    "s=1e4": keys(("weights", "s", "1e4")),
    "a=100": keys(("coefficients", "a", '"100"')),
    "a=-100": keys(("coefficients", "a", '"-100"')),
    "a=1e3*sin(6t)": keys(("coefficients", "a", '"1e3*sin(6*t)"')),
    "b1=50": keys(("coefficients", "b1", '"50"')),
    "u0*1e-300": scaled("u0", "1e-300"),
    "u0*1e200": scaled("u0", "1e200"),
    "u0=0": keys(("data", "u0", '"0"')),
    "zeta*1e6": scaled("zeta1", "1e6") + scaled("zeta2", "1e6"),
    "c=8": keys(("nonlinearity", "c", "8")),
    "grad-tanh": keys(("nonlinearity", "preset", "grad-tanh"), ("nonlinearity", "c2", "0.3")),
    "cg_max_iter=1": keys(("solver", "cg_max_iter", "1")),
    "nash_max_iter=1": keys(("solver", "nash_max_iter", "1")),
    "max_outer=1": keys(("solver", "max_outer", "1")),
    "tol=1e-16": keys(("solver", "nash_tol", "1e-16"), ("solver", "cg_tol", "1e-16"), ("solver", "coupled_tol", "1e-16")),
    "leader=one-node": keys(("geometry", "leader", "2.9, 3.3")),
    "targets-off-leader": keys(("geometry", "target1", "0.1, 0.5"), ("geometry", "target2", "0.1, 0.5")),
}
assert len(PERTURBATIONS) == 34


def config_text(stem, edits):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    parser.read(configs / f"{stem}.ini")
    for section, key, value in edits:
        if callable(value):
            if not parser.has_option(section, key):
                continue
            value = value(parser[section][key])
        elif stem == "carleman_1d" and section not in ("grid", "weights", "solver"):
            continue  # the carleman config has none of the problem's sections
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


def non_finite(out):
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json" and NON_FINITE.search(path.read_text()):
            return path.name
    return None


bad = 0
warnings.simplefilter("ignore")
for k, (name, edits) in enumerate(PERTURBATIONS.items()):
    for subcommand, stem in CONFIG.items():
        case = work / f"{k}-{subcommand}"
        case.mkdir(parents=True)
        (case / "config.ini").write_text(config_text(stem, edits))
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = run(subcommand, case / "config.ini", case / "out")
        except HierctrlError as exc:  # run catches these itself
            outcome = f"RAISED {type(exc).__name__}"
        except Exception as exc:
            outcome, bad = f"UNTYPED {type(exc).__name__}: {str(exc)[:80]}", bad + 1
        else:
            outcome = str(code)
            if code == 0:
                if (where := non_finite(case / "out")) is not None:
                    outcome, bad = f"0 NONFINITE {where}", bad + 1
            else:
                lines = stderr.getvalue().strip().splitlines()
                outcome += f" {json.loads(lines[-1])['error']}" if lines else " ?"
        print(f"{subcommand}\t{name}\t{outcome}", flush=True)
sys.exit(1 if bad else 0)
EOF
  if [[ "${names[$i]}" == tree ]]; then
    status=$code
  fi
done

python - "$tmp" "${names[@]}" <<'EOF'
import sys
from pathlib import Path

tmp, names = Path(sys.argv[1]), sys.argv[2:]
tables = [[line.split("\t") for line in (tmp / f"outcomes-{i}").read_text().splitlines()] for i in range(len(names))]
print(f"{'subcommand':<14} {'perturbation':<20} " + " ".join(f"{name:<28}" for name in names))
for rows in zip(*tables):
    print(f"{rows[0][0]:<14} {rows[0][1]:<20} " + " ".join(f"{row[2]:<28}" for row in rows))
EOF
exit "$status"

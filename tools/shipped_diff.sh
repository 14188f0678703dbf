#!/usr/bin/env bash
# Compare the shipped runs of this working tree with those of git revision REF.
# Usage: tools/shipped_diff.sh REF [RTOL]
# Exports REF into a temporary directory with `git archive` and runs tools/shipped_runs.sh
# from each tree, through a `hierctrl` shim that runs `python -m hierctrl.cli`
# on that tree's src/, with overflow warnings turned into errors as in CI.
# Without RTOL it prints `diff -r` of the two output trees and exits non-zero
# on any difference or failed run.  With RTOL it prints how many runs are
# byte-identical and, for every file that differs, the largest relative move
# of its numeric tokens; it exits 0 when no run failed, both trees hold the
# same files, every differing file keeps its text between the numbers, and no
# number moved by more than RTOL relative.  A move is measured relative to the
# largest magnitude, in REF's output, of the quantity the number belongs to:
# its column in a CSV, the whole dump past its header line in a *.field.txt,
# and the number itself anywhere else (summary.txt, manifest.json), so a
# rounding-level move of a tiny residual reads as what it is.  The temporary
# directory is removed either way.
set -euo pipefail
usage="usage: tools/shipped_diff.sh REF [RTOL]"
ref="${1:?$usage}"
rtol="${2:-}"
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"

run_tree() {  # run_tree TREE NAME: the shipped runs of TREE into $tmp/out-NAME
  local tree="$1" bin="$tmp/bin-$2"
  mkdir -p "$bin"
  printf '#!/bin/sh\nPYTHONPATH="%s/src" exec python -m hierctrl.cli "$@"\n' "$tree" > "$bin/hierctrl"
  chmod +x "$bin/hierctrl"
  (cd "$tree" && PATH="$bin:$PATH" PYTHONWARNINGS=error::RuntimeWarning tools/shipped_runs.sh "$tmp/out-$2")
}
run_tree "$tmp/ref" ref
run_tree "$root" tree
if [[ -z "$rtol" ]]; then
  diff -r "$tmp/out-ref" "$tmp/out-tree"
  echo "shipped runs identical to $ref"
  exit 0
fi

python - "$tmp/out-ref" "$tmp/out-tree" "$rtol" <<'EOF'
import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")
ref, tree, rtol = Path(sys.argv[1]), Path(sys.argv[2]), float(sys.argv[3])


def files(out):
    return sorted(str(path.relative_to(out)) for path in out.rglob("*") if path.is_file())


def quantities(name, text):
    """The quantity of each numeric token of the file, in order: its column
    in a CSV, the whole dump past the header line in a *.field.txt, and the
    token alone anywhere else."""
    keys = []
    for row, line in enumerate(text.splitlines()):
        for column, cell in enumerate(line.split(",") if name.endswith(".csv") else [line]):
            for _ in NUMBER.findall(cell):
                if name.endswith(".csv"):
                    keys.append(("column", column))
                elif name.endswith(".field.txt") and row > 0:
                    keys.append(("field",))
                else:
                    keys.append(("token", len(keys)))
    return keys


def move(name, before, after):
    """The largest move of a numeric token relative to its quantity's scale,
    the largest finite magnitude of that quantity in before, or None when
    the text between the numbers, or their count, differs."""
    texts = [NUMBER.split(before), NUMBER.split(after)]
    numbers = [NUMBER.findall(before), NUMBER.findall(after)]
    if texts[0] != texts[1] or len(numbers[0]) != len(numbers[1]):
        return None
    keys = quantities(name, before)
    refs, trees = ([float(x) for x in tokens] for tokens in numbers)
    scale = {}
    for key, r in zip(keys, refs):
        scale[key] = max(scale.get(key, 0.0), abs(r) if math.isfinite(r) else 0.0)
    largest = 0.0
    for key, r, t in zip(keys, refs, trees):
        if r != t and not (math.isnan(r) and math.isnan(t)):
            largest = max(largest, abs(t - r) / scale[key] if scale[key] else math.inf)
    return largest


ok = files(ref) == files(tree)
if not ok:
    print(f"the trees hold different files: {sorted(set(files(ref)) ^ set(files(tree)))}")
runs = sorted(path.name for path in ref.iterdir())
same = [run for run in runs if files(ref / run) == files(tree / run) and all(
    (ref / run / name).read_bytes() == (tree / run / name).read_bytes() for name in files(ref / run))]
print(f"{len(same)} of {len(runs)} shipped runs byte-identical")
for name in sorted(set(files(ref)) & set(files(tree))):
    before, after = (ref / name).read_text(), (tree / name).read_text()
    if before == after:
        continue
    largest = move(name, before, after)
    if largest is None:
        print(f"{name}: text between the numbers differs")
        ok = False
    else:
        print(f"{name}: largest relative move {largest:.3g}")
        ok = ok and largest <= rtol
print(f"shipped runs {'within' if ok else 'not within'} {rtol:.3g} of the reference")
sys.exit(0 if ok else 1)
EOF

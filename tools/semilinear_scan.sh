#!/usr/bin/env bash
# Run the shipped semilinear config across nonlinearity strengths.
# Usage: tools/semilinear_scan.sh [REF]
# Runs configs/semilinear_1d.ini with only its `c` changed, at 0.5 (the
# shipped value), 3, 4 and 5, and once with the grad-tanh preset
# F = c tanh(u) + c2 tanh(du/dx) at c = 0.5, c2 = 0.3, whose frozen step
# families have transport and march on band LU factors.  Each run goes through
# `python -m hierctrl.cli` on this working tree's src/ and, given git revision
# REF, also on REF's (exported with `git archive` into a temporary directory).
# Prints one line per run: the tree, the preset, c, the exit code, and the
# outer iterations, CG iterations and terminal_mismatch of its summary.txt
# ("-" where a failed run wrote none).
# Prints and gates nothing else: the exit code is 0 whatever the runs return.
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

grep -qx "c = 0.5" "$root/configs/semilinear_1d.ini" || { echo "no 'c = 0.5' line in configs/semilinear_1d.ini" >&2; exit 1; }
grep -qx "preset = tanh" "$root/configs/semilinear_1d.ini" || { echo "no 'preset = tanh' line in configs/semilinear_1d.ini" >&2; exit 1; }
printf '%-12s %-9s %-4s %-5s %-6s %-4s %s\n' tree preset c exit outer cg terminal_mismatch
for i in "${!trees[@]}"; do
  for run in tanh:0.5 tanh:3 tanh:4 tanh:5 grad-tanh:0.5; do
    preset="${run%%:*}"
    c="${run#*:}"
    config="$tmp/$preset-c$c.ini"
    sed -e "s/^c = 0\.5\$/c = $c/" "$root/configs/semilinear_1d.ini" > "$config"
    if [[ "$preset" == grad-tanh ]]; then
      sed -i -e "s/^preset = tanh\$/preset = grad-tanh/" -e "\$a c2 = 0.3" "$config"
    fi
    out="$tmp/out-$i-$preset-$c"
    code=0
    PYTHONPATH="${trees[$i]}/src" python -m hierctrl.cli semilinear --config "$config" --out "$out" \
      > "$tmp/log" 2>&1 || code=$?
    python - "$out/summary.txt" "${names[$i]}" "$preset" "$c" "$code" <<'EOF'
import sys
from pathlib import Path

path, tree, preset, c, code = sys.argv[1:]
summary = {}
if Path(path).is_file():
    summary = dict(line.split(" = ", 1) for line in Path(path).read_text().splitlines())
print(f"{tree:<12} {preset:<9} {c:<4} {code:<5} " + " ".join(
    f"{summary.get(key, '-'):<{width}}" for key, width in
    (("outer_iterations", 6), ("cg_iterations", 4), ("terminal_mismatch", 0))))
EOF
  done
done

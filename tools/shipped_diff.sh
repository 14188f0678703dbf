#!/usr/bin/env bash
# Compare the shipped runs of this working tree with those of git revision REF.
# Usage: tools/shipped_diff.sh REF
# Exports REF into a temporary directory with `git archive` and runs tools/shipped_runs.sh
# from each tree, through a `hierctrl` shim that runs `python -m hierctrl.cli`
# on that tree's src/, with overflow warnings turned into errors as in CI.
# Prints `diff -r` of the two output trees and exits non-zero on any
# difference or failed run; the temporary directory is removed either way.
set -euo pipefail
ref="${1:?usage: tools/shipped_diff.sh REF}"
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
diff -r "$tmp/out-ref" "$tmp/out-tree"
echo "shipped runs identical to $ref"

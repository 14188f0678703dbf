#!/usr/bin/env bash
# Count the lines of src/hierctrl/*.py that hold code, and those of the test
# oracles, tests/oracles.py, where code that only tests call lives.
# Usage: tools/code_lines.sh [REF]
# A line holds code when a token other than a comment, a newline or an
# indentation change touches it (tokenize) and it is not part of a module,
# class or function docstring (ast), so blank lines, comments and docstrings
# are left out; `wc -l` counts all three.  Prints the count of every module and
# the total for the working tree, then tests/oracles.py under the total, apart
# from it, so code moved from src/ to the oracles shows up on the second line
# rather than reading as a reduction.  Given git revision REF, also exports REF
# into a temporary directory with `git archive` and prints REF's counts and
# the change (tree - REF) per module and in total; the temporary directory is
# removed either way.
set -euo pipefail
ref="${1:-}"
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
trees=("$root")
if [[ -n "$ref" ]]; then
  mkdir "$tmp/ref"
  git -C "$root" archive "$ref" src/hierctrl tests/oracles.py | tar -x -C "$tmp/ref"
  trees+=("$tmp/ref")
fi

python - "$ref" "${trees[@]}" <<'EOF'
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source):
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def counts(tree):
    return {path.name: code_lines(path.read_text())
            for path in sorted((Path(tree) / "src" / "hierctrl").glob("*.py"))}


def oracle_lines(tree):
    path = Path(tree) / "tests" / "oracles.py"
    return code_lines(path.read_text()) if path.exists() else 0


ref, trees = sys.argv[1], sys.argv[2:]
tree = counts(trees[0])
if not ref:
    for name, count in tree.items():
        print(f"{name:24s} {count:6d}")
    print(f"{'total':24s} {sum(tree.values()):6d}")
    print(f"{'tests/oracles.py':24s} {oracle_lines(trees[0]):6d}")
    sys.exit(0)
old = counts(trees[1])
print(f"{'module':24s} {'tree':>6s} {ref[:12]:>12s} {'change':>7s}")
for name in sorted(tree.keys() | old.keys()):
    new_count, old_count = tree.get(name, 0), old.get(name, 0)
    print(f"{name:24s} {new_count:6d} {old_count:12d} {new_count - old_count:+7d}")
total, old_total = sum(tree.values()), sum(old.values())
print(f"{'total':24s} {total:6d} {old_total:12d} {total - old_total:+7d}")
oracles, old_oracles = oracle_lines(trees[0]), oracle_lines(trees[1])
print(f"{'tests/oracles.py':24s} {oracles:6d} {old_oracles:12d} {oracles - old_oracles:+7d}")
EOF

#!/usr/bin/env bash
# Compare the benchmark reference jobs of this working tree with those of git revision REF.
# Usage: tools/reference_diff.sh REF
# Writes the seed-1 jobs of every perfbench workload once, with
# perfbench/workloads.write_jobs (as many per workload as perfbench/reference.json
# records), checks REF out into a temporary git worktree, and runs every job
# in-process through hierctrl.cli.run with each tree's src/.  Prints `diff -r`
# of the two output trees and exits non-zero on any difference or failed job;
# the worktree is removed either way.
set -euo pipefail
ref="${1:?usage: tools/reference_diff.sh REF}"
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
cleanup() {
  git -C "$root" worktree remove --force "$tmp/ref" 2>/dev/null || true
  git -C "$root" worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --detach --quiet "$tmp/ref" "$ref"

PYTHONPATH="$root/perfbench" python - "$root" "$tmp/jobs" <<'EOF'
import json
import sys
from pathlib import Path

from workloads import WORKLOADS, write_jobs

root, jobs = Path(sys.argv[1]), Path(sys.argv[2])
reference = json.loads((root / "perfbench" / "reference.json").read_text())
for name, workload in WORKLOADS.items():
    write_jobs(workload, reference["seed"], len(reference[name]), root, jobs / name)
EOF

run_tree() {  # run_tree TREE NAME: every job through TREE's hierctrl into $tmp/out-NAME
  PYTHONPATH="$1/src:$root/perfbench" python - "$1" "$tmp/jobs" "$tmp/out-$2" <<'EOF'
import sys
from pathlib import Path

import hierctrl
from hierctrl.cli import run
from workloads import WORKLOADS

tree, jobs, out = (Path(arg).resolve() for arg in sys.argv[1:])
if tree not in Path(hierctrl.__file__).resolve().parents:
    sys.exit(f"hierctrl imported from {hierctrl.__file__}, not from {tree}")
failed = 0
for name, workload in WORKLOADS.items():
    for job in sorted((jobs / name).glob("job-*.ini")):
        code = run(workload.subcommand, str(job), str(out / name / job.stem))
        if code != 0:
            print(f"{name} {job.stem}: exit {code}", file=sys.stderr)
            failed += 1
print(f"{tree}: {failed} failed jobs", file=sys.stderr)
sys.exit(1 if failed else 0)
EOF
}
run_tree "$tmp/ref" ref
run_tree "$root" tree
diff -r "$tmp/out-ref" "$tmp/out-tree"
echo "reference jobs identical to $ref ($(find "$tmp/jobs" -name 'job-*.ini' | wc -l) jobs)"

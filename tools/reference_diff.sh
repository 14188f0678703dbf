#!/usr/bin/env bash
# Compare the benchmark reference jobs of this working tree with those of git revision REF.
# Usage: tools/reference_diff.sh REF
# Writes the seed-1 jobs of every perfbench workload once, with
# perfbench/workloads.write_jobs (as many per workload as perfbench/reference.json
# records), checks REF out into a temporary git worktree, and runs every job
# in-process through hierctrl.cli.run with each tree's src/.  Prints `diff -r`
# of the two output trees, then one summary line per workload: how many jobs
# differ, the largest relative change of each key value (perfbench/checks.py's
# key_values) and each side's CG and outer-iteration totals.  Exits non-zero
# on any difference or failed job; the worktree is removed either way.
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
status=0
diff -r "$tmp/out-ref" "$tmp/out-tree" || status=$?

PYTHONPATH="$root/perfbench" python - "$tmp/out-ref" "$tmp/out-tree" <<'EOF'
import csv
import sys
from pathlib import Path

from checks import key_values
from workloads import WORKLOADS


def same(a, b):
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def counts(out):
    """(CG iterations, outer iterations) of one job's outputs."""
    summary = dict(line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines())
    if "outer_iterations" in summary:
        return int(summary["cg_iterations"]), int(summary["outer_iterations"])
    with open(out / "sweep.csv", newline="") as handle:
        return sum(int(row["cg_iters"]) for row in csv.DictReader(handle)), 0


ref, tree = (Path(arg) for arg in sys.argv[1:])
for name, workload in WORKLOADS.items():
    jobs = sorted(p.name for p in (ref / name).iterdir())
    differ = sum(not same(ref / name / job, tree / name / job) for job in jobs)
    changes = [[abs(t - r) / max(abs(r), 1e-300) for r, t in
                zip(key_values(workload.subcommand, ref / name / job),
                    key_values(workload.subcommand, tree / name / job))] for job in jobs]
    worst = " ".join(f"{max(column):.3g}" for column in zip(*changes))
    cg, outer = ([sum(counts(side / name / job)[k] for job in jobs) for side in (ref, tree)]
                 for k in (0, 1))
    print(f"{name}: {differ} of {len(jobs)} jobs differ; largest relative change of each "
          f"key value {worst}; CG iterations {cg[0]} -> {cg[1]}; "
          f"outer iterations {outer[0]} -> {outer[1]}")
EOF
if ((status)); then
  exit "$status"
fi
echo "reference jobs identical to $ref ($(find "$tmp/jobs" -name 'job-*.ini' | wc -l) jobs)"

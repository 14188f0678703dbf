#!/usr/bin/env bash
# Compare the traced counts of the benchmark reference jobs of this working tree
# with those of git revision REF.
# Usage: tools/count_diff.sh REF
# Writes the seed-1 jobs of every perfbench workload once, with
# perfbench/workloads.write_jobs (as many per workload as perfbench/reference.json
# records), exports REF into a temporary directory with `git archive`, and runs
# each tree's jobs in one process through hierctrl.cli.run under
# perfbench/tracing's Tracer and Patch, as a traced benchmark run does.  Every
# count of tracing.job_metrics, each key that is not a time (*_s, *.s), is
# compared job by job.  A work count (solves, marches, sweeps, iterations,
# spans) decides the exit status; the output bytes (*.bytes keys) follow the
# digits written, which move with rounding, so they are printed on their own
# line per workload and decide nothing.  Prints each side's work-count totals
# per workload and every job whose work counts differ, and exits non-zero on
# any such difference or failed job.  The temporary directory is removed either
# way.
set -euo pipefail
ref="${1:?usage: tools/count_diff.sh REF}"
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"

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

count_tree() {  # count_tree TREE NAME: the traced counts of every job into $tmp/counts-NAME.json
  PYTHONPATH="$1/src:$root/perfbench" python - "$1" "$tmp/jobs" "$tmp/out-$2" "$tmp/counts-$2.json" <<'EOF'
import json
import sys
from pathlib import Path

import hierctrl
import tracing
from hierctrl import cli
from workloads import WORKLOADS

tree, jobs, out, counts = (Path(arg).resolve() for arg in sys.argv[1:])
if tree not in Path(hierctrl.__file__).resolve().parents:
    sys.exit(f"hierctrl imported from {hierctrl.__file__}, not from {tree}")
result, failed = {}, 0
for name, workload in WORKLOADS.items():
    tracer = tracing.Tracer()  # one per workload, so its spans are freed with it
    patch = tracing.Patch(tracer)
    run = tracer.wrap(cli.run, tracing.JOB_SPAN)
    paths = sorted((jobs / name).glob("job-*.ini"))
    patch.apply()
    try:
        for k, job in enumerate(paths):
            tracer.job_id = k
            code = run(workload.subcommand, str(job), str(out / name / job.stem))
            if code != 0:
                print(f"{name} {job.stem}: exit {code}", file=sys.stderr)
                failed += 1
    finally:
        patch.revert()
    metrics = tracing.job_metrics(tracer)
    result[name] = {job.stem: {key: value for key, value in metrics.get(k, {}).items()
                               if not (key.endswith("_s") or key.endswith(".s"))}
                    for k, job in enumerate(paths)}
counts.write_text(json.dumps(result))
print(f"{tree}: {failed} failed jobs", file=sys.stderr)
sys.exit(1 if failed else 0)
EOF
}
status=0
count_tree "$tmp/ref" ref || status=$?
count_tree "$root" tree || status=$?

python - "$tmp/counts-ref.json" "$tmp/counts-tree.json" <<'EOF' || status=$?
import json
import sys

ref, tree = (json.load(open(path)) for path in sys.argv[1:])


def output(key):
    return key.endswith(".bytes")


differ = 0
for name in ref:
    jobs = sorted(ref[name])
    moved = {job: [f"{key} {value} -> {tree[name].get(job, {}).get(key, 'missing')}"
                   for key, value in ref[name][job].items()
                   if not output(key) and tree[name].get(job, {}).get(key) != value]
             for job in jobs}
    moved = {job: lines for job, lines in moved.items() if lines}
    differ += len(moved) + (sorted(tree[name]) != jobs)
    print(f"{name}: {len(moved)} of {len(jobs)} jobs differ in a traced work count")
    written = {}
    for side, counts in (("ref", ref), ("tree", tree)):
        keys = sorted({key for job in counts[name].values() for key in job})
        totals = {key: sum(job.get(key, 0) for job in counts[name].values()) for key in keys}
        print(f"  {side}: " + ", ".join(f"{key} {total:.10g}" for key, total in totals.items()
                                         if not output(key)))
        written[side] = {key: total for key, total in totals.items() if output(key)}
    for key in sorted(written["ref"].keys() | written["tree"].keys()):
        changed = sum(ref[name][job].get(key) != tree[name].get(job, {}).get(key) for job in jobs)
        print(f"  output {key} (decides nothing): {written['ref'].get(key, 0):.10g} -> "
              f"{written['tree'].get(key, 0):.10g}, {changed} of {len(jobs)} jobs differ")
    for job, lines in moved.items():
        print(f"  {job}: " + "; ".join(lines))
sys.exit(1 if differ else 0)
EOF
if ((status)); then
  exit "$status"
fi
echo "traced work counts identical to $ref ($(find "$tmp/jobs" -name 'job-*.ini' | wc -l) jobs)"

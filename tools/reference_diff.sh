#!/usr/bin/env bash
# Compare the benchmark reference jobs of this working tree with those of git revision REF.
# Usage: tools/reference_diff.sh REF [RTOL]
# Writes the seed-1 jobs of every perfbench workload once, with
# perfbench/workloads.write_jobs (as many per workload as perfbench/reference.json
# records), exports REF into a temporary directory with `git archive`, and
# runs every job in-process through hierctrl.cli.run with each tree's src/.
# Prints one summary line per workload: how many jobs differ, the largest
# relative change of each key value (perfbench/checks.py's key_values), each
# side's CG and outer-iteration totals and its Lambda applies (total and
# per-job range) and its marches, then every count that moved: the CG
# iterations of each eps, or the CG and outer iterations of a semilinear job,
# and the Lambda applies and marches of any job.  Lambda applies and marches
# are counted, not inferred: while each tree runs its jobs, its
# hierctrl.hum.grad_G, one HUM gradient evaluation at the cost of one Lambda
# apply (affine solves and warm-start evaluations included), and its
# hierctrl.operators.TimeStepper._march, which every forward and backward
# march goes through, are wrapped by counters, read per job.  A per-eps
# cg_iters sum is not the apply count.  Each side also gets a line with its perfbench/checks.py check_job
# failures against perfbench/reference.json and its worst deviation from that
# file.
# Without RTOL the comparison is exact: it also prints `diff -r` of the two
# output trees and exits non-zero on any difference or failed job.  With RTOL
# it exits 0 when no job failed and every key value moved by at most RTOL
# relative, so a change that moves outputs at rounding level can state its
# tolerance.  The temporary directory is removed either way.
set -euo pipefail
usage="usage: tools/reference_diff.sh REF [RTOL]"
ref="${1:?$usage}"
rtol="${2:-}"
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

run_tree() {  # run_tree TREE NAME: every job through TREE's hierctrl into $tmp/out-NAME,
              # its grad_G and TimeStepper._march calls per job into $tmp/calls-NAME.json
  PYTHONPATH="$1/src:$root/perfbench" python - "$1" "$tmp/jobs" "$tmp/out-$2" "$tmp/calls-$2.json" <<'EOF'
import json
import sys
from pathlib import Path

import hierctrl
import hierctrl.hum as hum
from hierctrl.cli import run
from hierctrl.operators import TimeStepper
from workloads import WORKLOADS

tree, jobs, out, calls_json = (Path(arg).resolve() for arg in sys.argv[1:])
if tree not in Path(hierctrl.__file__).resolve().parents:
    sys.exit(f"hierctrl imported from {hierctrl.__file__}, not from {tree}")
calls = {"applies": 0, "marches": 0}


def counted(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


hum.grad_G = counted("applies", hum.grad_G)  # minimize_G looks grad_G up in hum's namespace at each call
TimeStepper._march = counted("marches", TimeStepper._march)
failed = 0
per_job = {}
for name, workload in WORKLOADS.items():
    for job in sorted((jobs / name).glob("job-*.ini")):
        calls.update(applies=0, marches=0)
        code = run(workload.subcommand, str(job), str(out / name / job.stem))
        per_job[f"{name}/{job.stem}"] = dict(calls)
        if code != 0:
            print(f"{name} {job.stem}: exit {code}", file=sys.stderr)
            failed += 1
calls_json.write_text(json.dumps(per_job))
print(f"{tree}: {failed} failed jobs", file=sys.stderr)
sys.exit(1 if failed else 0)
EOF
}
status=0
run_tree "$tmp/ref" ref || status=$?
run_tree "$root" tree || status=$?
if [[ -z "$rtol" ]]; then
  diff -r "$tmp/out-ref" "$tmp/out-tree" || status=$?
fi

PYTHONPATH="$root/perfbench" python - "$tmp/out-ref" "$tmp/out-tree" "$rtol" "$tmp/jobs" "$root" \
  "$tmp/calls-ref.json" "$tmp/calls-tree.json" <<'EOF' || status=$?
import csv
import json
import sys
from pathlib import Path

from checks import check_job, key_values
from workloads import WORKLOADS


def same(a, b):
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def counts(out):
    """{label: count} of one job's outputs: the CG iterations of each eps,
    or the CG and outer iterations of a semilinear job."""
    summary = dict(line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines())
    if "outer_iterations" in summary:
        return {"cg": int(summary["cg_iterations"]), "outer": int(summary["outer_iterations"])}
    with open(out / "sweep.csv", newline="") as handle:
        return {f"eps {row['eps']} cg": int(row["cg_iters"]) for row in csv.DictReader(handle)}


ref, tree, rtol, inis = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
recorded = json.loads((Path(sys.argv[5]) / "perfbench" / "reference.json").read_text())
calls = {ref: json.loads(Path(sys.argv[6]).read_text()), tree: json.loads(Path(sys.argv[7]).read_text())}
largest = 0.0
for name, workload in WORKLOADS.items():
    jobs = sorted(p.name for p in (ref / name).iterdir())
    differ = sum(not same(ref / name / job, tree / name / job) for job in jobs)
    changes = [[abs(t - r) / max(abs(r), 1e-300) for r, t in
                zip(key_values(workload.subcommand, ref / name / job),
                    key_values(workload.subcommand, tree / name / job))] for job in jobs]
    worst = [max(column) for column in zip(*changes)]
    largest = max(largest, *worst)
    per_job = {side: {job: counts(side / name / job) for job in jobs} for side in (ref, tree)}
    cg, outer = ([sum(n for c in per_job[side].values() for label, n in c.items() if keep(label))
                  for side in (ref, tree)]
                 for keep in (lambda label: label != "outer", lambda label: label == "outer"))
    lam, marches = ([[calls[side][f"{name}/{job}"][what] for job in jobs] for side in (ref, tree)]
                    for what in ("applies", "marches"))
    print(f"{name}: {differ} of {len(jobs)} jobs differ; largest relative change of each "
          f"key value {' '.join(f'{w:.3g}' for w in worst)}; CG iterations {cg[0]} -> {cg[1]}; "
          f"outer iterations {outer[0]} -> {outer[1]}; Lambda applies "
          + " -> ".join(f"{sum(a)} ({min(a)}-{max(a)} per job)" for a in lam)
          + f"; marches {sum(marches[0])} -> {sum(marches[1])}")
    for side in (ref, tree):
        failed = sum(check_job(workload.subcommand, inis / name / f"{job}.ini", side / name / job, 0,
                               recorded[name][int(job.split("-")[1])]) is not None for job in jobs)
        deviation = max(abs(g - r) / abs(r) for job in jobs for g, r in
                        zip(key_values(workload.subcommand, side / name / job),
                            recorded[name][int(job.split("-")[1])]))
        print(f"  {side.name}: {failed} of {len(jobs)} jobs fail check_job against reference.json; "
              f"worst deviation from it {deviation:.3g}")
    for job in jobs:
        before, after = per_job[ref][job], per_job[tree][job]
        moved = [f"{label} {n} -> {after.get(label)}" for label, n in before.items() if after.get(label) != n]
        key = f"{name}/{job}"
        for what in ("applies", "marches"):
            if calls[ref][key][what] != calls[tree][key][what]:
                moved.append(f"{what} {calls[ref][key][what]} -> {calls[tree][key][what]}")
        if moved:
            print(f"  {job}: " + "; ".join(moved))
if rtol:
    print(f"largest relative change of any key value {largest:.3g} (RTOL {float(rtol):.3g})")
    sys.exit(0 if largest <= float(rtol) else 1)
EOF
if ((status)); then
  exit "$status"
fi
jobs="$(find "$tmp/jobs" -name 'job-*.ini' | wc -l) jobs"
if [[ -z "$rtol" ]]; then
  echo "reference jobs identical to $ref ($jobs)"
else
  echo "reference jobs within $rtol of $ref ($jobs)"
fi

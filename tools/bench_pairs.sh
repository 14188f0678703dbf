#!/usr/bin/env bash
# Benchmark this working tree against git revision REF in alternating pairs.
# Usage: tools/bench_pairs.sh REF WORKLOAD PAIRS [SECONDS]
# Exports REF into a temporary directory with `git archive`, then runs
# `perfbench/run.py --workload WORKLOAD --seed 1 --seconds SECONDS --trace 0`
# (SECONDS defaults to 50) PAIRS times from the root of each tree, REF first
# in the odd pairs and the working tree first in the even ones.  Both sides
# run this tree's perfbench/, so the benchmark code is the same.  Prints each
# pair's job_s_mean, job_cpu_s_mean, jobs_per_s, setup_s and peak_rss_mb, the
# median change ratio (tree / REF) of every metric, and as the last line one
# JSON object holding every run's result line.  Exits non-zero if a run
# fails; the temporary directory is removed either way.
set -euo pipefail
usage="usage: tools/bench_pairs.sh REF WORKLOAD PAIRS [SECONDS]"
ref="${1:?$usage}"
workload="${2:?$usage}"
pairs="${3:?$usage}"
seconds="${4:-50}"
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"
mkdir "$tmp/runs"

bench() {  # bench TREE NAME PAIR: one benchmark run of TREE, its result line kept as runs/PAIR-NAME.json
  (cd "$1" && python3 "$root/perfbench/run.py" --workload "$workload" --seed 1 \
     --seconds "$seconds" --trace 0) > "$tmp/run.log"
  tail -n 1 "$tmp/run.log" > "$tmp/runs/$3-$2.json"
}
for ((pair = 1; pair <= pairs; pair++)); do
  if ((pair % 2)); then
    bench "$tmp/ref" ref "$pair"; bench "$root" tree "$pair"
  else
    bench "$root" tree "$pair"; bench "$tmp/ref" ref "$pair"
  fi
done

python3 - "$tmp/runs" "$pairs" "$ref" "$workload" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

runs, pairs, ref, workload = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3], sys.argv[4]
results = {side: [json.loads((runs / f"{p}-{side}.json").read_text()) for p in range(1, pairs + 1)]
           for side in ("ref", "tree")}
shown = ("job_s_mean", "job_cpu_s_mean", "jobs_per_s", "setup_s", "peak_rss_mb")
print(f"{workload}: {ref} (ref) against the working tree (tree), {pairs} pairs")
for p, (r, t) in enumerate(zip(results["ref"], results["tree"]), start=1):
    cells = [f"{m} {r['metrics'][m]['value']:.6g} -> {t['metrics'][m]['value']:.6g}" for m in shown]
    first = "ref" if p % 2 else "tree"
    print(f"pair {p} ({first} first): " + "; ".join(cells)
          + f"; failed {r['failed']} of {r['attempted']} -> {t['failed']} of {t['attempted']}")
for m in results["ref"][0]["metrics"]:
    ratios = [t["metrics"][m]["value"] / r["metrics"][m]["value"]
              for r, t in zip(results["ref"], results["tree"])]
    print(f"median change ratio {m} = {statistics.median(ratios):.4f}")
print(json.dumps(results))
EOF

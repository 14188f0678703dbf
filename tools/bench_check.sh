#!/usr/bin/env bash
# Traced benchmark output check: run WORKLOAD at seed 1 for SECONDS with
# tracing on, keep its log as bench-WORKLOAD.log, and fail unless the run's
# last line (one JSON object) reports "correct": true.
# Usage: tools/bench_check.sh WORKLOAD SECONDS
set -eo pipefail
workload="${1:?usage: tools/bench_check.sh WORKLOAD SECONDS}"
seconds="${2:?usage: tools/bench_check.sh WORKLOAD SECONDS}"
log="bench-$workload.log"
python3 perfbench/run.py --workload "$workload" --seed 1 --seconds "$seconds" --trace 1 | tee "$log"
tail -n 1 "$log" | python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read()).get("correct") is True else 1)'

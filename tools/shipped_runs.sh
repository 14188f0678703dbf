#!/usr/bin/env bash
# Run every shipped config through the installed `hierctrl` console script.
# Usage: tools/shipped_runs.sh OUT_DIR
# Each run writes OUT_DIR/<subcommand>-<config>; the first failing run stops the script.
set -e
out="${1:?usage: tools/shipped_runs.sh OUT_DIR}"
for run in nash:nash_1d nash:nash_2d null-control:null_control_1d trajectory:trajectory_1d \
           semilinear:semilinear_1d second-order:second_order_1d observability:observability_1d \
           observability:observability_distinct_1d carleman:carleman_1d oracle:nash_1d oracle:nash_2d; do
  hierctrl "${run%%:*}" --config "configs/${run#*:}.ini" --out "$out/${run%%:*}-${run#*:}"
done

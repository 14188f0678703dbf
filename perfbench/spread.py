"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/spread.json

Runs run.py once per seed on each workload of BENCHMARK.json (or on those
named), one run at a time.  For each metric it reports the median of the
runs and the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.  Every run must pass
its output checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed jobs")
    environment = next(line for line in lines if line.startswith("environment: "))
    host = next(line for line in lines if line.startswith("host speed: "))
    return result["metrics"], environment[len("environment: "):], host


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            metrics, report["environment"], host = run_once(workload, seed, args.seconds)
            runs.append(metrics)
            print(workload, seed, {k: round(v["value"], 4) for k, v in metrics.items()}, host,
                  flush=True)
        summary = {name: summarize([r[name]["value"] for r in runs]) for name in runs[0]}
        report["workloads"][workload] = summary
        for name, s in summary.items():
            print(f"{workload} {name}: median {s['median']:.5g}, spread {s['spread']:.2%}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

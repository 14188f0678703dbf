"""hierctrl benchmark: batches of CLI jobs on seeded workloads.

    python3 perfbench/run.py --workload hum_sweep_1d --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Each job's INI file is generated from the shipped configs and the
seed into .bench_build/perfbench/.  The workload then runs in its own child
process (worker.py), single-threaded BLAS, one job at a time.  With --trace 0
it first times SETUP_PROBES fresh interpreters from spawn to a validated
config.  Every time it reports is scaled to a reference host speed
(hostspeed.py), from probes timed just before and after each job or set-up.

Prints each metric with its unit, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.  Exits non-zero
without that line when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from workloads import DEFAULT_SEED, WORKLOADS, write_jobs

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9     # timed fresh interpreters per run; setup_s is their median
MAX_JOBS = 120       # inputs written per run; more than any run of up to 60 s reaches
DEADLINE_S = 170     # the whole run must end within 180 s
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for key in SINGLE_THREAD:
        env[key] = "1"
    return env


def probe_setup(env, config, subcommand, deadline):
    """Seconds from spawning a fresh interpreter to its validated config."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(config), subcommand],
                          env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=max(deadline - perf_counter(), 1.0))
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return elapsed


def main(argv=None):
    started = perf_counter()
    parser = argparse.ArgumentParser(description="hierctrl benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = started + DEADLINE_S

    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    needed = [root / "src" / "hierctrl" / "cli.py", root / workload.base_config]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"not a hierctrl checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work_root = root / ".bench_build" / "perfbench"
    work_root.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        tmp = Path(tmp)
        jobs = write_jobs(workload, args.seed, MAX_JOBS, root, tmp / "jobs")
        setup = []
        if not args.trace:
            host = HostSpeed()
            for _ in range(SETUP_PROBES):
                elapsed = probe_setup(env, jobs[0], workload.subcommand, deadline)
                setup.append(elapsed * host.next_scale())
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
               "--jobs-dir", str(tmp / "jobs"), "--work-dir", str(tmp),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans", str(work_root / f"spans-{workload.name}.npz")]
        if args.seed == DEFAULT_SEED:
            cmd += ["--reference", str(HERE / "reference.json")]
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(deadline - perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            print(f"worker did not finish within {DEADLINE_S} s", file=sys.stderr)
            return 3
        if proc.returncode != 0:
            print(f"worker exited with code {proc.returncode}", file=sys.stderr)
            return 3
        result = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = {}
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    metrics.update(result["metrics"])
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {workload.name}: seed {args.seed}, {result['timed_jobs']} timed jobs "
          f"after 1 warm-up, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in result["environment"].items()))
    host = result["host"]
    print(f"host speed: jobs scaled by {host['scale_min']:.3g} to {host['scale_max']:.3g}; "
          f"unscaled mean job {host['unscaled_job_s_mean']:.6g} s")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

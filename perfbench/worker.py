"""One workload's closed loop, run in its own process by run.py.

One client sends its next job only after the previous one finished.  A job
is one `hierctrl.cli.run(subcommand, config, out)` call, timed from config
load to artifacts written; its outputs are checked outside the timed region.
The last job file is a warm-up, run first and not timed.  Every time is
scaled to a reference host speed (hostspeed.py).

With --trace 0 it reports the end-to-end metrics of the timed batch.  The
batch is whole blocks of STRATA jobs: within a block the draws are
stratified, so every run averages over the same mix of easy and hard
inputs.  A block starts only if, at the mean pace so far, it ends within
--seconds; the first block always runs.

With --trace 1 it runs each job twice, untraced and traced, and reports
per-layer metrics per job plus the tracing overhead.  The traced outputs
must be byte-identical to the untraced ones, and a repeated traced job must
reproduce the first one's counts.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

from checks import check_job, neutral_outputs
from hostspeed import HostSpeed
from workloads import STRATA, WORKLOADS

TRACE_MIN_JOBS = 3  # job pairs of a traced run, whatever --seconds says
COUNT_JOBS = 3      # counts are averaged over this fixed prefix of jobs, so they repeat exactly


def _is_time(key):
    return key.endswith("_s") or key.endswith(".s")


class Runner:
    def __init__(self, workload, jobs, work_dir, reference):
        self.workload = workload
        self.jobs = jobs
        self.work_dir = work_dir
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, run_fn, job, keep=False):
        """Run job `job`, check it, and return (wall_s, cpu_s, outputs or None if it failed)."""
        out = self.work_dir / f"out-{job:04d}"
        shutil.rmtree(out, ignore_errors=True)
        t0, c0 = perf_counter(), process_time()
        try:
            code = run_fn(self.workload.subcommand, str(self.jobs[job]), str(out))
        except Exception:  # a crash is a failed job; the loop goes on to the next one
            traceback.print_exc()
            code = None
        wall, cpu = perf_counter() - t0, process_time() - c0
        reference = self.reference[job] if self.reference and job < len(self.reference) else None
        try:
            problem = check_job(self.workload.subcommand, self.jobs[job], out, code, reference)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
        outputs = neutral_outputs(out) if problem is None and keep else {}
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"job {job} failed: {problem}", file=sys.stderr)
            return wall, cpu, None
        return wall, cpu, outputs

    def fail(self, reason):
        self.failed += 1
        print(reason, file=sys.stderr)


def end_to_end(runner, cli, seconds, host):
    walls, cpus, spans, raw_walls, passed = [], [], [], [], 0
    start = perf_counter()
    for first in range(0, len(runner.jobs) - STRATA, STRATA):  # the last file is the warm-up
        elapsed = perf_counter() - start
        if first and elapsed * (first + STRATA) / first > seconds:
            break  # the next block would not end within `seconds`
        for job in range(first, first + STRATA):
            t0 = perf_counter()
            wall, cpu, outputs = runner.run(cli.run, job)
            span = perf_counter() - t0  # the job and its checks
            scale = host.next_scale()
            walls.append(wall * scale)
            cpus.append(cpu * scale)
            spans.append(span * scale)
            raw_walls.append(wall)
            passed += outputs is not None
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "job_s_mean": {"value": statistics.fmean(walls), "unit": "s"},
        "job_cpu_s_mean": {"value": statistics.fmean(cpus), "unit": "s"},
        "jobs_per_s": {"value": passed / sum(spans), "unit": "1/s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }, raw_walls


def traced(runner, cli, seconds, spans_path, host):
    import tracing

    tracer = tracing.Tracer()
    patch = tracing.Patch(tracer)
    run_traced = tracer.wrap(cli.run, tracing.JOB_SPAN)
    plain_walls, traced_walls, traced_scales, raw_walls = [], [], [], []
    start = perf_counter()
    job = 0
    while job < len(runner.jobs) - 1 and (len(traced_walls) < TRACE_MIN_JOBS
                                      or perf_counter() - start < seconds):
        tracer.job_id = len(traced_walls)
        # each job runs untraced and traced, in alternating order, so drift in
        # the host's speed falls on both sides of the overhead alike
        pair, scale = {}, {}
        for side in ("plain", "traced") if job % 2 else ("traced", "plain"):
            if side == "traced":
                patch.apply()
                pair[side] = runner.run(run_traced, job, keep=True)
                patch.revert()
            else:
                pair[side] = runner.run(cli.run, job, keep=True)
            scale[side] = host.next_scale()
        plain_walls.append(pair["plain"][0] * scale["plain"])
        traced_walls.append(pair["traced"][0] * scale["traced"])
        traced_scales.append(scale["traced"])
        raw_walls.append(pair["plain"][0])
        plain_out, traced_out = pair["plain"][2], pair["traced"][2]
        if plain_out is not None and traced_out is not None and plain_out != traced_out:
            runner.fail(f"job {job}: traced outputs differ from untraced outputs")
        job += 1
    repeat_id = len(traced_walls)
    tracer.job_id = repeat_id
    patch.apply()
    runner.run(run_traced, 0)
    patch.revert()
    tracer.job_id = -1
    tracer.save(spans_path)

    per_job = tracing.job_metrics(tracer)
    first, again = per_job[0], per_job.get(repeat_id, {})
    drift = [k for k in first if not _is_time(k) and first[k] != again.get(k)]
    if drift:
        runner.fail(f"traced counts did not repeat: {drift}")

    metrics = {}
    for key in first:
        if _is_time(key):
            value = statistics.median(per_job[k][key] * traced_scales[k]
                                      for k in range(len(traced_walls)))
            unit = "s"
        else:
            value = statistics.fmean(per_job[k][key] for k in range(COUNT_JOBS))
            unit = "bytes" if key.endswith(".bytes") else "count"
        metrics[key] = {"value": value, "unit": unit}
    metrics["trace.overhead"] = {
        "value": statistics.median(traced_walls) - statistics.median(plain_walls), "unit": "s"}
    return metrics, raw_walls


def host_summary(host, raw_walls):
    """What the scaling did: the unscaled mean job and the range of scale factors."""
    return {"unscaled_job_s_mean": statistics.fmean(raw_walls),
            "scale_min": min(host.scales), "scale_max": max(host.scales)}


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--jobs-dir", required=True, type=Path)
    parser.add_argument("--work-dir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--reference", type=Path, help="recorded key values of these jobs")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    import hierctrl
    import hierctrl.cli as cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(hierctrl.__file__).resolve().parents:
        print(f"hierctrl imported from {hierctrl.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    jobs = sorted(args.jobs_dir.glob("job-*.ini"))
    reference = json.loads(args.reference.read_text())[workload.name] if args.reference else None
    runner = Runner(workload, jobs, args.work_dir, reference)
    runner.run(cli.run, len(jobs) - 1)  # warm-up, not timed
    host = HostSpeed()
    if args.trace:
        metrics, raw_walls = traced(runner, cli, args.seconds, args.spans, host)
        timed = 2 * len(raw_walls) + 1
    else:
        metrics, raw_walls = end_to_end(runner, cli, args.seconds, host)
        timed = len(raw_walls)
    print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                      "timed_jobs": timed, "environment": environment(),
                      "host": host_summary(host, raw_walls), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

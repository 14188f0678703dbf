"""Record the key values of the default-seed jobs into reference.json.

    PYTHONPATH=src python3 perfbench/record_reference.py [--jobs 64]

Run from the root of a checkout, at the commit whose values become the
reference.  Each job must pass its output checks; the recorded values are
the terminal norms of sweep.csv (null-control) or terminal_mismatch
(semilinear).  A benchmark run at the default seed compares every job that
has a recorded entry against it.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from checks import check_job, key_values
from workloads import DEFAULT_SEED, WORKLOADS, write_jobs

HERE = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=64)
    args = parser.parse_args(argv)

    import hierctrl.cli as cli

    root = Path.cwd()
    reference = {"seed": DEFAULT_SEED}
    with tempfile.TemporaryDirectory(dir=root / ".bench_build") as tmp:
        tmp = Path(tmp)
        for workload in WORKLOADS.values():
            jobs = write_jobs(workload, DEFAULT_SEED, args.jobs, root, tmp / workload.name)
            values = []
            for i, ini in enumerate(jobs):
                out = tmp / f"{workload.name}-out-{i:04d}"
                code = cli.run(workload.subcommand, str(ini), str(out))
                problem = check_job(workload.subcommand, ini, out, code)
                if problem is not None:
                    print(f"{workload.name} job {i} failed: {problem}", file=sys.stderr)
                    return 1
                values.append(key_values(workload.subcommand, out))
                print(f"{workload.name} job {i}: {values[-1]}", flush=True)
            reference[workload.name] = values
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions and the seeded job-input generator.

A workload is a batch of `hierctrl` CLI jobs that share a subcommand, a
shipped base config and a set of overrides.  Each job differs only in what
is drawn from the workload seed: the initial datum u0 (and, for the
semilinear workload, the nonlinearity strength c).  The program receives
only the INI files written here.
"""

from __future__ import annotations

import configparser
import random
from dataclasses import dataclass
from pathlib import Path

PI = "3.141592653589793"
DEFAULT_SEED = 1
STRATA = 4


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    base_config: str
    overrides: dict
    dim: int
    draw_c: bool = False  # also draw the nonlinearity strength c


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hum_sweep_1d",
            subcommand="null-control",
            base_config="configs/null_control_1d.ini",
            overrides={"grid": {"nx": "64", "nt": "64"}},
            dim=1,
        ),
        Workload(
            name="hum_2d",
            subcommand="null-control",
            base_config="configs/nash_2d.ini",
            overrides={"grid": {"nx": "24, 24", "nt": "24"},
                       "weights": {"eps_list": "1e-4"},
                       "solver": {"cg_tol": "1e-10"}},
            dim=2,
        ),
        Workload(
            name="semilinear_1d",
            subcommand="semilinear",
            base_config="configs/semilinear_1d.ini",
            overrides={"grid": {"nx": "40", "nt": "40"}},
            dim=1,
            draw_c=True,
        ),
    )
}


def _fx(value):
    """Fixed-point literal; the config expression grammar needs no exponent."""
    return f"{value:.12f}"


def _axis_factor(var, c1, c2):
    return f"(1 + {_fx(c1)}*sin({PI}*{var}/6) + {_fx(c2)}*cos(2*{PI}*{var}/6))"


def draw_job(workload: Workload, seed: int, job: int):
    """The values drawn for one job: u0 scale a, modulation coefficients, c.

    Draws are Latin-hypercube stratified over blocks of STRATA consecutive
    jobs: within a block, each parameter takes each of STRATA equal slices
    of its range once, in a seeded order.  Every run then sees about the same
    mix of easy and hard inputs, whatever the seed, so the input mix adds
    little to the run-to-run spread.
    """
    block, slot = divmod(job, STRATA)
    block_rng = random.Random(f"{workload.name}:{seed}:block{block}")
    job_rng = random.Random(f"{workload.name}:{seed}:{job}")
    draw = {}
    for name, (lo, hi) in _ranges(workload).items():
        order = list(range(STRATA))
        block_rng.shuffle(order)
        draw[name] = lo + (hi - lo) * (order[slot] + job_rng.random()) / STRATA
    return draw


def _ranges(workload: Workload):
    ranges = {"a": (0.5, 1.5), "c1": (-0.5, 0.5), "c2": (-0.5, 0.5)}
    if workload.dim == 2:
        ranges.update(c1y=(-0.5, 0.5), c2y=(-0.5, 0.5))
    if workload.draw_c:
        ranges["c"] = (0.25, 0.75)
    return ranges


def u0_expression(workload: Workload, draw):
    """The shipped clamped bump, scaled by a and modulated per axis."""
    if workload.dim == 1:
        bump = "16*(x/6)^2*(1-x/6)^2"
        modulation = _axis_factor("x", draw["c1"], draw["c2"])
    else:
        bump = "256*(x/6)^2*(1-x/6)^2*(y/6)^2*(1-y/6)^2"
        modulation = (_axis_factor("x", draw["c1"], draw["c2"]) + "*"
                      + _axis_factor("y", draw["c1y"], draw["c2y"]))
    return f'"{_fx(draw["a"])}*{bump}*{modulation}"'


def _read_base(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    if not parser.read(path):
        raise FileNotFoundError(f"missing base config {path}")
    return parser


def write_jobs(workload: Workload, seed: int, count: int, root: Path, out_dir: Path):
    """Write job-0000.ini .. for `count` jobs under out_dir; return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in range(count):
        parser = _read_base(root / workload.base_config)
        for section, values in workload.overrides.items():
            for key, value in values.items():
                parser[section][key] = value
        draw = draw_job(workload, seed, job)
        parser["data"]["u0"] = u0_expression(workload, draw)
        if workload.draw_c:
            parser["nonlinearity"]["c"] = _fx(draw["c"])
        path = out_dir / f"job-{job:04d}.ini"
        with open(path, "w") as handle:
            parser.write(handle)
        paths.append(path)
    return paths

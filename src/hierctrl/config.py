"""Run configuration: INI-style sections, expression-valued fields, builders.

Format: flat sections with `key = value`; expressions are quoted strings
over the variables x (, y in 2D) and t; per-axis lists are comma separated
and boxes in 2D separate the axes with a semicolon.  Validation
(validate_for) builds a run's inputs, each once, before any solve or
output; invalid configs never produce artifacts.
"""

from __future__ import annotations

import configparser
import functools
from dataclasses import dataclass

import numpy as np

from .carleman import CarlemanWeights, build_carleman_weights, check_case, default_parameters
from .errors import ConfigError, EmptyMask, HierctrlError, ParseError
from .expressions import parse_expr
from .mesh import build_grid, build_mask
from .operators import ProblemSpec
from .semilinear import Nonlinearity, from_expression, preset_grad_tanh, preset_tanh, preset_zero

BOXES = ("leader", "follower1", "follower2", "target1", "target2")

# A rule: what a value must be, and its test
FINITE = ("finite", np.isfinite)
POSITIVE = ("finite and positive", lambda v: 0 < v < np.inf)
NONNEGATIVE = ("finite and nonnegative", lambda v: 0 <= v < np.inf)
AT_LEAST_ONE = ("at least 1", lambda v: v >= 1)
INTERVAL = ("'lo, hi' with lo < hi", lambda bounds: len(bounds) == 2 and bounds[0] < bounds[1])  # nan fails

# solver key: (default, rule); the default's type is the type the key is read as
SOLVER = {
    "nash_tol": (1e-12, POSITIVE),
    "nash_max_iter": (200, AT_LEAST_ONE),
    "coupled_tol": (1e-12, POSITIVE),
    "cg_tol": (1e-9, POSITIVE),
    "cg_max_iter": (300, AT_LEAST_ONE),
    "outer_tol": (1e-8, POSITIVE),
    "max_outer": (30, AT_LEAST_ONE),
    "damping": (1.0, ("in (0, 1]", lambda v: 0 < v <= 1)),
    "seed": (0, None),  # validate_for checks it, as --seed may override it
    "n_samples": (50, AT_LEAST_ONE),
    "n_directions": (20, AT_LEAST_ONE),
}


def _strip_quotes(text):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def _read(sections, name, default, cast=float, rule=None, sep=None, axes=None):
    """The value of name ("section.key") read by cast, or default when the
    file leaves the key out.  With sep, the tuple of its sep-separated
    entries, each read by cast, one per axis when axes is given.  A value
    that does not parse, or an entry that breaks rule (what it must be, and
    its test), is a ConfigError that names section.key."""
    section, _, key = name.partition(".")
    text = sections.get(section, {}).get(key)
    if text is None:
        return default
    try:
        values = tuple(cast(part) for part in text.split(sep)) if sep else (cast(text),)
    except ValueError as exc:
        raise ConfigError(f"{name} = {text}: {exc}") from exc
    if rule is not None and not all(rule[1](value) for value in values):
        raise ConfigError(f"{name} = {text}: {'each entry ' if sep else ''}must be {rule[0]}")
    if axes is not None and len(values) != axes:
        raise ConfigError(f"{name} = {text}: need one entry per axis ({axes}), got {len(values)}")
    return values if sep else values[0]


def _bounds(text):
    return tuple(float(part) for part in text.split(","))


@dataclass
class RunConfig:
    """Parsed and validated configuration for one experiment run."""

    grid: object
    sections: dict
    exprs: dict
    boxes: dict
    case: str
    alpha: tuple
    mu: tuple
    lam: float
    s: float
    eps_list: tuple
    solver: dict
    seed: int
    omega0_center: tuple
    omega0_center2: tuple
    otilde_window: tuple
    nonlinearity: functools.partial  # builds the run's Nonlinearity, for the subcommands that read it

    def normalized(self):
        """Sections as parsed, for the run manifest."""
        return {sec: dict(items) for sec, items in self.sections.items()}


def _parse_expression(text, name, allowed):
    try:
        ast = parse_expr(_strip_quotes(text))
    except ParseError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    extra = ast.variables() - allowed
    if extra:
        raise ConfigError(f"{name}: unknown variables {sorted(extra)} (allowed: {sorted(allowed)})")
    return ast


def load_config(path) -> RunConfig:
    # ';' separates box axes in 2D, so only '#' marks inline comments
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        found = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not found:
        raise ConfigError(f"cannot read config file {path}")
    sections = {name: dict(parser.items(name)) for name in parser.sections()}

    read = functools.partial(_read, sections)
    if not sections.get("grid"):
        raise ConfigError("missing [grid] section")
    dim = read("grid.dim", 1, int)
    lengths = read("grid.lengths", (1.0,), sep=",")
    nxs = read("grid.nx", (16,), int, sep=",")
    grid = build_grid(dim, lengths if len(lengths) > 1 else lengths[0], nxs if len(nxs) > 1 else nxs[0],
                      read("grid.T", 1.0), read("grid.nt", 16, int))

    space_vars = {"x", "y"} if dim == 2 else {"x"}
    st_vars = space_vars | {"t"}

    exprs = {}  # keyed "section.key", as the file spells it and every error names it
    for section, keys, allowed in (("coefficients", ["a"] + [f"b{ax + 1}" for ax in range(dim)], st_vars),
                                   ("data", ["u0", "ubar0"], space_vars),
                                   ("data", ["zeta1", "zeta2", "f"], st_vars)):
        for key in keys:
            name = f"{section}.{key}"
            exprs[name] = _parse_expression(sections.get(section, {}).get(key, "0"), name, allowed)

    geom = sections.get("geometry", {})
    box = {"cast": _bounds, "rule": INTERVAL, "sep": ";", "axes": dim}
    boxes = {key: read(f"geometry.{key}", None, **box) for key in BOXES if key in geom}
    case = geom.get("case", "shared").strip()
    if case not in ("shared", "distinct"):
        raise ConfigError(f"geometry.case must be shared or distinct, got {case!r}")
    centre = {"rule": FINITE, "sep": ",", "axes": dim}
    omega0 = read("geometry.omega0_center", tuple(L / 2.0 for L in grid.lengths), **centre)
    omega0_2 = read("geometry.omega0_center2", None, **centre)
    window = read("geometry.otilde_window", None, **box)

    alpha = tuple(read(f"weights.alpha{i}", 1e-3, rule=NONNEGATIVE) for i in (1, 2))
    mu = tuple(read(f"weights.mu{i}", 1.0, rule=POSITIVE) for i in (1, 2))
    lam, s = (default if sections.get("weights", {}).get(key, "auto").strip() == "auto"
              else read(f"weights.{key}", None, rule=FINITE)
              for key, default in zip(("lambda", "s"), default_parameters(grid.T)))
    eps_list = read("weights.eps_list", (1e-1, 1e-2, 1e-3, 1e-4, 1e-5), rule=POSITIVE, sep=",")

    for key in sections.get("solver", {}):
        if key not in SOLVER:
            raise ConfigError(f"unknown solver option {key!r}")
    solver = {key: read(f"solver.{key}", default, type(default), rule)
              for key, (default, rule) in SOLVER.items()}

    nl = sections.get("nonlinearity", {})
    kind = nl.get("preset", "zero").strip()
    if kind == "zero":
        nonlinearity = functools.partial(preset_zero)
    elif kind in ("tanh", "grad-tanh"):
        c = read("nonlinearity.c", 0.5, rule=FINITE)
        nonlinearity = (functools.partial(preset_tanh, c) if kind == "tanh"
                        else functools.partial(preset_grad_tanh, c, read("nonlinearity.c2", 0.0, rule=FINITE)))
    elif kind == "expr":
        if "expr" not in nl:
            raise ConfigError("nonlinearity preset expr needs an expr entry")
        _parse_expression(nl["expr"], "nonlinearity.expr", {"u"} | {f"p{i + 1}" for i in range(dim)})
        nonlinearity = functools.partial(from_expression, _strip_quotes(nl["expr"]),
                                         read("nonlinearity.bound", 1.0, rule=FINITE), dim=dim)
    else:
        raise ConfigError(f"unknown nonlinearity preset {kind!r}")

    return RunConfig(
        grid=grid,
        sections=sections,
        exprs=exprs,
        boxes=boxes,
        case=case,
        alpha=alpha,
        mu=mu,
        lam=lam,
        s=s,
        eps_list=eps_list,
        solver=solver,
        seed=solver["seed"],
        omega0_center=omega0,
        omega0_center2=omega0_2,
        otilde_window=window,
        nonlinearity=nonlinearity,
    )


# What validate_for checks and builds for each subcommand:
#   spec          every box is required; a ProblemSpec is built whenever all are given
#   control       the hypotheses of a computed leader: each target region meets the
#                 leader region, and the geometry fits the shared or distinct case
#   f             the given leader control
#   nonlinearity  the Nonlinearity; hessian: it must have analytic second derivatives
#   weights       the Carleman weights; theta: the weights as a diagnostic, left out
#                 when they cannot be built
#   ubar0         the initial state of the free trajectory
INPUTS = {
    "nash": ("spec", "f"),
    "null-control": ("spec", "control"),
    "trajectory": ("spec", "control", "ubar0"),
    "semilinear": ("spec", "control", "nonlinearity", "theta", "ubar0"),
    "second-order": ("spec", "f", "nonlinearity", "hessian"),
    "observability": ("spec", "control", "weights"),
    "carleman": ("weights",),
    "oracle": ("spec", "f"),
}


@dataclass
class RunInputs:
    """What a run computes from, each built once by validate_for."""

    config: RunConfig
    spec: ProblemSpec = None
    f: np.ndarray = None  # interior (nt+1, n)
    nonlinearity: Nonlinearity = None
    weights: CarlemanWeights = None
    ubar0: np.ndarray = None  # interior (n,)


def validate_for(config: RunConfig, subcommand) -> RunInputs:
    """Check the config against the subcommand's hypotheses and build its
    inputs.  Every config error raises here, before a run writes anything."""
    if subcommand not in INPUTS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    needs = INPUTS[subcommand]
    if config.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {config.seed}")
    missing = [k for k in BOXES if k not in config.boxes] if "spec" in needs else []
    if missing:
        raise ConfigError(f"{subcommand}: missing geometry boxes {missing}")
    for key, box in config.boxes.items():
        try:
            build_mask(config.grid, box)
        except EmptyMask as exc:
            raise ConfigError(f"geometry.{key}: {exc}") from exc
    if "hessian" in needs and config.nonlinearity.func is from_expression:
        raise ConfigError("second-order checker requires a preset with analytic second derivatives")
    inputs = RunInputs(config)
    if all(k in config.boxes for k in BOXES):
        inputs.spec = build_problem_spec(config)
    if "control" in needs:
        if not inputs.spec.has_controllability_geometry():
            raise ConfigError("each target region must intersect the leader region")
        check_case(inputs.spec, config.case)
        if config.case == "distinct" and config.omega0_center2 is None:
            raise ConfigError("distinct case needs geometry.omega0_center2")
    elif inputs.spec is not None and "weights" in needs and config.case == "shared":
        check_case(inputs.spec, "shared")  # carleman, given all boxes, checks the shared case only
    if "f" in needs:
        inputs.f = _eval_spacetime(config, "data.f")
    if "ubar0" in needs:
        inputs.ubar0 = _eval_spacetime(config, "data.ubar0")[0]
    if "nonlinearity" in needs:
        inputs.nonlinearity = config.nonlinearity()
    if "weights" in needs or "theta" in needs:
        try:
            inputs.weights = build_carleman(config)
        except HierctrlError:
            if "weights" in needs:
                raise
    if subcommand == "semilinear" and len(config.eps_list) != 1:
        raise ConfigError(f"weights.eps_list: semilinear solves for one eps, got {len(config.eps_list)}")
    return inputs


def _eval_spacetime(config, name):
    """The expression named "section.key", on every node and level, checked
    finite there; its interior (nt+1, n) values.  An expression without t
    is evaluated once, and that level serves every time level: level 0 is
    the interior (n,) value of the t-free u0 and ubar0."""
    grid = config.grid
    expr = config.exprs[name]
    meshes = grid.meshes()
    times = grid.times() if "t" in expr.variables() else [None]
    out = np.empty((len(times),) + grid.nx)
    for k, t in enumerate(times):
        env = dict(zip(("x", "y"), meshes), t=t)
        out[k] = np.broadcast_to(np.asarray(expr.evaluate(env), dtype=float), grid.nx)
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{name} evaluates to non-finite values")
    return grid.to_interior_levels(np.broadcast_to(out, (grid.nt + 1,) + grid.nx))


def build_problem_spec(config: RunConfig) -> ProblemSpec:
    grid = config.grid
    b = tuple(_eval_spacetime(config, f"coefficients.b{ax + 1}") for ax in range(grid.dim))
    return ProblemSpec(
        grid=grid,
        a=_eval_spacetime(config, "coefficients.a"),
        b=b,
        leader_mask=build_mask(grid, config.boxes["leader"]),
        follower_masks=(build_mask(grid, config.boxes["follower1"]),
                        build_mask(grid, config.boxes["follower2"])),
        target_masks=(build_mask(grid, config.boxes["target1"]),
                      build_mask(grid, config.boxes["target2"])),
        alpha=config.alpha,
        mu=config.mu,
        targets=(_eval_spacetime(config, "data.zeta1"), _eval_spacetime(config, "data.zeta2")),
        w0=_eval_spacetime(config, "data.u0")[0],
    )


def build_carleman(config: RunConfig) -> CarlemanWeights:
    try:
        return build_carleman_weights(config.grid, config.case, lam=config.lam, s=config.s,
                                      center=config.omega0_center, center2=config.omega0_center2,
                                      window=config.otilde_window)
    except OverflowError as exc:
        raise ConfigError(f"weights.lambda = {config.lam} with grid.T = {config.grid.T} overflows the Carleman "
                          "weights") from exc


"""Run configuration: INI-style sections, expression-valued fields, builders.

Format: flat sections with `key = value`; expressions are quoted strings
over the variables x (, y in 2D) and t; per-axis lists are comma separated
and boxes in 2D separate the axes with a semicolon.  Validation
(validate_for) builds a run's inputs, each once, before any solve or
output; invalid configs never produce artifacts.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .carleman import CarlemanWeights, build_carleman_weights, check_case, default_parameters
from .errors import ConfigError, EmptyMask, HierctrlError, InvalidGrid, ParseError
from .expressions import parse_expr
from .mesh import SpaceTimeField, build_grid, build_mask
from .operators import ProblemSpec
from .semilinear import Nonlinearity, from_expression, preset_grad_tanh, preset_tanh, preset_zero

BOXES = ("leader", "follower1", "follower2", "target1", "target2")

SOLVER_DEFAULTS = {
    "nash_tol": 1e-12,
    "nash_max_iter": 200,
    "coupled_tol": 1e-12,
    "cg_tol": 1e-9,
    "cg_max_iter": 300,
    "outer_tol": 1e-8,
    "max_outer": 30,
    "damping": 1.0,
    "seed": 0,
    "n_samples": 50,
    "n_directions": 20,
}


def _strip_quotes(text):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def _float(text, name):
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {text!r} as a number") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{name}: {text!r} is not a finite number")
    return value


def _floats(text, name):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {text!r} as numbers") from exc


def _box(text, dim, name):
    axes = [part for part in text.split(";")]
    if len(axes) != dim:
        raise ConfigError(f"{name}: need {dim} axis intervals, got {len(axes)}")
    box = []
    for part in axes:
        vals = _floats(part, name)
        if len(vals) != 2 or vals[0] >= vals[1]:
            raise ConfigError(f"{name}: interval must be 'lo, hi' with lo < hi, got {part!r}")
        box.append((vals[0], vals[1]))
    return tuple(box)


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
    omega0_center2: tuple = None
    otilde_window: tuple = None
    nonlinearity_kind: str = "zero"
    nonlinearity_params: dict = field(default_factory=dict)

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
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    sections = {name: dict(parser.items(name)) for name in parser.sections()}

    g = sections.get("grid")
    if not g:
        raise ConfigError("missing [grid] section")
    try:
        dim = int(g.get("dim", "1"))
        lengths = _floats(g.get("lengths", "1.0"), "grid.lengths")
        nxs = tuple(int(v) for v in g.get("nx", "16").split(","))
        grid = build_grid(dim, lengths if len(lengths) > 1 else lengths[0],
                          nxs if len(nxs) > 1 else nxs[0],
                          float(g.get("T", "1.0")), int(g.get("nt", "16")))
    except InvalidGrid:
        raise
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}") from exc

    space_vars = {"x", "y"} if dim == 2 else {"x"}
    st_vars = space_vars | {"t"}

    exprs = {}
    coeff = sections.get("coefficients", {})
    exprs["a"] = _parse_expression(coeff.get("a", "0"), "coefficients.a", st_vars)
    for ax in range(dim):
        key = f"b{ax + 1}"
        exprs[key] = _parse_expression(coeff.get(key, "0"), f"coefficients.{key}", st_vars)

    data = sections.get("data", {})
    exprs["u0"] = _parse_expression(data.get("u0", "0"), "data.u0", space_vars)
    exprs["ubar0"] = _parse_expression(data.get("ubar0", "0"), "data.ubar0", space_vars)
    exprs["zeta1"] = _parse_expression(data.get("zeta1", "0"), "data.zeta1", st_vars)
    exprs["zeta2"] = _parse_expression(data.get("zeta2", "0"), "data.zeta2", st_vars)
    exprs["f"] = _parse_expression(data.get("f", "0"), "data.f", st_vars)

    geom = sections.get("geometry", {})
    boxes = {}
    for key in BOXES:
        if key in geom:
            boxes[key] = _box(geom[key], dim, f"geometry.{key}")
    case = geom.get("case", "shared").strip()
    if case not in ("shared", "distinct"):
        raise ConfigError(f"geometry.case must be shared or distinct, got {case!r}")

    def center_of(key, default=None):
        if key not in geom:
            return default
        vals = _floats(geom[key], f"geometry.{key}")
        if len(vals) != dim:
            raise ConfigError(f"geometry.{key}: need {dim} coordinates")
        return vals

    omega0 = center_of("omega0_center", tuple(L / 2.0 for L in grid.lengths))
    omega0_2 = center_of("omega0_center2")
    window = None
    if "otilde_window" in geom:
        window = _box(geom["otilde_window"], dim, "geometry.otilde_window")

    w = sections.get("weights", {})
    try:
        alpha = (float(w.get("alpha1", "1e-3")), float(w.get("alpha2", "1e-3")))
        mu = (float(w.get("mu1", "1.0")), float(w.get("mu2", "1.0")))
    except ValueError as exc:
        raise ConfigError(f"[weights]: {exc}") from exc
    if not np.all(np.isfinite(alpha + mu)):
        raise ConfigError("weights alpha and mu must be finite")
    if min(mu) <= 0:
        raise ConfigError("control weights mu must be positive")
    if min(alpha) < 0:
        raise ConfigError("observation weights alpha must be nonnegative")
    lam_default, s_default = default_parameters(grid.T)
    lam_text = w.get("lambda", "auto").strip()
    s_text = w.get("s", "auto").strip()
    lam = lam_default if lam_text == "auto" else _float(lam_text, "weights.lambda")
    s = s_default if s_text == "auto" else _float(s_text, "weights.s")
    eps_list = _floats(w.get("eps_list", "1e-1, 1e-2, 1e-3, 1e-4, 1e-5"), "weights.eps_list")
    if not all(np.isfinite(e) and e > 0 for e in eps_list):
        raise ConfigError("eps_list entries must be finite and positive")

    solver = dict(SOLVER_DEFAULTS)
    for key, value in sections.get("solver", {}).items():
        if key not in SOLVER_DEFAULTS:
            raise ConfigError(f"unknown solver option {key!r}")
        try:
            solver[key] = type(SOLVER_DEFAULTS[key])(value)
        except ValueError as exc:
            raise ConfigError(f"solver.{key}: {exc}") from exc
    for key in ("nash_max_iter", "cg_max_iter", "max_outer", "n_samples"):
        if solver[key] < 1:
            raise ConfigError(f"solver.{key} must be at least 1")
    if solver["n_directions"] < 0:
        raise ConfigError("solver.n_directions must be nonnegative")
    for key in ("nash_tol", "coupled_tol", "cg_tol", "outer_tol"):
        if not (np.isfinite(solver[key]) and solver[key] > 0):
            raise ConfigError(f"solver.{key} must be finite and positive")
    if not 0.0 < solver["damping"] <= 1.0:
        raise ConfigError("solver.damping must lie in (0, 1]")

    nl = sections.get("nonlinearity", {})
    kind = nl.get("preset", "zero").strip()
    params = {}
    if kind in ("tanh",):
        params["c"] = _float(nl.get("c", "0.5"), "nonlinearity.c")
    elif kind == "grad-tanh":
        params["c"] = _float(nl.get("c", "0.5"), "nonlinearity.c")
        params["c2"] = _float(nl.get("c2", "0.0"), "nonlinearity.c2")
    elif kind == "expr":
        if "expr" not in nl:
            raise ConfigError("nonlinearity preset expr needs an expr entry")
        allowed = {"u"} | {f"p{i + 1}" for i in range(dim)}
        _parse_expression(nl["expr"], "nonlinearity.expr", allowed)
        params["expr"] = _strip_quotes(nl["expr"])
        params["bound"] = _float(nl.get("bound", "1.0"), "nonlinearity.bound")
    elif kind != "zero":
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
        seed=int(solver["seed"]),
        omega0_center=omega0,
        omega0_center2=omega0_2,
        otilde_window=window,
        nonlinearity_kind=kind,
        nonlinearity_params=params,
    )


# What validate_for checks and builds for each subcommand:
#   spec          every box is required; a ProblemSpec is built whenever all are given
#   control       the hypotheses of a computed leader: each target region meets the
#                 leader region, and the geometry fits the shared or distinct case
#   f             the given leader field
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
    f: SpaceTimeField = None
    nonlinearity: Nonlinearity = None
    weights: CarlemanWeights = None
    ubar0: np.ndarray = None


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
    if "hessian" in needs and config.nonlinearity_kind == "expr":
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
        inputs.f = build_leader_field(config)
    if "ubar0" in needs:
        inputs.ubar0 = _eval_spatial(config, "ubar0")
    if "nonlinearity" in needs:
        inputs.nonlinearity = build_nonlinearity(config)
    if "weights" in needs or "theta" in needs:
        try:
            inputs.weights = build_carleman(config)
        except HierctrlError:
            if "weights" in needs:
                raise
    return inputs


def _eval_spatial(config, name):
    grid = config.grid
    meshes = grid.meshes()
    env = {"x": meshes[0]}
    if grid.dim == 2:
        env["y"] = meshes[1]
    vals = np.broadcast_to(np.asarray(config.exprs[name].evaluate(env), dtype=float), grid.nx).copy()
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"data.{name} evaluates to non-finite values")
    return vals


def _eval_spacetime(config, name):
    grid = config.grid
    meshes = grid.meshes()
    out = np.empty((grid.nt + 1,) + grid.nx)
    for k, t in enumerate(grid.times()):
        env = {"x": meshes[0], "t": t}
        if grid.dim == 2:
            env["y"] = meshes[1]
        out[k] = np.broadcast_to(np.asarray(config.exprs[name].evaluate(env), dtype=float), grid.nx)
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{name} evaluates to non-finite values")
    return SpaceTimeField(grid, out)


def build_problem_spec(config: RunConfig) -> ProblemSpec:
    grid = config.grid
    b = tuple(_eval_spacetime(config, f"b{ax + 1}") for ax in range(grid.dim))
    return ProblemSpec(
        grid=grid,
        a=_eval_spacetime(config, "a"),
        b=b,
        leader_mask=build_mask(grid, config.boxes["leader"]),
        follower_masks=(build_mask(grid, config.boxes["follower1"]),
                        build_mask(grid, config.boxes["follower2"])),
        target_masks=(build_mask(grid, config.boxes["target1"]),
                      build_mask(grid, config.boxes["target2"])),
        alpha=config.alpha,
        mu=config.mu,
        targets=(_eval_spacetime(config, "zeta1"), _eval_spacetime(config, "zeta2")),
        w0=_eval_spatial(config, "u0"),
    )


def build_leader_field(config: RunConfig) -> SpaceTimeField:
    return _eval_spacetime(config, "f")


def build_carleman(config: RunConfig) -> CarlemanWeights:
    try:
        return build_carleman_weights(config.grid, config.case, lam=config.lam, s=config.s,
                                      center=config.omega0_center, center2=config.omega0_center2,
                                      window=config.otilde_window)
    except OverflowError as exc:
        raise ConfigError(f"weights.lambda = {config.lam} overflows the Carleman weights") from exc


def build_nonlinearity(config: RunConfig) -> Nonlinearity:
    kind = config.nonlinearity_kind
    if kind == "zero":
        return preset_zero()
    if kind == "tanh":
        return preset_tanh(config.nonlinearity_params["c"])
    if kind == "grad-tanh":
        return preset_grad_tanh(config.nonlinearity_params["c"], config.nonlinearity_params["c2"])
    return from_expression(config.nonlinearity_params["expr"],
                           config.nonlinearity_params["bound"], dim=config.grid.dim)

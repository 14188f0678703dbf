"""Experiment runner: subcommands for each pipeline, deterministic outputs.

Every run writes a manifest (normalized config + versions + seed), CSV
files with pinned headers, a summary of key = value lines, and plain-text
field dumps.  Outputs are byte-deterministic given the config and seed;
validation happens before any file is created.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .carleman import carleman_ratio_report, check_weight_properties, estimate_observability, eta_gradient_scan
from .config import load_config, validate_for
from .errors import HierctrlError
from .hum import control_to_trajectory, dense_oracle, minimize_G, solve_coupled_adjoint
from .mesh import check_field
from .nash import cost_followers, cost_leader, q_norm, solve_nash_fixed_point, verify_first_order, _raw_residuals
from .semilinear import semilinear_null_control, solve_quasi_equilibrium, verify_equilibrium_sufficiency


def fmt(x):
    """17 significant digits, enough to round-trip doubles."""
    return f"{float(x):.17g}"


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (int, str)) else fmt(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n")


def dump_field(path, grid, arr):
    """Write an interior (nt+1, n) array on every node, one line per time level."""
    values = check_field(grid, grid.from_interior_levels(arr))
    ny = grid.nx[1] if grid.dim == 2 else 1
    rows = values.reshape(grid.nt + 1, -1)
    row_format = " ".join(["%.17g"] * rows.shape[1])  # as fmt, one format per row
    lines = [f"# {grid.nx[0]} {ny} {grid.nt}"]
    lines.extend(row_format % tuple(row) for row in rows.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary(path, items):
    lines = [f"{key} = {value}" for key, value in items]
    Path(path).write_text("\n".join(lines) + "\n")


def write_manifest(out, subcommand, config):
    manifest = {
        "subcommand": subcommand,
        "seed": config.seed,
        "versions": {
            "hierctrl": __version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "config": config.normalized(),
    }
    Path(out, "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _run_nash(inputs, out):
    spec, f, solver = inputs.spec, inputs.f, inputs.config.solver
    rows = []

    def on_sweep(it, W, vs, change):
        r1, r2 = _raw_residuals(spec, W, vs)
        rows.append((it, change, r1, r2))

    sol = solve_nash_fixed_point(
        spec, f, tol_rel=solver["nash_tol"], max_iter=solver["nash_max_iter"],
        damping=solver["damping"], on_sweep=on_sweep)
    write_csv(Path(out, "nash_history.csv"), ("iter", "change_norm", "residual_1", "residual_2"), rows)
    for name, arr in (("w", sol.w), ("v1", sol.controls[0]), ("v2", sol.controls[1])):
        dump_field(Path(out, f"{name}.field.txt"), spec.grid, arr)
    j1, j2 = cost_followers(spec, sol.w, sol.controls)
    residuals = verify_first_order(spec, sol)
    write_summary(Path(out, "summary.txt"), [
        ("iterations", sol.iterations),
        ("contraction_estimate", fmt(sol.contraction_estimate)),
        ("w_norm", fmt(q_norm(spec.grid, sol.w))),
        ("v1_norm", fmt(q_norm(spec.grid, sol.controls[0]))),
        ("v2_norm", fmt(q_norm(spec.grid, sol.controls[1]))),
        ("residual_1", fmt(residuals[0])),
        ("residual_2", fmt(residuals[1])),
        ("J1", fmt(j1)),
        ("J2", fmt(j2)),
        ("J_leader", fmt(cost_leader(spec, f))),
    ])
    return 0


def _write_sweep(out, spec, hums):
    """One sweep.csv row per eps and the CG residuals of every eps; returns the terminal norms."""
    chi = np.sqrt(spec.leader_mask.interior_vector())
    rows = []
    history = []
    for res in hums:
        f_norm = q_norm(spec.grid, res.f * chi)
        rows.append((res.eps, res.terminal_norm, res.cg_iterations, f_norm, 0.5 * f_norm**2))
        history.extend((res.eps, k, r) for k, r in enumerate(res.cg_residuals))
    write_csv(Path(out, "sweep.csv"), ("eps", "terminal_norm", "cg_iters", "f_norm", "J_leader"), rows)
    write_csv(Path(out, "cg_history.csv"), ("eps", "iter", "residual"), history)
    return [res.terminal_norm for res in hums]


def _run_null_control(inputs, out):
    spec, config = inputs.spec, inputs.config
    results = minimize_G(spec, config.eps_list, cg_tol=config.solver["cg_tol"],
                         max_iter=config.solver["cg_max_iter"])
    tns = _write_sweep(out, spec, results)
    last = results[-1]
    dump_field(Path(out, "f.field.txt"), spec.grid, last.f)
    dump_field(Path(out, "w.field.txt"), spec.grid, last.w)
    write_summary(Path(out, "summary.txt"), [
        ("eps_count", len(tns)),
        ("terminal_first", fmt(tns[0])),
        ("terminal_last", fmt(tns[-1])),
        ("strictly_decreasing", all(tns[i] > tns[i + 1] for i in range(len(tns) - 1))),
        ("drop_factor", fmt(tns[0] / tns[-1] if tns[-1] > 0 else float("inf"))),
    ])
    return 0


def _run_trajectory(inputs, out):
    spec, config = inputs.spec, inputs.config
    results = control_to_trajectory(spec, spec.w0, inputs.ubar0, spec.targets, config.eps_list,
                                    cg_tol=config.solver["cg_tol"],
                                    max_iter=config.solver["cg_max_iter"])
    # the terminal mismatch is the w-problem terminal norm, bitwise
    mms = _write_sweep(out, spec, [r.hum for r in results])
    last = results[-1]
    dump_field(Path(out, "u.field.txt"), spec.grid, last.u)
    dump_field(Path(out, "ubar.field.txt"), spec.grid, last.ubar)
    write_summary(Path(out, "summary.txt"), [
        ("mismatch_first", fmt(mms[0])),
        ("mismatch_last", fmt(mms[-1])),
        ("strictly_decreasing", all(mms[i] > mms[i + 1] for i in range(len(mms) - 1))),
    ])
    return 0


def _run_semilinear(inputs, out):
    spec, nonlin, solver = inputs.spec, inputs.nonlinearity, inputs.config.solver
    # the weights are a diagnostic here; without them the target check is left out
    log_theta = inputs.weights.log_theta if inputs.weights is not None else None
    eps, = inputs.config.eps_list
    res = semilinear_null_control(
        spec, nonlin, inputs.ubar0, eps,
        outer_tol=solver["outer_tol"], max_outer=solver["max_outer"],
        cg_tol=solver["cg_tol"], cg_max_iter=solver["cg_max_iter"], log_theta=log_theta)
    write_csv(Path(out, "outer_history.csv"), ("iter", "change_norm"),
              list(enumerate(res.history, start=1)))
    write_csv(Path(out, "cg_history.csv"), ("outer", "iter", "residual"),
              [(outer, k, r) for outer, residuals in enumerate(res.cg_residuals, start=1)
               for k, r in enumerate(residuals)])
    for name, arr in (("u", res.u), ("ubar", res.ubar), ("f", res.f)):
        dump_field(Path(out, f"{name}.field.txt"), spec.grid, arr)
    items = [
        ("eps", fmt(eps)),
        ("outer_iterations", res.outer_iterations),
        ("cg_iterations", res.cg_iterations),
        ("terminal_mismatch", fmt(res.terminal_mismatch)),
        ("nonlinearity", nonlin.name),
        ("bound_M", fmt(nonlin.bound)),
    ]
    if res.target_check is not None:
        for i, (value, flagged) in enumerate(res.target_check, start=1):
            items.append((f"target_condition_{i}", fmt(value)))
            items.append((f"target_condition_{i}_infinite", flagged))
    write_summary(Path(out, "summary.txt"), items)
    return 0


def _run_second_order(inputs, out):
    spec, nonlin, config = inputs.spec, inputs.nonlinearity, inputs.config
    qe = solve_quasi_equilibrium(spec, nonlin, inputs.f, tol=config.solver["nash_tol"],
                                 inner_tol=config.solver["nash_tol"])
    report = verify_equilibrium_sufficiency(spec, nonlin, qe,
                                            n_directions=config.solver["n_directions"],
                                            seed=config.seed)
    rows = []
    for i, forms in enumerate(report.forms, start=1):
        for k, val in enumerate(forms):
            rows.append((i, k, val))
    write_csv(Path(out, "second_order.csv"), ("follower", "sample", "form"), rows)
    items = [
        ("n_directions", report.n_directions),
        ("min_form_1", fmt(report.min_form[0])),
        ("min_form_2", fmt(report.min_form[1])),
        ("c_hat_1", fmt(report.c_hat[0])),
        ("c_hat_2", fmt(report.c_hat[1])),
        ("all_positive", report.all_positive),
        ("sufficiency_verified", report.all_positive),
        ("dimension_in_analysis_range", report.dimension_in_analysis_range),
    ]
    for name, values in (("lambda_min", report.lambda_min), ("lambda_max", report.lambda_max),
                         ("c_hat_sharp", report.c_hat_sharp)):
        items += [(f"{name}_{i}", fmt(v)) for i, v in enumerate(values, start=1)]
    write_summary(Path(out, "summary.txt"), items)
    return 0


def _run_observability(inputs, out):
    config = inputs.config
    report = estimate_observability(inputs.spec, inputs.weights, n_samples=config.solver["n_samples"],
                                    seed=config.seed, tol_rel=config.solver["coupled_tol"])
    rows = [(k, r, d) for k, (r, d) in enumerate(zip(report.ratios, report.denominators))]
    write_csv(Path(out, "observability.csv"), ("sample", "ratio", "denominator"), rows)
    write_summary(Path(out, "summary.txt"), [
        ("samples", len(report.ratios)),
        ("resampled", report.resampled),
        ("max_ratio", fmt(report.max_ratio)),
        ("all_finite", report.all_finite),
        ("all_denominators_positive", report.all_denominators_positive),
        ("case", report.case),
    ])
    return 0


def _run_carleman(inputs, out):
    weights, config = inputs.weights, inputs.config
    props = check_weight_properties(weights, n_samples=100, seed=config.seed)
    report = carleman_ratio_report(weights, n_samples=config.solver["n_samples"], seed=config.seed)
    rows = [(k, rec["lhs"], rec["rhs"], rec["ratio"]) for k, rec in enumerate(report.samples)]
    write_csv(Path(out, "carleman_ratio.csv"), ("sample", "lhs", "rhs", "ratio"), rows)
    notes = list(props.notes)
    if report.skipped and not report.samples:
        notes.append("every ratio sample was skipped: a weighted energy under- or overflows a double")
    write_summary(Path(out, "summary.txt"), [
        ("lambda", fmt(weights.lam)),
        ("s", fmt(weights.s)),
        ("identity_max_rel", fmt(props.identity_max_rel)),
        ("identity_ok", props.identity_ok),
        ("xi_inv_ok", props.xi_inv_ok),
        ("time_bound_strict_ok", props.time_bound_strict_ok),
        ("time_bound_relaxed_ok", props.time_bound_relaxed_ok),
        ("min_grad_eta_outside_omega0", fmt(eta_gradient_scan(weights, 0.1 * min(config.grid.lengths)))),
        ("ratio_samples", len(report.samples)),
        ("ratio_skipped", report.skipped),
        ("ratio_max", fmt(report.max_ratio)),
        ("ratio_median", fmt(report.median_ratio)),
    ] + [("note", n) for n in notes])
    return 0


def _run_oracle(inputs, out):
    spec, f, config = inputs.spec, inputs.f, inputs.config
    fixed = solve_nash_fixed_point(spec, f, tol_rel=config.solver["nash_tol"])
    rng = np.random.default_rng(config.seed)
    psi0 = rng.standard_normal(spec.grid.n_interior)
    oracle, dn = dense_oracle(spec, f, psi0)
    scale = max(q_norm(spec.grid, oracle.w), 1e-300)
    nash_rel = q_norm(spec.grid, fixed.w - oracle.w) / scale
    it = solve_coupled_adjoint(spec, psi0, tol_rel=config.solver["coupled_tol"])
    scale = max(q_norm(spec.grid, dn.psi), 1e-300)
    adj_rel = q_norm(spec.grid, it.psi - dn.psi) / scale
    nash_res = verify_first_order(spec, fixed)
    oracle_res = verify_first_order(spec, oracle)
    write_summary(Path(out, "summary.txt"), [
        ("nash_vs_oracle_rel", fmt(nash_rel)),
        ("coupled_adjoint_vs_oracle_rel", fmt(adj_rel)),
        ("nash_residual_1", fmt(nash_res[0])),
        ("nash_residual_2", fmt(nash_res[1])),
        ("oracle_residual_1", fmt(oracle_res[0])),
        ("oracle_residual_2", fmt(oracle_res[1])),
    ])
    return 0


RUNNERS = {
    "nash": _run_nash,
    "null-control": _run_null_control,
    "trajectory": _run_trajectory,
    "semilinear": _run_semilinear,
    "second-order": _run_second_order,
    "observability": _run_observability,
    "carleman": _run_carleman,
    "oracle": _run_oracle,
}
SUBCOMMANDS = tuple(RUNNERS)


def _error_details(exc):
    """The iteration count an error carries, its contraction ratio when
    finite and, when a multi-shift CG ran out of iterations, which eps
    converged (with their iterations) and which missed."""
    details = {}
    if getattr(exc, "iterations", None) is not None:
        details["iterations"] = exc.iterations
    if getattr(exc, "ratio", None) is not None and math.isfinite(exc.ratio):
        details["ratio"] = exc.ratio
    if getattr(exc, "shifts", None) is not None:
        pairs = list(zip(exc.shifts, exc.shift_iterations))
        details["converged_eps"] = [{"eps": e, "iterations": k} for e, k in pairs if k is not None]
        details["missed_eps"] = [e for e, k in pairs if k is None]
    return details


def run(subcommand, config_path, out_dir, seed=None):
    """Validate, then compute and write artifacts.  Returns the exit code."""
    try:
        config = load_config(config_path)
        if seed is not None:
            config.seed = int(seed)
            config.sections.setdefault("solver", {})["seed"] = str(int(seed))
        inputs = validate_for(config, subcommand)
    except HierctrlError as exc:
        record = {"error": type(exc).__name__, "message": str(exc), "stage": "validation"}
        print(json.dumps(record), file=sys.stderr)
        return 2
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        write_manifest(out, subcommand, config)
        return RUNNERS[subcommand](inputs, out)
    except HierctrlError as exc:
        record = {"error": type(exc).__name__, "message": str(exc), "stage": "solve", **_error_details(exc)}
        print(json.dumps(record), file=sys.stderr)
        Path(out, "error.json").write_text(json.dumps(record, indent=2) + "\n")
        return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hierctrl",
        description="Leader-follower control experiments for clamped fourth-order parabolic equations",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the INI config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())

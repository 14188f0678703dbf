import dataclasses
import itertools
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hierctrl import cli, operators, semilinear
from hierctrl.config import load_config, validate_for
from hierctrl.errors import ContractionFailure, MaxIterations, OuterDivergence, UnsupportedNonlinearity
from hierctrl.hum import RITZ_DIRECTIONS, control_to_trajectory
from hierctrl.nash import q_norm, solve_nash_fixed_point
from hierctrl.semilinear import (eval_secant_coeffs, form_extremes, from_expression, preset_grad_tanh,
                                 preset_tanh, preset_zero, second_order_form, semilinear_null_control,
                                 solve_free_trajectory, solve_quasi_equilibrium,
                                 verify_equilibrium_sufficiency)

from conftest import leader_bump, make_hum_spec, make_nash_spec
from oracles import form_matrix, quasi_equilibrium_residual, sample_bound, solve_forward, to_interior

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def spec():
    return make_nash_spec()


@pytest.fixture(scope="module")
def leader(spec):
    return leader_bump(spec.grid)


@pytest.fixture(scope="module")
def tanh_equilibrium(spec, leader):
    return solve_quasi_equilibrium(spec, preset_tanh(0.5), leader, tol=1e-11)


def _unit_direction(spec, rng, i):
    g = spec.grid
    d = rng.standard_normal((g.nt + 1, g.n_interior)) * spec.follower_masks[i].interior_vector()
    d[0] = 0.0
    d /= q_norm(g, d)
    return d


def test_secant_constant_for_linear_F(spec):
    """F = c u gives constant first coefficient and zero gradient slot."""
    c = 0.7
    nl = from_expression(f"{c}*u", bound=c, dim=1)
    g = spec.grid
    rng = np.random.default_rng(0)
    z = rng.standard_normal((g.nt + 1, g.n_interior))
    g1, g2 = eval_secant_coeffs(g, nl, None, z)
    assert np.abs(g1 - c).max() <= 1e-9
    assert np.abs(g2[0]).max() <= 1e-9


def test_secant_zero_argument_gives_pointwise_derivatives(spec):
    nl = preset_tanh(1.0)
    g = spec.grid
    z = np.zeros((g.nt + 1, g.n_interior))
    g1, g2 = eval_secant_coeffs(g, nl, None, z)
    assert np.abs(g1 - 1.0).max() <= 1e-14  # F_u(0,0) = sech^2(0) = 1
    assert np.abs(g2[0]).max() == 0.0


def test_secant_tanh_unit_argument(spec):
    nl = preset_tanh(1.0)
    g = spec.grid
    ones = np.ones((g.nt + 1, g.n_interior))
    g1, _ = eval_secant_coeffs(g, nl, None, ones)
    interior = g1
    assert np.abs(interior - math.tanh(1.0)).max() <= 1e-10


def test_quasi_equilibrium_reduces_to_linear(spec, leader):
    lin = solve_nash_fixed_point(spec, leader, tol_rel=1e-12)
    qe = solve_quasi_equilibrium(spec, preset_zero(), leader, tol=1e-10)
    g = spec.grid
    rel = q_norm(g, qe.w - lin.w) / max(q_norm(g, lin.w), 1e-300)
    assert rel <= 1e-10
    for a, b in zip(qe.controls, lin.controls):
        assert np.abs(a - b).max() <= 1e-12


def test_quasi_equilibrium_zero_data():
    spec = make_nash_spec(with_targets=False).with_(w0=np.zeros((10,)))
    qe = solve_quasi_equilibrium(spec, preset_tanh(0.5), None, tol=1e-10)
    assert np.all(qe.w == 0.0)
    assert all(np.all(v == 0.0) for v in qe.controls)


def _tripling_states(spec):
    """Iterates 3^k * profile: every change is three times the one before."""
    g = spec.grid
    profile = np.linspace(1.0, 2.0, g.n_interior)
    powers = itertools.count(1)
    return lambda: np.tile(3.0 ** next(powers) * profile, (g.nt + 1, 1))


def test_quasi_equilibrium_divergence_detected(spec, leader, monkeypatch):
    states = _tripling_states(spec)
    monkeypatch.setattr(semilinear, "solve_nash_fixed_point",
                        lambda *args, **kwargs: SimpleNamespace(w=states()))
    with pytest.raises(ContractionFailure) as err:
        solve_quasi_equilibrium(spec, preset_zero(), leader)
    assert err.value.iterations == 11  # one first change, then ten growing ones
    assert err.value.ratio == pytest.approx(3.0)


def test_outer_loop_divergence_detected(monkeypatch):
    spec = make_hum_spec()
    states = _tripling_states(spec)
    monkeypatch.setattr(semilinear, "minimize_G",
                        lambda *args, **kwargs: SimpleNamespace(w=states(), psi0=None, ritz=None, b_norm=1.0,
                                                                cg_residuals=[], cg_iterations=0))
    with pytest.raises(OuterDivergence) as err:
        semilinear_null_control(spec, preset_zero(), np.zeros(spec.grid.n_interior), eps=1e-4)
    assert err.value.iterations == 11
    assert err.value.ratio == pytest.approx(3.0)


def test_non_finite_outer_iterate_is_a_typed_divergence(monkeypatch):
    """An inf in the third outer iterate stops the loop with OuterDivergence,
    which carries the iteration count, not with an error of the data format."""
    spec = make_hum_spec()
    minimize = semilinear.minimize_G
    hums = []

    def poisoned(*args, **kwargs):
        hums.append(minimize(*args, **kwargs))
        if len(hums) == 3:
            hums[-1].w[-1, 0] = np.inf
        return hums[-1]

    monkeypatch.setattr(semilinear, "minimize_G", poisoned)
    with pytest.raises(OuterDivergence, match="non-finite values at sweep 3") as err:
        semilinear_null_control(spec, preset_tanh(0.5), np.zeros(spec.grid.n_interior), eps=1e-4,
                                outer_tol=1e-9, cg_tol=1e-9)
    assert err.value.iterations == 3 and len(hums) == 3


def _shipped_semilinear_at(c, tmp_path):
    """Exit code and summary.txt ({} for a failed run) of the shipped
    semilinear config with F = c tanh(u)."""
    text = (CONFIGS / "semilinear_1d.ini").read_text()
    assert "\nc = 0.5\n" in text
    config = tmp_path / f"c{c}.ini"
    config.write_text(text.replace("\nc = 0.5\n", f"\nc = {c}\n"))
    out = tmp_path / "out"
    code = cli.run("semilinear", str(config), str(out))
    if code != 0:
        return code, {}
    return code, dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines())


def test_shipped_semilinear_converges_at_c_5(tmp_path):
    """The shipped semilinear config with F = 5 tanh(u) converges and exits 0;
    a cold-started outer loop did so in 8 outer iterations, one that warm
    starts at a fixed HUM tolerance stalled until MaxIterations."""
    code, _ = _shipped_semilinear_at(5, tmp_path)
    assert code == 0


@pytest.mark.parametrize("c, most_outer", [(3, 10), (4, 9)])
def test_shipped_semilinear_outer_count_at_larger_c(c, most_outer, tmp_path):
    """With forcing terms the outer loop keeps a cold-started loop's outer
    counts at c = 3 and 4 (10 and 9)."""
    code, summary = _shipped_semilinear_at(c, tmp_path)
    assert code == 0
    assert int(summary["outer_iterations"]) <= most_outer


def test_shipped_semilinear_forcing_keeps_outer_count(tmp_path):
    """The shipped run keeps its 6 outer iterations and takes at most 25 CG
    iterations in all, its later HUM solves stopping at the forcing term."""
    code, summary = _shipped_semilinear_at(0.5, tmp_path)
    assert code == 0
    assert int(summary["outer_iterations"]) == 6
    assert int(summary["cg_iterations"]) <= 25


def test_shipped_semilinear_warm_start_halves_cg(tmp_path, monkeypatch):
    """Each outer iteration after the first starts its HUM solve from the
    previous result: on the shipped config the outer loop keeps its 6
    iterations and takes at most half the CG iterations of cold starts at
    the same tolerances."""
    def summary(out):
        assert cli.run("semilinear", str(CONFIGS / "semilinear_1d.ini"), str(out)) == 0
        return dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines())

    warm = summary(tmp_path / "warm")
    minimize = semilinear.minimize_G
    monkeypatch.setattr(semilinear, "minimize_G", lambda *args, start=None, **kw: minimize(*args, **kw))
    cold = summary(tmp_path / "cold")
    assert int(warm["outer_iterations"]) == int(cold["outer_iterations"]) == 6
    assert 2 * int(warm["cg_iterations"]) <= int(cold["cg_iterations"])
    assert float(warm["terminal_mismatch"]) == pytest.approx(float(cold["terminal_mismatch"]), rel=1e-6)


def test_shipped_semilinear_recycles_ritz_pairs(tmp_path):
    """From the second outer iteration on, each HUM solve is preconditioned
    by the Ritz pairs of the cold first one: the shipped run keeps its 6
    outer iterations, takes at most 35 CG iterations in all (53 with plain
    warm-started CG) and at most 6 in any solve after the first."""
    out = tmp_path / "out"
    assert cli.run("semilinear", str(CONFIGS / "semilinear_1d.ini"), str(out)) == 0
    summary = dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines())
    assert int(summary["outer_iterations"]) == 6
    assert int(summary["cg_iterations"]) <= 35
    per_outer = {}
    for row in (out / "cg_history.csv").read_text().splitlines()[1:]:
        outer, it, _ = row.split(",")
        per_outer[int(outer)] = max(per_outer.get(int(outer), 0), int(it))
    assert sorted(per_outer) == list(range(1, 7))
    assert sum(per_outer.values()) == int(summary["cg_iterations"])
    assert max(per_outer[k] for k in range(2, 7)) <= 6


def test_shipped_semilinear_cold_solve_count(tmp_path, monkeypatch):
    """The first, cold HUM solve of the shipped run takes at most 13 CG
    iterations (19 with textbook CG), still enough directions for the Ritz
    pairs the later solves are preconditioned by."""
    solves = []
    original = semilinear.minimize_G

    def recorded(*args, **kwargs):
        solves.append(original(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(semilinear, "minimize_G", recorded)
    assert cli.run("semilinear", str(CONFIGS / "semilinear_1d.ini"), str(tmp_path / "out")) == 0
    assert RITZ_DIRECTIONS <= solves[0].cg_iterations <= 13
    assert len(solves[0].ritz.values) > 0
    assert all(later.ritz is solves[0].ritz for later in solves[1:])


@pytest.mark.parametrize("job", [4, 46])
def test_reference_jobs_nearest_the_bound_still_pass(job, tmp_path, monkeypatch):
    """The seed-1 semilinear_1d benchmark jobs closest to the recorded
    reference's 1e-6 bound, run in-process and checked as the benchmark
    checks them, so a move of the reference values fails here too."""
    perfbench = CONFIGS.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import checks
    import workloads

    reference = json.loads((perfbench / "reference.json").read_text())
    workload = workloads.WORKLOADS["semilinear_1d"]
    ini = workloads.write_jobs(workload, reference["seed"], job + 1, CONFIGS.parent, tmp_path / "jobs")[job]
    out = tmp_path / "out"
    code = cli.run(workload.subcommand, str(ini), str(out))
    assert checks.check_job(workload.subcommand, ini, out, code, reference["semilinear_1d"][job]) is None


def test_free_trajectory_max_iterations_carries_last_iterate(spec):
    with pytest.raises(MaxIterations) as err:
        solve_free_trajectory(spec, preset_tanh(0.5), spec.w0, max_iter=1)
    assert err.value.best.shape == (spec.grid.nt + 1, spec.grid.n_interior)
    assert err.value.iterations == 1 and len(err.value.history) == 1


def test_quasi_equilibrium_plugback(spec, leader, tanh_equilibrium):
    rs, ra = quasi_equilibrium_residual(spec, preset_tanh(0.5), leader, tanh_equilibrium)
    assert rs <= 1e-8
    assert ra <= 1e-8


def test_quasi_equilibrium_control_relation(spec, tanh_equilibrium):
    for i, (v, phi) in enumerate(zip(tanh_equilibrium.controls, tanh_equilibrium.phis)):
        chi = spec.follower_masks[i].interior_vector()
        expected = -(phi[:-1] * chi) / spec.mu[i]
        assert np.array_equal(v[1:], expected)


def test_sampled_bound_respected():
    assert sample_bound(preset_tanh(0.5), 1) <= 0.5 + 1e-12
    assert sample_bound(preset_grad_tanh(0.3, 0.2), 1) <= 0.5 + 1e-12


def test_secant_coefficients_within_bound(spec, tanh_equilibrium):
    nl = preset_tanh(0.5)
    g1, g2 = eval_secant_coeffs(spec.grid, nl, None, tanh_equilibrium.w)
    assert np.abs(g1).max() <= nl.bound + 1e-12
    assert np.abs(g2[0]).max() <= nl.bound + 1e-12


def test_free_trajectory_linear_case(spec):
    g = spec.grid
    x = g.coords(0)
    ubar0 = to_interior(g, 4.0 * (x / g.lengths[0]) ** 2 * (1 - x / g.lengths[0]) ** 2)
    u = solve_free_trajectory(spec, preset_zero(), ubar0)
    lin = solve_forward(spec, w0=ubar0)
    assert np.abs(u - lin).max() <= 1e-12


def test_free_trajectory_builds_only_the_family_it_marches(spec, monkeypatch):
    """Each Picard sweep of the free trajectory builds one step family, the
    secant one it marches forward, and no tangent adjoint family; a zero
    ubar0 with F(0,0) = 0 builds and marches nothing and returns zeros."""
    calls = {"_build": [], "march_forward": []}
    for name, seen in calls.items():
        def counted(self, *args, _original=getattr(operators.TimeStepper, name), _seen=seen, **kwargs):
            _seen.append(1)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(operators.TimeStepper, name, counted)
    solve_free_trajectory(spec, preset_tanh(0.5), spec.w0)
    assert len(calls["march_forward"]) > 2 and len(calls["_build"]) == len(calls["march_forward"])
    for seen in calls.values():
        seen.clear()
    g = spec.grid
    u = solve_free_trajectory(spec, preset_tanh(0.5), np.zeros(g.n_interior))
    assert calls == {"_build": [], "march_forward": []}
    assert u.shape == (g.nt + 1, g.n_interior) and not u.any() and not np.signbit(u).any()


def test_null_control_reduces_to_linear():
    spec = make_hum_spec()
    g = spec.grid
    z = np.zeros((g.nt + 1, g.n_interior))
    ubar0 = np.zeros(g.n_interior)
    lin = control_to_trajectory(spec, spec.w0, ubar0, (z, z), eps=1e-4, cg_tol=1e-9)
    sem = semilinear_null_control(spec, preset_zero(), ubar0, eps=1e-4, cg_tol=1e-9)
    rel = q_norm(g, sem.f - lin.hum.f) / max(q_norm(g, lin.hum.f), 1e-300)
    assert rel <= 1e-10
    assert abs(sem.terminal_mismatch - lin.hum.terminal_norm) <= 1e-10 * lin.hum.terminal_norm


def test_null_control_tanh_converges():
    spec = make_hum_spec()
    res = semilinear_null_control(spec, preset_tanh(0.5), np.zeros(spec.grid.n_interior),
                                  eps=1e-4, outer_tol=1e-9, cg_tol=1e-9, max_outer=30)
    assert res.outer_iterations <= 30
    assert np.isfinite(res.terminal_mismatch)
    assert res.terminal_mismatch > 0.0


def test_null_control_zero_data_one_outer():
    spec = make_hum_spec()
    g = spec.grid
    nl = preset_tanh(0.5)
    x = g.coords(0)
    ubar0 = to_interior(g, 2.0 * (x / g.lengths[0]) ** 2 * (1 - x / g.lengths[0]) ** 2)
    ubar = solve_free_trajectory(spec, nl, ubar0)
    same = spec.with_(w0=ubar0.copy(), targets=(ubar, ubar))
    res = semilinear_null_control(same, nl, ubar0, eps=1e-4)
    assert res.outer_iterations == 1
    assert np.all(res.f == 0.0)
    assert res.terminal_mismatch == 0.0


def _form(spec, nonlin, equilibrium, i, direction):
    """second_order_form of follower i at the equilibrium, on the companion
    map _form_companions builds for it."""
    return second_order_form(spec, i, direction, semilinear._form_companions(spec, nonlin, equilibrium)[i])


def test_second_order_linear_nonnegative(spec, leader, rng):
    qe = solve_quasi_equilibrium(spec, preset_zero(), leader, tol=1e-11)
    for i in range(2):
        d = _unit_direction(spec, rng, i)
        val = _form(spec, preset_zero(), qe, i, d)
        assert val >= 0.0
        assert val >= spec.mu[i] * (1.0 - 1e-9)  # convex case: mu + alpha-term


def test_second_order_zero_direction(spec, tanh_equilibrium):
    z = np.zeros((spec.grid.nt + 1, spec.grid.n_interior))
    assert _form(spec, preset_tanh(0.5), tanh_equilibrium, 0, z) == 0.0


def test_second_order_parallelogram(spec, tanh_equilibrium, rng):
    nl = preset_tanh(0.5)
    g = spec.grid
    d1 = _unit_direction(spec, rng, 0)
    d2 = _unit_direction(spec, rng, 0)
    dp = d1 + d2
    dm = d1 - d2
    eta = semilinear._form_companions(spec, nl, tanh_equilibrium)[0]
    lhs = second_order_form(spec, 0, dp, eta) + second_order_form(spec, 0, dm, eta)
    rhs = 2.0 * second_order_form(spec, 0, d1, eta) + 2.0 * second_order_form(spec, 0, d2, eta)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1.0)


def test_shipped_second_order_reports_sharp_constants(tmp_path):
    """On the shipped config the sampled c_hat_i is positive while the
    form's smallest eigenvalue lies just below mu_i = 1: the sharp constant
    is negative and bounds every sampled form from below.  The values are
    those of the 30x30 follower Hessians assembled independently."""
    out = tmp_path / "so"
    assert cli.run("second-order", str(CONFIGS / "second_order_1d.ini"), str(out)) == 0
    summary = dict(line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines())
    sharp, lambda_max = (-4.838e-8, -4.279e-8), (1.000087, 1.000088)
    for i in (1, 2):
        value = {key: float(summary[f"{key}_{i}"]) for key in
                 ("c_hat", "c_hat_sharp", "lambda_min", "lambda_max", "min_form")}
        assert value["c_hat_sharp"] < 0.0 < value["c_hat"]
        assert value["lambda_min"] <= value["min_form"]
        assert abs(value["c_hat_sharp"] - sharp[i - 1]) <= 1e-10
        assert abs(value["lambda_max"] - lambda_max[i - 1]) <= 1e-6


def test_form_extremes_match_the_dense_form_on_the_shipped_grid():
    """The Lanczos extremes of each follower's cross term on
    second_order_1d.ini agree with eigvalsh of the cross term assembled
    densely, one companion march per control unknown (oracles.form_matrix),
    to 1e-12."""
    inputs = validate_for(load_config(CONFIGS / "second_order_1d.ini"), "second-order")
    spec, nl, tol = inputs.spec, inputs.nonlinearity, inputs.config.solver["nash_tol"]
    qe = solve_quasi_equilibrium(spec, nl, inputs.f, tol=tol, inner_tol=tol)
    for i in range(2):
        values = np.linalg.eigvalsh(form_matrix(spec, nl, qe, i))
        low, high = form_extremes(spec, i, semilinear._form_companions(spec, nl, qe)[i])
        assert abs(low - values[0]) <= 1e-12
        assert abs(high - values[-1]) <= 1e-12


def _shipped_second_order(mu=None):
    """second_order_1d.ini's spec (with both mu_i set to mu when given), its
    nonlinearity, quasi-equilibrium and inputs."""
    inputs = validate_for(load_config(CONFIGS / "second_order_1d.ini"), "second-order")
    spec, nl, tol = inputs.spec, inputs.nonlinearity, inputs.config.solver["nash_tol"]
    if mu is not None:
        spec = spec.with_(mu=(mu, mu))
    return spec, nl, solve_quasi_equilibrium(spec, nl, inputs.f, tol=tol, inner_tol=tol), inputs


@pytest.mark.parametrize("mu", [1.0, 1e4, 1e6])
def test_sharp_constant_matches_the_dense_cross_term_at_any_mu(mu):
    """c_hat_sharp_i is the smallest eigenvalue of the cross term itself,
    not lambda_min_i - mu_i, so it keeps its digits however large mu_i is:
    it matches eigvalsh of the dense cross term (oracles.form_matrix) to
    1e-10 relative on second_order_1d.ini."""
    spec, nl, qe, _ = _shipped_second_order(mu)
    rep = verify_equilibrium_sufficiency(spec, nl, qe, n_directions=0)
    for i in range(2):
        smallest = np.linalg.eigvalsh(form_matrix(spec, nl, qe, i))[0]
        assert abs(rep.c_hat_sharp[i] - smallest) <= 1e-10 * abs(smallest)


def test_sufficiency_evaluates_second_derivatives_once(monkeypatch):
    """One verify_equilibrium_sufficiency on the shipped config evaluates
    f_uu once for both followers, all 20 directions and every Lanczos step,
    and marches twice per sampled direction and per Lanczos step: 180
    marches."""
    spec, nl, qe, inputs = _shipped_second_order()
    calls = []

    def counted(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for name in ("march_forward", "march_backward"):
        monkeypatch.setattr(operators.TimeStepper, name, counted("march", getattr(operators.TimeStepper, name)))
    counted_nl = dataclasses.replace(nl, f_uu=counted("f_uu", nl.f_uu))
    verify_equilibrium_sufficiency(spec, counted_nl, qe, n_directions=inputs.config.solver["n_directions"],
                                   seed=inputs.config.seed)
    assert calls.count("f_uu") == 1
    assert calls.count("march") == 180


def test_form_cross_term_is_symmetric_to_rounding():
    """The cross term the Lanczos process of form_extremes runs on is
    symmetric, as that process assumes: over random x, y on follower i's
    control unknowns, |<x, Cy> - <Cx, y>| <= 1e-12 ||Cx|| ||y||."""
    spec, nl, qe, _ = _shipped_second_order()
    grid = spec.grid
    rng = np.random.default_rng(7)
    for i, eta in enumerate(semilinear._form_companions(spec, nl, qe)):
        nodes = np.flatnonzero(spec.follower_masks[i].interior_vector())

        def cross(x):
            d = np.zeros((grid.nt + 1, grid.n_interior))
            d[1:, nodes] = x.reshape(grid.nt, len(nodes))
            return eta(d)[:-1, nodes].ravel()

        for _ in range(5):
            x, y = rng.standard_normal((2, grid.nt * len(nodes)))
            cx = cross(x)
            assert abs(x @ cross(y) - cx @ y) <= 1e-12 * np.linalg.norm(cx) * np.linalg.norm(y)


def test_second_order_reports_sharp_constants_on_a_fine_grid(tmp_path):
    """At nx = 80, nt = 40 each follower has 960 control unknowns, and the
    summary still carries all six sharp lines, with lambda_min_i at most
    every sampled form."""
    text = (CONFIGS / "second_order_1d.ini").read_text()
    ini = tmp_path / "fine.ini"
    ini.write_text(text.replace("nx = 12", "nx = 80").replace("nt = 10", "nt = 40"))
    out = tmp_path / "so"
    assert cli.run("second-order", str(ini), str(out)) == 0
    summary = dict(line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines())
    for i in (1, 2):
        for name in ("lambda_min", "lambda_max", "c_hat_sharp"):
            assert math.isfinite(float(summary[f"{name}_{i}"]))
        assert float(summary[f"lambda_min_{i}"]) <= float(summary[f"min_form_{i}"])


def test_second_order_rejects_expression_nonlinearity(spec, tanh_equilibrium):
    nl = from_expression("0.1*u", bound=0.1, dim=1)
    d = np.zeros((spec.grid.nt + 1, spec.grid.n_interior))
    with pytest.raises(UnsupportedNonlinearity):
        _form(spec, nl, tanh_equilibrium, 0, d)


def test_sufficiency_report(spec, tanh_equilibrium):
    rep = verify_equilibrium_sufficiency(spec, preset_tanh(0.5), tanh_equilibrium,
                                         n_directions=8, seed=4)
    assert rep.all_positive
    assert rep.n_directions == 8
    assert not rep.dimension_in_analysis_range  # 1D run flagged outside 2..20
    assert all(np.isfinite(v) for v in rep.min_form)


def test_sufficiency_builds_one_tangent_stepper(spec, tanh_equilibrium, monkeypatch):
    """Every sampled direction of both followers marches with one shared
    tangent stepper: 1 build for 2 x 5 directions, not 10."""
    builds = []
    original = operators.TimeStepper.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(operators.TimeStepper, "__init__", counted)
    rep = verify_equilibrium_sufficiency(spec, preset_tanh(0.5), tanh_equilibrium,
                                         n_directions=5, seed=4)
    assert [len(forms) for forms in rep.forms] == [5, 5]
    assert len(builds) == 1


def test_sufficiency_zero_directions(spec, tanh_equilibrium):
    rep = verify_equilibrium_sufficiency(spec, preset_tanh(0.5), tanh_equilibrium,
                                         n_directions=0, seed=4)
    assert rep.forms == ((), ())
    assert rep.all_positive


def test_sufficiency_mu_scaling(spec, leader):
    nl = preset_tanh(0.5)
    qe = solve_quasi_equilibrium(spec, nl, leader, tol=1e-11)
    rep = verify_equilibrium_sufficiency(spec, nl, qe, n_directions=5, seed=6)
    big = spec.with_(mu=(100.0, 100.0))
    qe_big = solve_quasi_equilibrium(big, nl, leader, tol=1e-11)
    rep_big = verify_equilibrium_sufficiency(big, nl, qe_big, n_directions=5, seed=6)
    assert rep_big.min_form[0] > rep.min_form[0]
    assert rep_big.min_form[1] > rep.min_form[1]


def test_expression_nonlinearity_first_order_path(spec, leader):
    nl = from_expression("0.2*tanh(u)", bound=0.2, dim=1)
    qe = solve_quasi_equilibrium(spec, nl, leader, tol=1e-9)
    ref = solve_quasi_equilibrium(spec, preset_tanh(0.2), leader, tol=1e-9)
    g = spec.grid
    rel = q_norm(g, qe.w - ref.w) / max(q_norm(g, ref.w), 1e-300)
    assert rel <= 1e-5  # finite-difference derivatives vs analytic


def test_grad_tanh_preset_runs(spec, leader):
    nl = preset_grad_tanh(0.3, 0.1)
    qe = solve_quasi_equilibrium(spec, nl, leader, tol=1e-10)
    rs, ra = quasi_equilibrium_residual(spec, nl, leader, qe)
    assert rs <= 1e-8 and ra <= 1e-8

import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hierctrl import cli, semilinear
from hierctrl.errors import ContractionFailure, MaxIterations, OuterDivergence, UnsupportedNonlinearity
from hierctrl.hum import control_to_trajectory
from hierctrl.mesh import SpaceTimeField
from hierctrl.nash import q_norm, solve_nash_fixed_point
from hierctrl.semilinear import (eval_secant_coeffs, from_expression, preset_grad_tanh,
                                 preset_tanh, preset_zero, quasi_equilibrium_residual,
                                 sample_bound, second_order_form, semilinear_null_control,
                                 solve_free_trajectory, solve_quasi_equilibrium,
                                 verify_equilibrium_sufficiency)

from conftest import leader_bump, make_hum_spec, make_nash_spec

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
    return SpaceTimeField.from_interior(g, d)


def test_secant_constant_for_linear_F(spec):
    """F = c u gives constant first coefficient and zero gradient slot."""
    c = 0.7
    nl = from_expression(f"{c}*u", bound=c, dim=1)
    g = spec.grid
    rng = np.random.default_rng(0)
    z = SpaceTimeField.from_interior(g, rng.standard_normal((g.nt + 1, g.n_interior)))
    g1, g2 = eval_secant_coeffs(nl, None, z)
    assert np.abs(g1.values - c).max() <= 1e-9
    assert np.abs(g2[0].values).max() <= 1e-9


def test_secant_zero_argument_gives_pointwise_derivatives(spec):
    nl = preset_tanh(1.0)
    g = spec.grid
    z = SpaceTimeField.zeros(g)
    g1, g2 = eval_secant_coeffs(nl, None, z)
    assert np.abs(g1.values - 1.0).max() <= 1e-14  # F_u(0,0) = sech^2(0) = 1
    assert np.abs(g2[0].values).max() == 0.0


def test_secant_tanh_unit_argument(spec):
    nl = preset_tanh(1.0)
    g = spec.grid
    ones = SpaceTimeField(g, np.ones((g.nt + 1,) + g.nx))
    g1, _ = eval_secant_coeffs(nl, None, ones)
    interior = g1.values[(slice(None),) + g.interior_slices()]
    assert np.abs(interior - math.tanh(1.0)).max() <= 1e-10


def test_quasi_equilibrium_reduces_to_linear(spec, leader):
    lin = solve_nash_fixed_point(spec, leader, tol_rel=1e-12)
    qe = solve_quasi_equilibrium(spec, preset_zero(), leader, tol=1e-10)
    g = spec.grid
    rel = q_norm(g, qe.u.interior() - lin.w.interior()) / max(q_norm(g, lin.w.interior()), 1e-300)
    assert rel <= 1e-10
    for a, b in zip(qe.controls, lin.controls):
        assert np.abs(a.values - b.values).max() <= 1e-12


def test_quasi_equilibrium_zero_data():
    spec = make_nash_spec(with_targets=False).with_(w0=np.zeros((12,)))
    qe = solve_quasi_equilibrium(spec, preset_tanh(0.5), None, tol=1e-10)
    assert np.all(qe.u.values == 0.0)
    assert np.all(qe.v1.values == 0.0) and np.all(qe.v2.values == 0.0)


def _tripling_states(spec):
    """Iterates 3^k * profile: every change is three times the one before."""
    g = spec.grid
    profile = g.from_interior(np.linspace(1.0, 2.0, g.n_interior))
    powers = itertools.count(1)
    return lambda: SpaceTimeField.from_spatial(g, 3.0 ** next(powers) * profile)


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
                        lambda *args, **kwargs: SimpleNamespace(nash=SimpleNamespace(w=states()), psi0=None))
    with pytest.raises(OuterDivergence) as err:
        semilinear_null_control(spec, preset_zero(), np.zeros(spec.grid.nx), eps=1e-4)
    assert err.value.iterations == 11
    assert err.value.ratio == pytest.approx(3.0)


def test_shipped_semilinear_warm_start_halves_cg(tmp_path, monkeypatch):
    """Each outer iteration starts its HUM solve from the previous psi0: on
    the shipped config the outer loop keeps its 6 iterations and takes at
    most half the CG iterations of cold starts."""
    def summary(out):
        assert cli.run("semilinear", str(CONFIGS / "semilinear_1d.ini"), str(out)) == 0
        return dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines())

    warm = summary(tmp_path / "warm")
    minimize = semilinear.minimize_G
    monkeypatch.setattr(semilinear, "minimize_G", lambda *args, psi0=None, **kw: minimize(*args, **kw))
    cold = summary(tmp_path / "cold")
    assert int(warm["outer_iterations"]) == int(cold["outer_iterations"]) == 6
    assert 2 * int(warm["cg_iterations"]) <= int(cold["cg_iterations"])
    assert float(warm["terminal_mismatch"]) == pytest.approx(float(cold["terminal_mismatch"]), rel=1e-6)


def test_free_trajectory_max_iterations_carries_last_iterate(spec):
    with pytest.raises(MaxIterations) as err:
        solve_free_trajectory(spec, preset_tanh(0.5), spec.w0, max_iter=1)
    assert isinstance(err.value.best, SpaceTimeField)
    assert err.value.iterations == 1 and len(err.value.history) == 1


def test_quasi_equilibrium_plugback(spec, leader, tanh_equilibrium):
    rs, ra = quasi_equilibrium_residual(spec, preset_tanh(0.5), leader, tanh_equilibrium)
    assert rs <= 1e-8
    assert ra <= 1e-8


def test_quasi_equilibrium_control_relation(spec, tanh_equilibrium):
    for i, (v, phi) in enumerate(zip(tanh_equilibrium.controls, tanh_equilibrium.phis)):
        chi = spec.follower_masks[i].interior_vector()
        expected = -(phi.interior()[:-1] * chi) / spec.mu[i]
        assert np.array_equal(v.interior()[1:], expected)


def test_sampled_bound_respected():
    assert sample_bound(preset_tanh(0.5), 1) <= 0.5 + 1e-12
    assert sample_bound(preset_grad_tanh(0.3, 0.2), 1) <= 0.5 + 1e-12


def test_secant_coefficients_within_bound(spec, tanh_equilibrium):
    nl = preset_tanh(0.5)
    g1, g2 = eval_secant_coeffs(nl, None, tanh_equilibrium.u)
    assert np.abs(g1.values).max() <= nl.bound + 1e-12
    assert np.abs(g2[0].values).max() <= nl.bound + 1e-12


def test_free_trajectory_linear_case(spec):
    g = spec.grid
    x = g.coords(0)
    ubar0 = 4.0 * (x / g.lengths[0]) ** 2 * (1 - x / g.lengths[0]) ** 2
    u = solve_free_trajectory(spec, preset_zero(), ubar0)
    from hierctrl.operators import solve_forward

    lin = solve_forward(spec, w0=ubar0)
    assert np.abs(u.values - lin.values).max() <= 1e-12


def test_null_control_reduces_to_linear():
    spec = make_hum_spec()
    g = spec.grid
    z = SpaceTimeField.zeros(g)
    ubar0 = np.zeros(g.nx)
    lin = control_to_trajectory(spec, spec.w0, ubar0, (z, z), eps=1e-4, cg_tol=1e-9)
    sem = semilinear_null_control(spec, preset_zero(), ubar0, eps=1e-4, cg_tol=1e-9)
    rel = q_norm(g, sem.f.interior() - lin.hum.f.interior()) / max(q_norm(g, lin.hum.f.interior()), 1e-300)
    assert rel <= 1e-10
    assert abs(sem.terminal_mismatch - lin.terminal_mismatch) <= 1e-10 * lin.terminal_mismatch


def test_null_control_tanh_converges():
    spec = make_hum_spec()
    res = semilinear_null_control(spec, preset_tanh(0.5), np.zeros(spec.grid.nx),
                                  eps=1e-4, outer_tol=1e-9, cg_tol=1e-9, max_outer=30)
    assert res.outer_iterations <= 30
    assert np.isfinite(res.terminal_mismatch)
    assert res.terminal_mismatch > 0.0


def test_null_control_zero_data_one_outer():
    spec = make_hum_spec()
    g = spec.grid
    nl = preset_tanh(0.5)
    x = g.coords(0)
    ubar0 = 2.0 * (x / g.lengths[0]) ** 2 * (1 - x / g.lengths[0]) ** 2
    ubar = solve_free_trajectory(spec, nl, ubar0)
    same = spec.with_(w0=ubar0.copy(), targets=(ubar, ubar))
    res = semilinear_null_control(same, nl, ubar0, eps=1e-4)
    assert res.outer_iterations == 1
    assert np.all(res.f.values == 0.0)
    assert res.terminal_mismatch == 0.0


def test_second_order_linear_nonnegative(spec, leader, rng):
    qe = solve_quasi_equilibrium(spec, preset_zero(), leader, tol=1e-11)
    for i in range(2):
        d = _unit_direction(spec, rng, i)
        val = second_order_form(spec, preset_zero(), qe, i, d)
        assert val >= 0.0
        assert val >= spec.mu[i] * (1.0 - 1e-9)  # convex case: mu + alpha-term


def test_second_order_zero_direction(spec, tanh_equilibrium):
    z = SpaceTimeField.zeros(spec.grid)
    assert second_order_form(spec, preset_tanh(0.5), tanh_equilibrium, 0, z) == 0.0


def test_second_order_parallelogram(spec, tanh_equilibrium, rng):
    nl = preset_tanh(0.5)
    g = spec.grid
    d1 = _unit_direction(spec, rng, 0)
    d2 = _unit_direction(spec, rng, 0)
    dp = SpaceTimeField(g, d1.values + d2.values)
    dm = SpaceTimeField(g, d1.values - d2.values)
    lhs = second_order_form(spec, nl, tanh_equilibrium, 0, dp) \
        + second_order_form(spec, nl, tanh_equilibrium, 0, dm)
    rhs = 2.0 * second_order_form(spec, nl, tanh_equilibrium, 0, d1) \
        + 2.0 * second_order_form(spec, nl, tanh_equilibrium, 0, d2)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1.0)


def test_second_order_rejects_expression_nonlinearity(spec, tanh_equilibrium):
    nl = from_expression("0.1*u", bound=0.1, dim=1)
    d = SpaceTimeField.zeros(spec.grid)
    with pytest.raises(UnsupportedNonlinearity):
        second_order_form(spec, nl, tanh_equilibrium, 0, d)


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
    original = semilinear.TimeStepper.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(semilinear.TimeStepper, "__init__", counted)
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
    rel = q_norm(g, qe.u.interior() - ref.u.interior()) / max(q_norm(g, ref.u.interior()), 1e-300)
    assert rel <= 1e-5  # finite-difference derivatives vs analytic


def test_grad_tanh_preset_runs(spec, leader):
    nl = preset_grad_tanh(0.3, 0.1)
    qe = solve_quasi_equilibrium(spec, nl, leader, tol=1e-10)
    rs, ra = quasi_equilibrium_residual(spec, nl, leader, qe)
    assert rs <= 1e-8 and ra <= 1e-8

import math

import numpy as np
import pytest
import scipy.sparse as sp

from hierctrl.carleman import (CarlemanWeights, EtaFunction, WeightForm, build_carleman_weights,
                               build_theta, carleman_ratio_report, check_weight_properties,
                               default_parameters, estimate_observability, eta_gradient_scan)
from hierctrl import operators
from hierctrl.errors import CaseMismatch, InvalidCenter
from hierctrl.linalg import factorize
from hierctrl.mesh import SpaceTimeField, build_grid, full_mask

from conftest import make_hum_spec


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 1.0, 24, 1.0, 24)


@pytest.fixture(scope="module")
def weights(grid):
    return build_carleman_weights(grid, "shared", lam=1.0, s=4.0, center=0.5)


def test_eta_symmetric_center_is_parabola(grid):
    x = grid.coords(0)
    eta = EtaFunction(grid, 0.5).on_nodes()
    assert np.abs(eta - x * (1 - x)).max() <= 1e-14
    fn = EtaFunction(grid, 0.5)
    assert fn.value(np.array([0.5]))[0] == pytest.approx(0.25, abs=1e-15)


def test_eta_boundary_zeros_exact(grid):
    for center in (0.3, 0.5, 0.72):
        eta = EtaFunction(grid, center).on_nodes()
        assert eta[0] == 0.0 and eta[-1] == 0.0
        assert np.all(eta[1:-1] > 0.0)


def test_eta_gradient_positive_away_from_center(grid):
    fn = EtaFunction(grid, 0.3)
    xs = np.linspace(1e-3, 1.0 - 1e-3, 5000)
    der = fn.gradient(xs)[0]
    away = np.abs(xs - 0.3) > 0.1
    assert np.min(np.abs(der[away])) > 0.0
    # reparameterization stays strictly monotone
    assert np.all(fn._axis_m(0, xs)[1] > 0.0)


def test_eta_invalid_center(grid):
    with pytest.raises(InvalidCenter):
        EtaFunction(grid, 0.0)
    with pytest.raises(InvalidCenter):
        EtaFunction(grid, 1.5)


def test_eta_2d_product_and_critical_point():
    g = build_grid(2, (1.0, 1.0), (12, 12), 1.0, 8)
    fn = EtaFunction(g, (0.4, 0.6))
    vals = fn.on_nodes()
    assert np.all(vals[0, :] == 0.0) and np.all(vals[:, -1] == 0.0)
    gx, gy = fn.gradient(np.array([0.4]), np.array([0.6]))
    assert abs(gx[0]) <= 1e-14 and abs(gy[0]) <= 1e-14


def test_default_parameters():
    lam, s = default_parameters(1.0)
    assert lam == 2.0
    assert s == pytest.approx(4.0)


def test_xi_bounded_below(grid, weights):
    """xi^{-1} <= T/2 holds at the midpoint level and everywhere else."""
    k = grid.nt // 2
    xi_mid = weights.xi.values[k]
    assert np.max(1.0 / xi_mid) <= grid.T / 2.0 + 1e-15
    interior = weights.xi.values[1:-1]
    assert np.max(1.0 / interior) <= grid.T / 2.0 + 1e-15


def test_alpha_negative_interior(grid, weights):
    assert np.all(weights.alpha.values[1:-1] < 0.0)


def test_gradient_identity_100_samples(grid, weights):
    rep = check_weight_properties(weights, n_samples=100, seed=11)
    assert rep.identity_ok
    assert rep.identity_max_rel <= 1e-12


def test_time_bounds(grid, weights):
    rep = check_weight_properties(weights, n_samples=200, seed=12)
    assert rep.xi_inv_ok
    assert rep.time_bound_relaxed_ok
    assert rep.time_bound_strict_ok


def test_time_derivatives_vanish_at_midpoint(grid, weights):
    form = WeightForm(weights.eta_fn, weights.lam, weights.s, "sharp")
    coords = (np.array([0.37]),)
    t = np.array([grid.T / 2.0])
    assert form.alpha_t(coords, t)[0] == 0.0
    assert form.xi_t(coords, t)[0] == 0.0


def test_doubling_lambda_preserves_identity(grid):
    w2 = build_carleman_weights(grid, "shared", lam=2.0, s=4.0, center=0.5)
    rep = check_weight_properties(w2, n_samples=100, seed=13)
    assert rep.identity_ok


def test_endpoint_conventions(grid, weights):
    from hierctrl.carleman import ALPHA_FLOOR, XI_CAP

    assert np.all(weights.alpha.values[0] == ALPHA_FLOOR)
    assert np.all(weights.xi.values[-1] == XI_CAP)
    assert np.all(np.exp(2.0 * weights.s * weights.alpha.values[0]) == 0.0)
    # ell variant is regular at t = 0, singular only at t = T
    assert np.all(np.isfinite(weights.alpha_ell.values[0]))
    assert np.all(weights.alpha_ell.values[0] > ALPHA_FLOOR)
    assert np.all(weights.alpha_ell.values[-1] == ALPHA_FLOOR)


def test_theta_zero_at_horizon_positive_inside(grid, weights):
    th = weights.theta.values
    assert np.all(th[-1] == 0.0)
    assert np.all(th[1:-1][:, 1:-1] > 0.0)
    assert np.all(np.isfinite(th))


def test_distinct_pair_invariants(grid):
    w = build_carleman_weights(grid, "distinct", lam=1.0, s=4.0, center=0.35, center2=0.65)
    e1, e2 = w.eta_pair
    v1, v2 = e1.on_nodes(), e2.on_nodes()
    outside = ~w.otilde.indicator
    assert np.abs(v1[outside] - v2[outside]).max() == 0.0
    assert e1.sup == e2.sup
    assert abs(e2.gradient(np.array([0.65]))[0][0]) <= 1e-13
    assert abs(e1.gradient(np.array([0.35]))[0][0]) <= 1e-13


def test_distinct_equal_centers_degenerate_min(grid):
    w = build_carleman_weights(grid, "distinct", lam=1.0, s=4.0, center=0.5, center2=0.5)
    cand = build_theta(
        CarlemanWeights(grid=grid, case="shared", lam=w.lam, s=w.s, eta_fn=w.eta_fn,
                        alpha=w.alpha, xi=w.xi, alpha_ell=w.alpha_ell, xi_ell=w.xi_ell,
                        omega0=w.omega0))
    assert np.array_equal(w.theta.values, cand.values)


def test_distinct_missing_center_raises(grid):
    with pytest.raises(CaseMismatch):
        build_carleman_weights(grid, "distinct", lam=1.0, s=4.0, center=0.4)


def test_ratio_report_finite_positive(grid, weights):
    rep = carleman_ratio_report(grid, weights, n_samples=20, seed=3)
    assert len(rep.ratios) == 20
    assert rep.skipped == 0
    assert all(np.isfinite(r) and r > 0 for r in rep.ratios)


def test_ratio_report_larger_s_still_finite(grid):
    w = build_carleman_weights(grid, "shared", lam=1.0, s=8.0, center=0.5)
    rep = carleman_ratio_report(grid, w, n_samples=5, seed=3)
    assert all(np.isfinite(r) and r > 0 for r in rep.ratios)


def test_ratio_report_degenerate_weights_skipped(grid):
    """Underflowed weights kill both sides; samples are skipped, flagged."""
    w = build_carleman_weights(grid, "shared", lam=50.0, s=4.0, center=0.5)
    rep = carleman_ratio_report(grid, w, n_samples=4, seed=5)
    assert rep.skipped == 4
    assert rep.samples == []
    assert math.isnan(rep.max_ratio)


def test_gradient_scan_helper(grid, weights):
    assert eta_gradient_scan(weights, 0.1) > 0.0


def test_observability_decoupled_matches_plain_ratio(rng):
    spec = make_hum_spec(alpha=0.0)
    g = spec.grid
    w = build_carleman_weights(g, "shared", lam=0.05, s=4.0, center=0.7 * g.lengths[0])
    rep = estimate_observability(spec, w, n_samples=3, seed=9)
    from hierctrl.mesh import integrate, norm_h

    st = spec.stepper
    check_rng = np.random.default_rng(9)
    for k in range(3):
        psi0_int = check_rng.standard_normal(g.n_interior)
        P = st.march_backward(psi0_int, None, family="forward")
        psi = SpaceTimeField.from_interior(g, P)
        num = norm_h(g, psi.values[0]) ** 2
        den = integrate(SpaceTimeField(g, psi.values**2), spec.leader_mask)
        assert rep.ratios[k] == pytest.approx(num / den, rel=1e-9)


def test_observability_builds_one_stepper(monkeypatch):
    """Every sample's coupled-adjoint solve marches with one shared stepper:
    1 build for 4 samples, not 4."""
    builds = []
    original = operators.TimeStepper.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    spec = make_hum_spec()
    w = build_carleman_weights(spec.grid, "shared", lam=0.05, s=4.0, center=0.7 * spec.grid.lengths[0])
    monkeypatch.setattr(operators.TimeStepper, "__init__", counted)
    rep = estimate_observability(spec, w, n_samples=4, seed=21)
    assert len(rep.ratios) == 4
    assert len(builds) == 1


def test_observability_reference_all_finite():
    spec = make_hum_spec()
    g = spec.grid
    w = build_carleman_weights(g, "shared", lam=0.05, s=4.0, center=0.7 * g.lengths[0], spec=spec)
    rep = estimate_observability(spec, w, n_samples=10, seed=21)
    assert rep.all_finite
    assert rep.all_denominators_positive


def test_observability_enlarging_leader_no_increase():
    spec = make_hum_spec()
    g = spec.grid
    w = build_carleman_weights(g, "shared", lam=0.05, s=4.0, center=0.7 * g.lengths[0])
    base = estimate_observability(spec, w, n_samples=10, seed=22)
    enlarged = estimate_observability(spec.with_(leader_mask=full_mask(g)), w,
                                      n_samples=10, seed=22)
    assert enlarged.max_ratio <= base.max_ratio


def test_observability_distinct_case():
    spec = make_hum_spec()
    g = spec.grid
    L = g.lengths[0]
    from hierctrl.mesh import build_mask

    distinct = spec.with_(target_masks=(build_mask(g, (0.50 * L, 0.70 * L)),
                                        build_mask(g, (0.62 * L, 0.90 * L))))
    w = build_carleman_weights(g, "distinct", lam=0.05, s=4.0,
                               center=0.55 * L, center2=0.68 * L, spec=distinct)
    rep = estimate_observability(distinct, w, n_samples=5, seed=23)
    assert rep.case == "distinct"
    assert rep.all_finite and rep.all_denominators_positive


def test_shared_case_validation_rejects_mismatch():
    spec = make_hum_spec()
    g = spec.grid
    L = g.lengths[0]
    from hierctrl.mesh import build_mask

    bad = spec.with_(target_masks=(build_mask(g, (0.5 * L, 0.9 * L)),
                                   build_mask(g, (0.4 * L, 0.9 * L))))
    with pytest.raises(CaseMismatch):
        build_carleman_weights(g, "shared", lam=0.05, s=4.0, center=0.7 * L, spec=bad)


def test_weight_form_matches_sampled_fields(grid, weights):
    form = WeightForm(weights.eta_fn, weights.lam, weights.s, "sharp")
    k = grid.nt // 3
    t = grid.times()[k]
    x = grid.coords(0)
    alpha_direct = form.alpha((x,), np.full_like(x, t))
    assert np.allclose(alpha_direct, weights.alpha.values[k], rtol=1e-13)


@pytest.mark.parametrize("dims", [1, 2], ids=["1-plain", "2-plain"])
def test_ratio_report_march_matches_superlu_loop(monkeypatch, dims):
    """The report's backward march is the pure biharmonic one: a loop of
    transposed solves with a factorization of I + dt B, to 1e-12."""
    g = build_grid(1, 1.0, 24, 1.0, 24) if dims == 1 else build_grid(2, (1.0, 1.0), (9, 10), 1.0, 8)
    w = build_carleman_weights(g, "shared", lam=1.0, s=4.0, center=0.5 if dims == 1 else (0.5, 0.5))
    marches = []
    original = operators.TimeStepper.march_backward

    def recorded(self, terminal, sources=None, family="forward"):
        out = original(self, terminal, sources, family)
        marches.append((terminal, sources, out))
        return out

    monkeypatch.setattr(operators.TimeStepper, "march_backward", recorded)
    carleman_ratio_report(g, w, n_samples=3, seed=2)
    assert len(marches) == 3
    eye = sp.identity(g.n_interior, format="csr")
    fact = factorize((eye + g.dt * operators.assemble_biharmonic(g)).tocsr())
    for terminal, src, Z in marches:
        ref = np.zeros((g.nt + 1, g.n_interior))
        ref[g.nt] = terminal
        for j in range(g.nt, 0, -1):
            ref[j - 1] = fact.solve(ref[j] + g.dt * src[j], transpose=True)
        assert np.abs(Z - ref).max() <= 1e-12 * np.abs(ref).max()

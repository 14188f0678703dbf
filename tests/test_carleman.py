import math

import numpy as np
import pytest
import scipy.sparse as sp

from hierctrl.carleman import (EtaFunction, WeightForm, build_carleman_weights, build_weights,
                               carleman_ratio_report, check_case, check_weight_properties,
                               default_parameters, estimate_observability, eta_gradient_scan)
from hierctrl import carleman, operators
from hierctrl.errors import CaseMismatch, InvalidCenter
from hierctrl.linalg import factorize
from hierctrl.mesh import build_grid, full_mask

from conftest import make_hum_spec


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 1.0, 24, 1.0, 24)


@pytest.fixture(scope="module")
def weights(grid):
    return build_carleman_weights(grid, "shared", lam=1.0, s=4.0, center=0.5)


def test_eta_symmetric_center_is_parabola(grid):
    x = grid.coords(0)
    eta = EtaFunction(grid, 0.5).value(*grid.meshes())
    assert np.abs(eta - x * (1 - x)).max() <= 1e-14
    fn = EtaFunction(grid, 0.5)
    assert fn.value(np.array([0.5]))[0] == pytest.approx(0.25, abs=1e-15)


def test_eta_boundary_zeros_exact(grid):
    for center in (0.3, 0.5, 0.72):
        eta = EtaFunction(grid, center).value(*grid.meshes())
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
    vals = fn.value(*g.meshes())
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
    xi_mid = weights.xi[k]
    assert np.max(1.0 / xi_mid) <= grid.T / 2.0 + 1e-15
    interior = weights.xi[1:-1]
    assert np.max(1.0 / interior) <= grid.T / 2.0 + 1e-15


def test_alpha_negative_interior(grid, weights):
    assert np.all(weights.alpha[1:-1] < 0.0)


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
    form = WeightForm(weights.etas[0], weights.lam, weights.s, "sharp")
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

    assert np.all(weights.alpha[0] == ALPHA_FLOOR)
    assert np.all(weights.xi[-1] == XI_CAP)
    assert np.all(np.exp(2.0 * weights.s * weights.alpha[0]) == 0.0)
    # ell variant is regular at t = 0, singular only at t = T
    alpha_ell, _ = build_weights(weights.etas[0], weights.lam, weights.s, "ell-modified")
    assert np.all(np.isfinite(alpha_ell[0]))
    assert np.all(alpha_ell[0] > ALPHA_FLOOR)
    assert np.all(alpha_ell[-1] == ALPHA_FLOOR)


def test_theta_zero_at_horizon_positive_inside(grid, weights):
    th = np.exp(weights.log_theta)
    assert np.all(th[-1] == 0.0)
    assert np.all(th[1:-1][:, 1:-1] > 0.0)
    assert np.all(np.isfinite(th))


def test_distinct_pair_invariants(grid):
    w = build_carleman_weights(grid, "distinct", lam=1.0, s=4.0, center=0.35, center2=0.65)
    e1, e2 = w.etas
    v1, v2 = e1.value(*grid.meshes()), e2.value(*grid.meshes())
    # the default window reaches 0.2 L past each centre
    x, L = grid.coords(0), grid.lengths[0]
    outside = ~((x > 0.35 - 0.2 * L) & (x < 0.65 + 0.2 * L))
    assert outside.sum() == 8
    assert np.abs(v1[outside] - v2[outside]).max() == 0.0
    assert np.abs(v1[~outside] - v2[~outside]).max() > 0.0
    assert e1.sup == e2.sup
    assert abs(e2.gradient(np.array([0.65]))[0][0]) <= 1e-13
    assert abs(e1.gradient(np.array([0.35]))[0][0]) <= 1e-13


@pytest.mark.parametrize("dims", [1, 2])
def test_shared_build_is_the_distinct_build_with_one_center(dims):
    """Bit for bit, sign bits too: a shared build is a distinct build with
    center2 = center, whose pair is one eta twice."""
    if dims == 1:
        g, center = build_grid(1, 1.0, 24, 1.0, 24), 0.3
    else:
        g, center = build_grid(2, (1.0, 1.5), (9, 13), 0.7, 8), (0.4, 0.9)
    shared = build_carleman_weights(g, "shared", lam=1.0, s=4.0, center=center)
    distinct = build_carleman_weights(g, "distinct", lam=1.0, s=4.0, center=center, center2=center)
    for w in (shared, distinct):
        assert w.etas[0] is w.etas[1]
    for name in ("alpha", "xi", "log_theta"):
        a, b = getattr(shared, name), getattr(distinct, name)
        assert a.tobytes() == b.tobytes(), name
    assert np.array_equal(shared.omega0.indicator, distinct.omega0.indicator)


@pytest.mark.parametrize("case, center2, calls", [
    ("shared", None, {"sharp": 1, "ell-modified": 1}),
    ("distinct", 0.5, {"sharp": 1, "ell-modified": 1}),
    ("distinct", 0.65, {"sharp": 1, "ell-modified": 2}),
], ids=["shared", "distinct-one-center", "distinct"])
def test_build_weights_calls_per_variant(grid, monkeypatch, case, center2, calls):
    """One centre samples each variant once; two centres sample the
    ell-modified weights of each."""
    seen = {"sharp": 0, "ell-modified": 0}
    original = carleman.build_weights

    def counted(eta_fn, lam, s, variant="sharp"):
        seen[variant] += 1
        return original(eta_fn, lam, s, variant)

    monkeypatch.setattr(carleman, "build_weights", counted)
    build_carleman_weights(grid, case, lam=1.0, s=4.0, center=0.5, center2=center2)
    assert seen == calls


def test_distinct_missing_center_raises(grid):
    with pytest.raises(CaseMismatch):
        build_carleman_weights(grid, "distinct", lam=1.0, s=4.0, center=0.4)


@pytest.mark.parametrize("center2", [0.6, (0.6, 0.5, 0.5)], ids=["short", "long"])
def test_distinct_center2_needs_a_coordinate_per_axis(center2):
    g = build_grid(2, (1.0, 1.0), (12, 12), 1.0, 8)
    with pytest.raises(InvalidCenter, match="center needs 2 coordinates"):
        build_carleman_weights(g, "distinct", lam=1.0, s=4.0, center=(0.4, 0.5), center2=center2)


def test_ratio_report_finite_positive(grid, weights):
    rep = carleman_ratio_report(weights, n_samples=20, seed=3)
    assert len(rep.ratios) == 20
    assert rep.skipped == 0
    assert all(np.isfinite(r) and r > 0 for r in rep.ratios)


def test_ratio_report_larger_s_still_finite(grid):
    w = build_carleman_weights(grid, "shared", lam=1.0, s=8.0, center=0.5)
    rep = carleman_ratio_report(w, n_samples=5, seed=3)
    assert all(np.isfinite(r) and r > 0 for r in rep.ratios)


def test_ratio_report_degenerate_weights_skipped(grid):
    """Underflowed weights kill both sides; samples are skipped, flagged."""
    w = build_carleman_weights(grid, "shared", lam=50.0, s=4.0, center=0.5)
    rep = carleman_ratio_report(w, n_samples=4, seed=5)
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
        psi = g.from_interior_levels(P)
        num = norm_h(g, P[0]) ** 2
        den = integrate(psi**2, spec.leader_mask)
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
    check_case(spec, "shared")
    w = build_carleman_weights(g, "shared", lam=0.05, s=4.0, center=0.7 * g.lengths[0])
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
    check_case(distinct, "distinct")
    w = build_carleman_weights(g, "distinct", lam=0.05, s=4.0, center=0.55 * L, center2=0.68 * L)
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
        check_case(bad, "shared")


def test_weight_form_matches_sampled_fields(grid, weights):
    """alpha at an inner level is (e^{lam (2M + eta)} - e^{4 lam M}) / sqrt(t (T - t)),
    M the supremum of eta."""
    k = grid.nt // 3
    t = grid.times()[k]
    eta_fn, lam = weights.etas[0], weights.lam
    closed = (np.exp(lam * (2.0 * eta_fn.sup + eta_fn.value(grid.coords(0))))
              - np.exp(4.0 * lam * eta_fn.sup)) / np.sqrt(t * (grid.T - t))
    assert np.allclose(closed, weights.alpha[k], rtol=1e-13)


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
    carleman_ratio_report(w, n_samples=3, seed=2)
    assert len(marches) == 3
    eye = sp.identity(g.n_interior, format="csr")
    fact = factorize((eye + g.dt * operators.assemble_biharmonic(g)).tocsr())
    for terminal, src, Z in marches:
        ref = np.zeros((g.nt + 1, g.n_interior))
        ref[g.nt] = terminal
        for j in range(g.nt, 0, -1):
            ref[j - 1] = fact.solve(ref[j] + g.dt * src[j], transpose=True)
        assert np.abs(Z - ref).max() <= 1e-12 * np.abs(ref).max()

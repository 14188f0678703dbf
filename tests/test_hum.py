import configparser
from pathlib import Path

import numpy as np
import pytest

import hierctrl.hum as hum
from hierctrl.carleman import check_target_condition
from hierctrl.config import build_problem_spec, load_config
from hierctrl.errors import ContractionFailure, MaxIterations
from hierctrl.linalg import conjugate_gradient
from hierctrl.hum import (apply_lambda, control_to_trajectory,
                          dense_oracle, eval_G, grad_G,
                          leader_from_psi, minimize_G, solve_coupled_adjoint)
from hierctrl.mesh import SpaceTimeField, build_grid, full_mask, inner_h, norm_h
from hierctrl.nash import q_norm
from hierctrl.operators import TimeStepper, solve_forward

from conftest import make_hum_spec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def spec():
    return make_hum_spec()


def _random_psi0(spec, rng):
    return spec.grid.from_interior(rng.standard_normal(spec.grid.n_interior))


def test_coupled_adjoint_zero_datum(spec):
    st = solve_coupled_adjoint(spec, np.zeros(spec.grid.nx))
    for f in (st.psi, st.eta1, st.eta2):
        assert np.all(f.values == 0.0)


def test_coupled_adjoint_invariants_exact(spec, rng):
    psi0 = _random_psi0(spec, rng)
    st = solve_coupled_adjoint(spec, psi0)
    assert np.array_equal(st.psi.values[-1], psi0)
    assert np.all(st.eta1.values[0] == 0.0)
    assert np.all(st.eta2.values[0] == 0.0)


def test_coupled_adjoint_decoupled_two_sweeps(rng):
    spec0 = make_hum_spec(alpha=0.0)
    psi0 = _random_psi0(spec0, rng)
    st = solve_coupled_adjoint(spec0, psi0)
    assert st.iterations == 2
    plain = spec0.stepper.march_backward(spec0.grid.to_interior(psi0), None, family="forward")
    assert np.allclose(st.psi.interior(), plain, atol=1e-14)


def test_coupled_adjoint_matches_dense_oracle(spec, rng):
    g = spec.grid
    psi0 = _random_psi0(spec, rng)
    it = solve_coupled_adjoint(spec, psi0, tol_rel=1e-13)
    _, dn = dense_oracle(spec, psi0=psi0)
    for a, b in ((it.psi, dn.psi), (it.eta1, dn.eta1), (it.eta2, dn.eta2)):
        nd = q_norm(g, a.interior() - b.interior())
        assert nd <= 1e-8 * max(q_norm(g, b.interior()), 1e-300)


def test_coupled_adjoint_max_iterations_carries_last_iterate(spec, rng):
    with pytest.raises(MaxIterations) as err:
        solve_coupled_adjoint(spec, _random_psi0(spec, rng), max_iter=1)
    assert err.value.best is not None
    assert err.value.iterations == 1
    assert err.value.history == []  # the first sweep has nothing to compare against


def test_coupled_adjoint_divergence_detected(spec, rng):
    """Inflated observation weights push the transposed fixed point out of
    its contraction regime, as they do the Nash fixed point."""
    inflated = spec.with_(alpha=(10.0, 10.0))
    with pytest.raises(ContractionFailure) as err:
        solve_coupled_adjoint(inflated, _random_psi0(spec, rng), max_iter=500)
    assert err.value.ratio > 1.0
    assert err.value.iterations < 500


def test_coupled_adjoint_linear_in_datum(spec, rng):
    g = spec.grid
    p1 = _random_psi0(spec, rng)
    p2 = _random_psi0(spec, rng)
    a, b = 0.83, -2.4
    s1 = solve_coupled_adjoint(spec, p1, tol_rel=1e-13)
    s2 = solve_coupled_adjoint(spec, p2, tol_rel=1e-13)
    s12 = solve_coupled_adjoint(spec, a * p1 + b * p2, tol_rel=1e-13)
    combo = a * s1.psi.values + b * s2.psi.values
    scale = max(np.abs(combo).max(), 1e-300)
    assert np.abs(s12.psi.values - combo).max() <= 1e-9 * scale


def test_eval_G_zero_datum(spec):
    assert eval_G(spec, np.zeros(spec.grid.nx), 1e-3) == 0.0


def test_eval_G_nonnegative_without_affine_data(spec, rng):
    zspec = spec.with_zero_data()
    for _ in range(3):
        psi0 = _random_psi0(spec, rng)
        assert eval_G(zspec, psi0, 1e-3) >= 0.0


def test_eval_G_quadratic_scaling(spec, rng):
    zspec = spec.with_zero_data()
    psi0 = _random_psi0(spec, rng)
    g1 = eval_G(zspec, psi0, 1e-3)
    g2 = eval_G(zspec, 2.0 * psi0, 1e-3)
    assert abs((g2 - 2.0 * g1) - 2.0 * g1) <= 1e-10 * max(abs(g1), 1.0)


def test_grad_zero_everything(spec):
    zspec = spec.with_zero_data()
    grad = grad_G(zspec, np.zeros(spec.grid.nx), 1e-3)
    assert np.all(grad == 0.0)


def test_gradient_matches_finite_differences(spec, rng):
    """Central finite differences vs the adjoint gradient (acceptance 6)."""
    g = spec.grid
    eps = 1e-3
    psi0 = _random_psi0(spec, rng)
    grad = grad_G(spec, psi0, eps, inner_tol=1e-13)
    for _ in range(5):
        d = _random_psi0(spec, rng)
        an = inner_h(g, grad, d)
        best = np.inf
        for h in (1e-4, 1e-5, 1e-6):
            fd = (eval_G(spec, psi0 + h * d, eps, tol_rel=1e-13)
                  - eval_G(spec, psi0 - h * d, eps, tol_rel=1e-13)) / (2 * h)
            best = min(best, abs(fd - an) / max(abs(an), 1e-300))
        assert best <= 1e-6


def test_gradient_linear_part_homogeneous(spec, rng):
    zspec = spec.with_zero_data()
    psi0 = _random_psi0(spec, rng)
    g1 = grad_G(zspec, psi0, 0.0, inner_tol=1e-13)
    g2 = grad_G(zspec, 3.0 * psi0, 0.0, inner_tol=1e-13)
    scale = max(np.abs(g2).max(), 1e-300)
    assert np.abs(g2 - 3.0 * g1).max() <= 1e-8 * scale


def test_two_system_duality_identity(spec, rng):
    """Pairing the optimality system (driven by a random leader) with the
    coupled adjoint system (random terminal datum): both sides of the
    resulting identity, computed from the two independent solves, agree.

    dt sum <f chi, psi> - dt sum sum_i <chi_i phi_i, psi>/mu_i
      = <w(T), psi0> - <w0, psi(0)> + dt sum sum_i alpha_i <chi_di eta_i, w>
    """
    from hierctrl.nash import solve_nash_fixed_point

    g = spec.grid
    for _ in range(3):
        f = SpaceTimeField.from_interior(g, rng.standard_normal((g.nt + 1, g.n_interior)))
        psi0 = _random_psi0(spec, rng)
        nash = solve_nash_fixed_point(spec, f, tol_rel=1e-13)
        coup = solve_coupled_adjoint(spec, psi0, tol_rel=1e-13)
        psi = coup.psi.interior()
        W = nash.w.interior()
        chiO = spec.leader_mask.interior_vector()
        lhs = g.dt * g.hd * float(np.sum((f.interior()[1:] * chiO) * psi[:-1]))
        for i in range(2):
            chi = spec.follower_masks[i].interior_vector()
            phi = nash.phis[i].interior()
            lhs -= g.dt * g.hd / spec.mu[i] * float(np.sum((phi[:-1] * chi) * psi[:-1]))
        rhs = g.hd * float(np.dot(W[-1], g.to_interior(psi0)))
        rhs -= g.hd * float(np.dot(g.to_interior(spec.w0), psi[0]))
        for i in range(2):
            chid = spec.target_masks[i].interior_vector()
            eta = coup.etas[i].interior()
            rhs += spec.alpha[i] * g.dt * g.hd * float(np.sum((eta[1:] * chid) * W[1:]))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-300)


def test_lambda_symmetry_and_psd(spec, rng):
    g = spec.grid
    for _ in range(4):
        a = _random_psi0(spec, rng)
        b = _random_psi0(spec, rng)
        la = apply_lambda(spec, a, inner_tol=1e-12)
        lb = apply_lambda(spec, b, inner_tol=1e-12)
        sym = abs(inner_h(g, la, b) - inner_h(g, a, lb))
        assert sym <= 1e-9 * norm_h(g, a) * norm_h(g, b)
        assert inner_h(g, la, a) >= -1e-10 * norm_h(g, a) ** 2


def test_lambda_symmetric_to_rounding_on_benchmark_grid(tmp_path):
    """On the nx = nt = 64 null-control grid (62 unknowns, modal marches)
    a backward march is the forward scan reversed in time with the same
    eigenvectors and reciprocal eigenvalues, so the coupled adjoint inside
    Lambda is the transpose of the Nash solve and Lambda's symmetry defect
    |<x, Lambda y> - <Lambda x, y>| / (||x|| ||Lambda y||) is rounding only.
    SuperLU's plain and transposed solves give about 2e-15, so the bound
    tells the two apart."""
    cp = configparser.ConfigParser()
    cp.read(CONFIGS / "null_control_1d.ini")
    cp["grid"]["nx"] = cp["grid"]["nt"] = "64"
    with open(tmp_path / "grid64.ini", "w") as fh:
        cp.write(fh)
    spec = build_problem_spec(load_config(tmp_path / "grid64.ini"))
    g = spec.grid
    assert g.n_interior == 62
    rng = np.random.default_rng(0)

    def lam(v):
        return g.to_interior(apply_lambda(spec, g.from_interior(v), inner_tol=1e-11))

    for _ in range(5):
        x, y = rng.standard_normal(g.n_interior), rng.standard_normal(g.n_interior)
        ly = lam(y)
        defect = abs(x @ ly - lam(x) @ y) / (np.linalg.norm(x) * np.linalg.norm(ly))
        assert defect <= 1e-15


def test_lambda_quadratic_form_is_leader_energy(spec, rng):
    """<Lambda psi0, psi0> equals twice the zero-data functional, i.e. the
    leader-region energy of the coupled solution."""
    zspec = spec.with_zero_data()
    g = spec.grid
    for _ in range(3):
        a = _random_psi0(spec, rng)
        la = apply_lambda(spec, a, inner_tol=1e-13)
        energy = 2.0 * eval_G(zspec, a, 0.0, tol_rel=1e-13)
        assert inner_h(g, la, a) == pytest.approx(energy, rel=1e-9)


def test_minimize_zero_data(spec):
    zspec = spec.with_zero_data()
    res = minimize_G(zspec, 1e-3)
    assert np.all(res.psi0 == 0.0)
    assert np.all(res.f.values == 0.0)
    assert res.terminal_norm == 0.0


def test_minimize_plugback(spec):
    eps = 1e-3
    res = minimize_G(spec, eps, cg_tol=1e-9)
    g = spec.grid
    x = g.to_interior(res.psi0)
    lam = g.to_interior(apply_lambda(spec, res.psi0, inner_tol=1e-12))
    b = g.to_interior(grad_G(spec, np.zeros(g.nx), 0.0, inner_tol=1e-12))
    resid = np.linalg.norm(lam + eps * x + b) / max(np.linalg.norm(b), 1e-300)
    assert resid <= 10 * 1e-9


def test_minimize_cg_envelope_monotone(spec):
    """The CG residuals stop at their running minimum, below cg_tol."""
    res = minimize_G(spec, 1e-3, cg_tol=1e-9)
    env = np.minimum.accumulate(res.cg_residuals)
    assert env[-1] == res.cg_residuals[-1] <= 1e-9


def test_epsilon_sweep_decay(spec):
    tns = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        tns.append(minimize_G(spec, eps, cg_tol=1e-10).terminal_norm)
    assert all(tns[k] > tns[k + 1] for k in range(len(tns) - 1))
    assert tns[0] / tns[-1] >= 10.0


EPS_SWEEP = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


def test_minimize_sweep_matches_single_eps_runs(spec):
    g = spec.grid
    cg_tol = 1e-10
    sweep = minimize_G(spec, EPS_SWEEP, cg_tol=cg_tol)
    assert [r.eps for r in sweep] == list(EPS_SWEEP)
    b = g.to_interior(grad_G(spec, np.zeros(g.nx), 0.0, inner_tol=1e-12))
    for eps, res in zip(EPS_SWEEP, sweep):
        single = minimize_G(spec, eps, cg_tol=cg_tol)
        assert res.terminal_norm == pytest.approx(single.terminal_norm, rel=1e-6)
        assert res.true_residual <= cg_tol
        assert len(res.cg_residuals) == res.cg_iterations + 1
        x = g.to_interior(res.psi0)
        lam = g.to_interior(apply_lambda(spec, res.psi0, inner_tol=1e-12))
        assert np.linalg.norm(lam + eps * x + b) / np.linalg.norm(b) <= 10 * cg_tol
    # the smallest eps is the base system of the shared Krylov sequence: plain CG
    assert np.array_equal(sweep[-1].psi0, single.psi0)
    assert sweep[-1].cg_residuals == single.cg_residuals


def test_minimize_refines_a_drifted_shift(spec, monkeypatch):
    eps_list = (1e-1, 1e-3)
    cg_tol = 1e-9
    clean = minimize_G(spec, eps_list, cg_tol=cg_tol)
    calls = []

    def drifting(apply, b, tol_rel, max_iter, shifts):
        res = conjugate_gradient(apply, b, tol_rel=tol_rel, max_iter=max_iter, shifts=shifts)
        calls.append(tuple(shifts))
        if len(shifts) > 1:
            res.xs[0] = res.xs[0] * (1.0 + 1e-6)  # drift on the non-base shift
        return res

    monkeypatch.setattr(hum, "conjugate_gradient", drifting)
    drifted = minimize_G(spec, eps_list, cg_tol=cg_tol)
    assert calls == [eps_list, (eps_list[0],)]
    refined = drifted[0]
    assert refined.cg_iterations > clean[0].cg_iterations
    assert len(refined.cg_residuals) == refined.cg_iterations + 1
    assert refined.true_residual <= cg_tol
    assert refined.terminal_norm == pytest.approx(clean[0].terminal_norm, rel=1e-6)
    assert np.array_equal(drifted[1].psi0, clean[1].psi0)


def test_minimize_warm_start_at_its_own_solution_takes_no_cg(spec):
    """A start that already meets cg_tol is accepted as it is: no CG
    iteration, one residual row, the same psi0 bit for bit."""
    cold = minimize_G(spec, 1e-3, cg_tol=1e-9)
    warm = minimize_G(spec, 1e-3, cg_tol=1e-9, psi0=cold.psi0)
    assert warm.cg_iterations == 0
    assert warm.cg_residuals == [cold.true_residual]
    assert np.array_equal(warm.psi0, cold.psi0)
    assert warm.terminal_norm == cold.terminal_norm


def test_minimize_warm_start_refines_a_perturbed_start(spec, rng):
    eps, cg_tol = 1e-3, 1e-9
    cold = minimize_G(spec, eps, cg_tol=cg_tol)
    start = cold.psi0 + 1e-3 * norm_h(spec.grid, cold.psi0) * _random_psi0(spec, rng)
    warm = minimize_G(spec, eps, cg_tol=cg_tol, psi0=start)
    assert 0 < warm.cg_iterations < cold.cg_iterations
    assert len(warm.cg_residuals) == warm.cg_iterations + 1
    assert warm.cg_residuals[0] > cg_tol
    assert warm.true_residual <= cg_tol
    assert warm.terminal_norm == pytest.approx(cold.terminal_norm, rel=1e-6)


def test_minimize_warm_start_takes_a_single_eps(spec):
    with pytest.raises(ValueError):
        minimize_G(spec, EPS_SWEEP, psi0=np.zeros(spec.grid.nx))


def test_leader_field_is_masked_psi(spec, rng):
    psi0 = _random_psi0(spec, rng)
    st = solve_coupled_adjoint(spec, psi0)
    f = leader_from_psi(spec, st)
    chi = spec.leader_mask.interior_vector()
    assert np.array_equal(f.interior()[1:], st.psi.interior()[:-1] * chi)
    assert np.all(f.interior()[0] == 0.0)


def test_trajectory_zero_case(spec):
    g = spec.grid
    x = g.coords(0)
    L = g.lengths[0]
    ubar0 = 4.0 * (x / L) ** 2 * (1 - x / L) ** 2
    base = spec.with_(w0=ubar0)
    ubar = solve_forward(base, w0=ubar0)
    res = control_to_trajectory(spec, u0=ubar0, ubar0=ubar0, zetas=(ubar, ubar), eps=1e-4)
    assert np.all(res.hum.f.values == 0.0)
    assert res.terminal_mismatch == 0.0
    assert np.allclose(res.u.values, ubar.values, atol=1e-14)


def test_trajectory_mismatch_is_terminal_norm(spec):
    g = spec.grid
    x = g.coords(0)
    L = g.lengths[0]
    ubar0 = 2.0 * (x / L) ** 2 * (1 - x / L) ** 2
    zetas = (SpaceTimeField.zeros(g), SpaceTimeField.zeros(g))
    res = control_to_trajectory(spec, u0=spec.w0, ubar0=ubar0, zetas=zetas, eps=1e-3)
    assert res.terminal_mismatch == res.hum.terminal_norm
    diff = res.u.values[-1] - res.ubar.values[-1]
    assert norm_h(g, diff) == pytest.approx(res.terminal_mismatch, rel=1e-12)


def test_trajectory_sweep_drops_tenfold(spec):
    g = spec.grid
    zetas = (SpaceTimeField.zeros(g), SpaceTimeField.zeros(g))
    first = control_to_trajectory(spec, spec.w0, np.zeros(g.nx), zetas, 1e-1).terminal_mismatch
    last = control_to_trajectory(spec, spec.w0, np.zeros(g.nx), zetas, 1e-5).terminal_mismatch
    assert first / last >= 10.0


def test_check_target_condition_zero_targets(spec):
    from hierctrl.carleman import build_carleman_weights

    w = build_carleman_weights(spec.grid, "shared", lam=0.05, s=4.0,
                               center=0.7 * spec.grid.lengths[0])
    out = check_target_condition(spec, w.log_theta)
    assert out[0] == (0.0, False)
    assert out[1] == (0.0, False)


def test_check_target_condition_unit_cylinder():
    g = build_grid(1, 1.0, 9, 1.0, 8)
    ones = SpaceTimeField(g, np.ones((g.nt + 1,) + g.nx))
    from hierctrl.mesh import build_mask
    from hierctrl.operators import ProblemSpec

    spec = ProblemSpec(
        grid=g, a=SpaceTimeField.zeros(g), b=(SpaceTimeField.zeros(g),),
        leader_mask=build_mask(g, (0.25, 0.75)),
        follower_masks=(build_mask(g, (0.2, 0.5)), build_mask(g, (0.5, 0.8))),
        target_masks=(full_mask(g), full_mask(g)),
        alpha=(1e-3, 1e-3), mu=(1.0, 1.0),
        targets=(ones, ones), w0=np.zeros(g.nx),
    )
    out = check_target_condition(spec, SpaceTimeField.zeros(g))  # theta = 1
    assert out[0][0] == pytest.approx(1.0, abs=1e-12)
    assert out[0][1] is False


def test_check_target_condition_decaying_theta_finite(spec):
    """Constant offset against the vanishing weight: finite at desk
    resolution, growing toward the horizon (the weight enforces targets
    that approach the free trajectory)."""
    from hierctrl.carleman import build_carleman_weights

    g = spec.grid
    w = build_carleman_weights(g, "shared", lam=0.05, s=4.0, center=0.7 * g.lengths[0])
    ones = SpaceTimeField(g, np.ones((g.nt + 1,) + g.nx))
    offset = spec.with_(targets=(ones, ones))
    out = check_target_condition(offset, w.log_theta)
    for value, flagged in out:
        assert np.isfinite(value) and value > 0.0
        assert flagged is False


def _count_marches(monkeypatch):
    """Wrap both TimeStepper marches with a shared recorder of
    (march name, column count k), in call order."""
    calls = []
    for name in ("march_forward", "march_backward"):
        original = getattr(TimeStepper, name)

        def counted(self, datum, sources=None, *args, _original=original, _name=name, **kwargs):
            if np.ndim(sources) == 3:
                k = np.shape(sources)[2]
            else:
                k = np.shape(datum)[1] if np.ndim(datum) == 2 else 1
            calls.append((_name, k))
            return _original(self, datum, sources, *args, **kwargs)

        monkeypatch.setattr(TimeStepper, name, counted)
    return calls


def test_coupled_adjoint_sweep_makes_two_marches(spec, rng, monkeypatch):
    """psi marches backward, then the forward companions in one march (one
    column per distinct target weight): 2 marches per sweep, not 3."""
    psi0 = _random_psi0(spec, rng)
    calls = _count_marches(monkeypatch)
    st = solve_coupled_adjoint(spec, psi0)
    assert st.iterations > 2
    assert len(calls) == 2 * st.iterations


def _assert_matches_oracle(spec, st, psi0):
    _, dn = dense_oracle(spec, psi0=psi0)
    g = spec.grid
    for a, b in ((st.psi, dn.psi), (st.eta1, dn.eta1), (st.eta2, dn.eta2)):
        nd = q_norm(g, a.interior() - b.interior())
        assert nd <= 1e-8 * max(q_norm(g, b.interior()), 1e-300)


@pytest.mark.parametrize("targets", ["shared", "distinct"])
def test_equal_weights_march_one_companion_column(spec, rng, targets, monkeypatch):
    """Equal weights alpha_i chi_di: psi reads only eta_1 + eta_2, so each
    sweep marches that sum as one column (the targets do not enter the
    coupled adjoint).  The companions read from psi match the oracle."""
    if targets == "distinct":
        z = SpaceTimeField(spec.grid, np.ones_like(spec.targets[0].values))
        spec = spec.with_(targets=(spec.targets[0], z))
    psi0 = _random_psi0(spec, rng)
    calls = _count_marches(monkeypatch)
    st = solve_coupled_adjoint(spec, psi0, tol_rel=1e-13)
    assert st.iterations > 2
    assert calls == [("march_backward", 1), ("march_forward", 1)] * st.iterations
    assert st.companions is None
    monkeypatch.undo()
    _assert_matches_oracle(spec, st, psi0)


def test_distinct_weights_march_two_companion_columns(spec, rng, monkeypatch):
    """Different alpha_i keep one companion column per follower; the solve
    keeps both, so reading them marches nothing more."""
    spec = spec.with_(alpha=(1e-3, 2.5e-3))
    psi0 = _random_psi0(spec, rng)
    calls = _count_marches(monkeypatch)
    st = solve_coupled_adjoint(spec, psi0, tol_rel=1e-13)
    assert calls == [("march_backward", 1), ("march_forward", 2)] * st.iterations
    del calls[:]
    st.etas
    assert calls == []
    monkeypatch.undo()
    _assert_matches_oracle(spec, st, psi0)


def test_reading_companions_costs_one_two_column_march(spec, rng, monkeypatch):
    """The first read of eta1 marches eta_1 and eta_2 from psi as one
    2-column march, the same march the unmerged sweep ends with; later
    reads march nothing, and grad_G never reads them."""
    psi0 = _random_psi0(spec, rng)
    st = solve_coupled_adjoint(spec, psi0)
    calls = _count_marches(monkeypatch)
    eta1 = st.eta1
    assert calls == [("march_forward", 2)]
    assert st.eta2 is st.etas[1] and st.eta1 is eta1
    assert calls == [("march_forward", 2)]
    del calls[:]
    grad_G(spec, psi0, eps=0.0)
    assert calls and all(k == 1 for _, k in calls)

import configparser
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hierctrl.cli as cli
import hierctrl.hum as hum
import hierctrl.nash as nash
from hierctrl.carleman import check_target_condition
from hierctrl.config import build_problem_spec, load_config
from hierctrl.errors import ContractionFailure, MaxIterations
from hierctrl.linalg import conjugate_gradient
from hierctrl.hum import (control_to_trajectory, dense_oracle, grad_G, leader_from_psi, minimize_G,
                          solve_coupled_adjoint)
from hierctrl.mesh import Grid, build_grid, full_mask, inner_h, norm_h
from hierctrl.nash import q_norm, solve_nash_fixed_point
from hierctrl.operators import Coupling, TimeStepper

from conftest import leader_bump, make_hum_spec
from oracles import apply_lambda, eval_G, solve_forward, to_interior
from test_coordinates import FAMILIES, _family_spec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def spec():
    return make_hum_spec()


def _random_psi0(spec, rng):
    return rng.standard_normal(spec.grid.n_interior)


def test_coupled_adjoint_zero_datum(spec):
    st = solve_coupled_adjoint(spec, np.zeros(spec.grid.n_interior))
    for f in (st.psi, *st.etas):
        assert np.all(f == 0.0)


def test_coupled_adjoint_invariants_exact(spec, rng):
    psi0 = _random_psi0(spec, rng)
    st = solve_coupled_adjoint(spec, psi0)
    assert np.array_equal(st.psi[-1], psi0)
    assert np.all(st.etas[0][0] == 0.0)
    assert np.all(st.etas[1][0] == 0.0)


def test_coupled_adjoint_decoupled_two_sweeps(rng):
    spec0 = make_hum_spec(alpha=0.0)
    psi0 = _random_psi0(spec0, rng)
    st = solve_coupled_adjoint(spec0, psi0)
    assert st.iterations == 2
    plain = spec0.stepper.march_backward(psi0, None, family="forward")
    assert np.allclose(st.psi, plain, atol=1e-14)


def test_coupled_adjoint_matches_dense_oracle(spec, rng):
    g = spec.grid
    psi0 = _random_psi0(spec, rng)
    it = solve_coupled_adjoint(spec, psi0, tol_rel=1e-13)
    _, dn = dense_oracle(spec, psi0=psi0)
    for a, b in zip((it.psi, *it.etas), (dn.psi, *dn.etas)):
        nd = q_norm(g, a - b)
        assert nd <= 1e-8 * max(q_norm(g, b), 1e-300)


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
    combo = a * s1.psi + b * s2.psi
    scale = max(np.abs(combo).max(), 1e-300)
    assert np.abs(s12.psi - combo).max() <= 1e-9 * scale


def test_damped_transposed_sweep_reaches_the_undamped_psi(spec, rng):
    """The transposed sweep's first iterate is its first march, damped or
    not, as it has no start to move from; a damped coupled adjoint then
    takes more sweeps to the undamped psi, to the tolerance."""
    fwd = spec.stepper.coordinates("forward")
    datum = fwd.datum(_random_psi0(spec, rng))
    tol = 1e-12
    full, _, full_it, _ = nash.alternate(spec, datum, transposed=True, tol_rel=tol)
    damped, _, damped_it, _ = nash.alternate(spec, datum, transposed=True, tol_rel=tol, damping=0.6)
    assert damped_it > full_it
    assert fwd.q_norm(damped - full) <= tol * fwd.q_norm(full)


def test_eval_G_zero_datum(spec):
    assert eval_G(spec, np.zeros(spec.grid.n_interior), 1e-3) == 0.0


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
    grad = grad_G(zspec, np.zeros(spec.grid.n_interior), 1e-3)
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


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("case", ["shared", "alpha", "targets", "mixed"])
def test_two_system_duality_identity(family, case, monkeypatch, rng):
    """Pairing the optimality system (driven by a random leader) with the
    coupled adjoint system (random terminal datum): both sides of the
    resulting identity, computed from the two independent solves, agree on
    modal, band Cholesky and band LU families in every case
    test_coordinates runs, so the sweep and its transpose pair wherever
    they march.

    dt sum <f chi, psi> - dt sum sum_i <chi_i phi_i, psi>/mu_i
      = <w(T), psi0> - <w0, psi(0)> + dt sum sum_i alpha_i <chi_di eta_i, w>
    """
    spec = _family_spec(family, case, monkeypatch)
    g = spec.grid
    for _ in range(3):
        f = rng.standard_normal((g.nt + 1, g.n_interior))
        psi0 = _random_psi0(spec, rng)
        nash = solve_nash_fixed_point(spec, f, tol_rel=1e-13)
        coup = solve_coupled_adjoint(spec, psi0, tol_rel=1e-13)
        psi = coup.psi
        W = nash.w
        chiO = spec.leader_mask.interior_vector()
        lhs = g.dt * g.hd * float(np.sum((f[1:] * chiO) * psi[:-1]))
        for i in range(2):
            chi = spec.follower_masks[i].interior_vector()
            phi = nash.phis[i]
            lhs -= g.dt * g.hd / spec.mu[i] * float(np.sum((phi[:-1] * chi) * psi[:-1]))
        rhs = g.hd * float(np.dot(W[-1], psi0))
        rhs -= g.hd * float(np.dot(spec.w0, psi[0]))
        for i in range(2):
            chid = spec.target_masks[i].interior_vector()
            eta = coup.etas[i]
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


def _benchmark_grid_spec(tmp_path):
    """The shipped null-control problem on the nx = nt = 64 grid."""
    cp = configparser.ConfigParser()
    cp.read(CONFIGS / "null_control_1d.ini")
    cp["grid"]["nx"] = cp["grid"]["nt"] = "64"
    with open(tmp_path / "grid64.ini", "w") as fh:
        cp.write(fh)
    return build_problem_spec(load_config(tmp_path / "grid64.ini"))


def test_lambda_symmetric_to_rounding_on_benchmark_grid(tmp_path):
    """On the nx = nt = 64 null-control grid (62 unknowns, modal marches)
    a backward march is the forward march of the time-reversed data, with
    the same eigenvectors, reciprocal eigenvalues and band, so the coupled
    adjoint inside Lambda is the transpose of the Nash solve and Lambda's symmetry defect
    |<x, Lambda y> - <Lambda x, y>| / (||x|| ||Lambda y||) is rounding only.
    SuperLU's plain and transposed solves give about 2e-15, so the bound
    tells the two apart."""
    spec = _benchmark_grid_spec(tmp_path)
    g = spec.grid
    assert g.n_interior == 62
    rng = np.random.default_rng(0)

    def lam(v):
        return apply_lambda(spec, v, inner_tol=1e-11)

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
    assert np.all(res.f == 0.0)
    assert res.terminal_norm == 0.0


def test_minimize_plugback(spec):
    eps = 1e-3
    res = minimize_G(spec, eps, cg_tol=1e-9)
    g = spec.grid
    x = res.psi0
    lam = apply_lambda(spec, res.psi0, inner_tol=1e-12)
    b = grad_G(spec, np.zeros(g.n_interior), 0.0, inner_tol=1e-12)
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
    b = grad_G(spec, np.zeros(g.n_interior), 0.0, inner_tol=1e-12)
    for eps, res in zip(EPS_SWEEP, sweep):
        single = minimize_G(spec, eps, cg_tol=cg_tol)
        assert res.terminal_norm == pytest.approx(single.terminal_norm, rel=1e-6)
        assert res.true_residual <= cg_tol
        assert len(res.cg_residuals) == res.cg_iterations + 1
        x = res.psi0
        lam = apply_lambda(spec, res.psi0, inner_tol=1e-12)
        assert np.linalg.norm(lam + eps * x + b) / np.linalg.norm(b) <= 10 * cg_tol
        # one shift-free Lanczos basis, and each eps's own recurrences on it
        assert np.array_equal(res.psi0, single.psi0)
        assert res.cg_residuals == single.cg_residuals


def test_cold_solve_ritz_top_value_matches_the_dense_lambda():
    """On a small null-control grid (n = 14) the Ritz pairs of the cold
    solve, taken from its CG run's T_k, carry Lambda's largest eigenvalue:
    that of Lambda assembled densely from n applies, to 1e-6 relative."""
    spec = make_hum_spec()
    n = spec.grid.n_interior
    assert n == 14
    dense = np.array([apply_lambda(spec, e) for e in np.eye(n)])
    top = np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1]
    res = minimize_G(spec, 1e-5, cg_tol=1e-10)
    assert res.cg_iterations >= hum.RITZ_DIRECTIONS
    assert abs(res.ritz.values[0] - top) <= 1e-6 * top


def test_minimize_refines_a_drifted_shift(spec, monkeypatch):
    eps_list = (1e-1, 1e-3)
    cg_tol = 1e-9
    clean = minimize_G(spec, eps_list, cg_tol=cg_tol)
    calls = []

    def drifting(apply, b, tol_rel, max_iter, shifts, preconditioner=None):
        res = conjugate_gradient(apply, b, tol_rel=tol_rel, max_iter=max_iter, shifts=shifts,
                                 preconditioner=preconditioner)
        calls.append(tuple(shifts))
        if len(shifts) > 1:
            res.xs[0] = res.xs[0] * (1.0 + 1e-6)  # drift on the first shift
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


def _record_schedule(monkeypatch):
    """Record the inner_tol of every grad_G call, in order, and for each CG
    run its tol_rel and the residual r it hands each apply."""
    tols, runs = [], []
    original_grad, original_cg = hum.grad_G, hum.conjugate_gradient

    def grad(*args, inner_tol, **kwargs):
        tols.append(inner_tol)
        return original_grad(*args, inner_tol=inner_tol, **kwargs)

    def cg(apply, b, tol_rel, **kwargs):
        residuals = []
        runs.append((tol_rel, residuals))

        def recorded(x, r):
            residuals.append(r)
            return apply(x, r)

        return original_cg(recorded, b, tol_rel=tol_rel, **kwargs)

    monkeypatch.setattr(hum, "grad_G", grad)
    monkeypatch.setattr(hum, "conjugate_gradient", cg)
    return tols, runs


def _relaxed(tight, tol_rel, residuals):
    return [max(tight, min(hum.INNER_TOL_MAX, hum.RELAX * tol_rel / r)) for r in residuals]


def test_lambda_applies_relax_as_the_unshifted_residual_falls(spec, monkeypatch):
    """The affine solve runs its inner solves at tight = min(cg_tol/10,
    1e-10) and each CG apply at max(tight, min(INNER_TOL_MAX, RELAX cg_tol
    / r)), r the residual CG handed it: at tight while r is large, looser
    as r falls.  Each single-eps run hands apply the tolerances of the
    5-eps sweep up to its own stop."""
    cg_tol = 1e-10
    tight = min(cg_tol / 10.0, 1e-10)
    tols, runs = _record_schedule(monkeypatch)
    minimize_G(spec, EPS_SWEEP, cg_tol=cg_tol)
    (tol_rel, residuals), = runs
    assert tol_rel == cg_tol and residuals[0] == 1.0
    assert tols == [tight] + _relaxed(tight, cg_tol, residuals)
    assert tols[1] == tight and max(tols) >= 1e3 * tight
    sweep = tols[1:]
    for eps in EPS_SWEEP:
        tols.clear()
        minimize_G(spec, eps, cg_tol=cg_tol)
        assert tols[1:] == sweep[:len(tols) - 1]


def test_relaxed_applies_keep_each_eps_within_cg_tol_of_the_tight_residual(spec):
    """The relaxed applies cost the solution no accuracy that cg_tol sees:
    each eps of a sweep meets cg_tol also when its psi0 is evaluated with
    every inner solve at 1e-14, not only against the products CG applied."""
    cg_tol = 1e-10
    for res in minimize_G(spec, EPS_SWEEP, cg_tol=cg_tol):
        tight = grad_G(spec, res.psi0, eps=res.eps, inner_tol=1e-14)
        assert res.true_residual <= cg_tol
        assert np.linalg.norm(tight) / res.b_norm <= cg_tol


def test_warm_refinement_relaxes_against_its_own_tolerance(spec, rng, monkeypatch):
    """A warm start's evaluation runs at min(cg_tol/10, 1e-10); its
    refinement's applies relax from that run's own tol_rel, cg_tol
    ||b|| / ||r_start||, never below that tolerance."""
    eps, cg_tol = 1e-3, 1e-9
    cold = minimize_G(spec, eps, cg_tol=cg_tol)
    start = replace(cold, psi0=cold.psi0 + 1e-3 * norm_h(spec.grid, cold.psi0) * _random_psi0(spec, rng))
    tols, runs = _record_schedule(monkeypatch)
    warm = minimize_G(spec, eps, cg_tol=cg_tol, start=start)
    (tol_rel, residuals), = runs
    assert tol_rel == pytest.approx(cg_tol / warm.cg_residuals[0], rel=1e-12) and tol_rel > cg_tol
    tight = min(cg_tol / 10.0, 1e-10)
    assert tols == [tight] + _relaxed(tight, tol_rel, residuals)
    assert warm.true_residual <= cg_tol


def test_minimize_warm_start_at_its_own_solution_takes_no_cg(spec):
    """A start that already meets cg_tol is accepted as it is: no CG
    iteration, one residual row, the same psi0 bit for bit.  The cold run
    combines its fields from the Lambda applies and the warm start solves
    for them, so residual and terminal norm agree to rounding."""
    cold = minimize_G(spec, 1e-3, cg_tol=1e-9)
    warm = minimize_G(spec, 1e-3, cg_tol=1e-9, start=cold)
    assert warm.cg_iterations == 0
    assert len(warm.cg_residuals) == 1
    assert abs(warm.cg_residuals[0] - cold.true_residual) <= 1e-14  # in units of ||b||
    assert np.array_equal(warm.psi0, cold.psi0)
    assert warm.terminal_norm == pytest.approx(cold.terminal_norm, rel=1e-12)


def test_minimize_warm_start_refines_a_perturbed_start(spec, rng):
    eps, cg_tol = 1e-3, 1e-9
    cold = minimize_G(spec, eps, cg_tol=cg_tol)
    start = replace(cold, psi0=cold.psi0 + 1e-3 * norm_h(spec.grid, cold.psi0) * _random_psi0(spec, rng))
    warm = minimize_G(spec, eps, cg_tol=cg_tol, start=start)
    assert 0 < warm.cg_iterations < cold.cg_iterations
    assert len(warm.cg_residuals) == warm.cg_iterations + 1
    assert warm.cg_residuals[0] > cg_tol
    assert warm.true_residual <= cg_tol
    assert warm.terminal_norm == pytest.approx(cold.terminal_norm, rel=1e-6)


def test_minimize_warm_start_takes_a_single_eps(spec):
    with pytest.raises(ValueError):
        minimize_G(spec, EPS_SWEEP, start=minimize_G(spec, 1e-3))


def _log_solves(monkeypatch):
    """Log, in call order, "nash" and "coupled" for each Nash and
    coupled-adjoint solve minimize_G makes, and ("cg", iterations) as each
    CG run returns."""
    log = []
    for name, label in (("solve_nash_fixed_point", "nash"), ("solve_coupled_adjoint", "coupled")):
        def logged(*args, _original=getattr(hum, name), _label=label, **kwargs):
            log.append(_label)
            return _original(*args, **kwargs)

        monkeypatch.setattr(hum, name, logged)

    def logged_cg(*args, _original=hum.conjugate_gradient, **kwargs):
        res = _original(*args, **kwargs)
        log.append(("cg", res.iterations))
        return res

    monkeypatch.setattr(hum, "conjugate_gradient", logged_cg)
    return log


def test_sweep_solves_for_b_and_each_apply_only(spec, monkeypatch):
    """A 5-eps sweep makes one Nash and one coupled-adjoint solve for b and
    one of each per Lambda apply: every eps takes its fields from those,
    with no solve after the CG run."""
    log = _log_solves(monkeypatch)
    minimize_G(spec, EPS_SWEEP, cg_tol=1e-10)
    (cg_at, (_, iterations)), = [(k, entry) for k, entry in enumerate(log) if isinstance(entry, tuple)]
    assert log.count("nash") == log.count("coupled") == 1 + iterations
    assert cg_at == len(log) - 1


def test_refined_warm_start_solves_nothing_after_its_refinement(spec, rng, monkeypatch):
    """A warm start makes no affine solve: its start is solved once, and the
    refined psi0 takes its fields from the refinement's applies."""
    eps, cg_tol = 1e-3, 1e-9
    cold = minimize_G(spec, eps, cg_tol=cg_tol)
    start = replace(cold, psi0=cold.psi0 + 1e-3 * norm_h(spec.grid, cold.psi0) * _random_psi0(spec, rng))
    log = _log_solves(monkeypatch)
    warm = minimize_G(spec, eps, cg_tol=cg_tol, start=start)
    assert warm.cg_iterations > 0
    assert log[-1] == ("cg", warm.cg_iterations)
    assert log.count("nash") == log.count("coupled") == 1 + warm.cg_iterations


@pytest.mark.parametrize("warm", [False, True])
def test_each_eps_fields_match_a_fresh_solve_at_its_psi0(spec, rng, warm):
    """f and w of every eps, a cold sweep or a refined warm start, are those
    a coupled-adjoint and a Nash solve with the data give at its psi0."""
    if warm:
        cold = minimize_G(spec, 1e-3, cg_tol=1e-10)
        start = replace(cold, psi0=cold.psi0 + 1e-3 * norm_h(spec.grid, cold.psi0) * _random_psi0(spec, rng))
        results = [minimize_G(spec, 1e-3, cg_tol=1e-10, start=start)]
    else:
        results = minimize_G(spec, EPS_SWEEP, cg_tol=1e-10)
    for res in results:
        f = leader_from_psi(spec, solve_coupled_adjoint(spec, res.psi0, tol_rel=1e-13))
        w = solve_nash_fixed_point(spec, f, tol_rel=1e-13).w
        assert np.linalg.norm(res.f - f) <= 1e-10 * np.linalg.norm(f)
        assert np.linalg.norm(res.w - w) <= 1e-10 * np.linalg.norm(w)
        assert res.terminal_norm == norm_h(spec.grid, res.w[-1])


def test_leader_field_is_masked_psi(spec, rng):
    psi0 = _random_psi0(spec, rng)
    st = solve_coupled_adjoint(spec, psi0)
    f = leader_from_psi(spec, st)
    chi = spec.leader_mask.interior_vector()
    assert np.array_equal(f[1:], st.psi[:-1] * chi)
    assert np.all(f[0] == 0.0)


def test_trajectory_zero_case(spec):
    g = spec.grid
    x = g.coords(0)
    L = g.lengths[0]
    ubar0 = to_interior(g, 4.0 * (x / L) ** 2 * (1 - x / L) ** 2)
    base = spec.with_(w0=ubar0)
    ubar = solve_forward(base, w0=ubar0)
    res = control_to_trajectory(spec, u0=ubar0, ubar0=ubar0, zetas=(ubar, ubar), eps=1e-4)
    assert np.all(res.hum.f == 0.0)
    assert res.hum.terminal_norm == 0.0
    assert np.allclose(res.u, ubar, atol=1e-14)


def test_trajectory_mismatch_is_terminal_norm(spec):
    g = spec.grid
    x = g.coords(0)
    L = g.lengths[0]
    ubar0 = to_interior(g, 2.0 * (x / L) ** 2 * (1 - x / L) ** 2)
    zetas = (np.zeros((g.nt + 1, g.n_interior)),) * 2
    res = control_to_trajectory(spec, u0=spec.w0, ubar0=ubar0, zetas=zetas, eps=1e-3)
    diff = res.u[-1] - res.ubar[-1]
    assert norm_h(g, diff) == pytest.approx(res.hum.terminal_norm, rel=1e-12)


def test_trajectory_sweep_drops_tenfold(spec):
    g = spec.grid
    zetas = (np.zeros((g.nt + 1, g.n_interior)),) * 2
    first = control_to_trajectory(spec, spec.w0, np.zeros(g.n_interior), zetas, 1e-1).hum.terminal_norm
    last = control_to_trajectory(spec, spec.w0, np.zeros(g.n_interior), zetas, 1e-5).hum.terminal_norm
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
    ones = np.ones((g.nt + 1, g.n_interior))
    from hierctrl.mesh import build_mask
    from hierctrl.operators import ProblemSpec

    spec = ProblemSpec(
        grid=g, a=np.zeros((g.nt + 1, g.n_interior)), b=(np.zeros((g.nt + 1, g.n_interior)),),
        leader_mask=build_mask(g, (0.25, 0.75)),
        follower_masks=(build_mask(g, (0.2, 0.5)), build_mask(g, (0.5, 0.8))),
        target_masks=(full_mask(g), full_mask(g)),
        alpha=(1e-3, 1e-3), mu=(1.0, 1.0),
        targets=(ones, ones), w0=np.zeros(g.n_interior),
    )
    out = check_target_condition(spec, np.zeros((g.nt + 1,) + g.nx))  # theta = 1
    assert out[0][0] == pytest.approx(1.0, abs=1e-12)
    assert out[0][1] is False


def test_check_target_condition_decaying_theta_finite(spec):
    """Constant offset against the vanishing weight: finite at desk
    resolution, growing toward the horizon (the weight enforces targets
    that approach the free trajectory)."""
    from hierctrl.carleman import build_carleman_weights

    g = spec.grid
    w = build_carleman_weights(g, "shared", lam=0.05, s=4.0, center=0.7 * g.lengths[0])
    ones = np.ones((g.nt + 1, g.n_interior))
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
                k = np.shape(sources)[0]
            else:
                k = np.shape(datum)[0] if np.ndim(datum) == 2 else 1
            calls.append((_name, k))
            return _original(self, datum, sources, *args, **kwargs)

        monkeypatch.setattr(TimeStepper, name, counted)
    return calls


def test_lambda_apply_marches_on_benchmark_grid(tmp_path, rng, monkeypatch):
    """At the benchmark's rho of about 1e-4, Banach's bound stops the coupled
    adjoint and the Nash solve of one Lambda apply after 3 sweeps each, at
    2 marches a sweep, less the coupled adjoint's first companion march
    and the Nash solve's first adjoint march: 10 marches, where the change
    rule alone made 16."""
    spec = _benchmark_grid_spec(tmp_path)
    psi0 = rng.standard_normal(spec.grid.n_interior)
    calls = _count_marches(monkeypatch)
    apply_lambda(spec, psi0, inner_tol=1e-11)  # the inner tolerance of the shipped cg_tol = 1e-10
    assert len(calls) <= 10


def test_benchmark_sweep_job_applies_lambda_at_most_16_times(tmp_path, monkeypatch):
    """The seed-1 hum_sweep_1d benchmark job 0, written by perfbench's own
    job generator: its 5-eps sweep evaluates grad_G at most 16 times, the
    affine solve included (28 with textbook multi-shift CG, which loses
    orthogonality on Lambda's cluster near zero)."""
    perfbench = CONFIGS.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import workloads

    workload = workloads.WORKLOADS["hum_sweep_1d"]
    ini = workloads.write_jobs(workload, 1, 1, CONFIGS.parent, tmp_path / "jobs")[0]
    calls = []
    original = hum.grad_G

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(hum, "grad_G", counted)
    assert cli.run(workload.subcommand, str(ini), str(tmp_path / "out")) == 0
    assert len(calls) <= 16


def test_benchmark_semilinear_job_marches_at_most_213_times(tmp_path, monkeypatch):
    """The seed-1 semilinear_1d benchmark job 0, written by perfbench's own
    job generator: its outer loop evaluates grad_G at most 25 times and
    marches at most 213 times (253 with every Lambda apply's inner solves
    at min(cg_tol/10, 1e-10))."""
    perfbench = CONFIGS.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import workloads

    workload = workloads.WORKLOADS["semilinear_1d"]
    ini = workloads.write_jobs(workload, 1, 1, CONFIGS.parent, tmp_path / "jobs")[0]
    calls = {"grad": 0, "march": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hum, "grad_G", counted("grad", hum.grad_G))
    monkeypatch.setattr(TimeStepper, "_march", counted("march", TimeStepper._march))
    assert cli.run(workload.subcommand, str(ini), str(tmp_path / "out")) == 0
    assert calls["grad"] <= 25
    assert calls["march"] <= 213


def _count_couplings(monkeypatch):
    """Count Coupling.apply calls."""
    calls = []
    original = Coupling.apply

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Coupling, "apply", counted)
    return calls


def test_zero_data_nash_first_sweep_marches_the_state_alone(spec, rng, monkeypatch):
    """With zero targets the first sweep's iterate, the zero start, gives
    zero adjoints: that sweep applies no coupling and marches the state
    alone, and each later sweep couples and marches twice (shared case)."""
    zspec = spec.with_zero_data()
    f = leader_from_psi(zspec, solve_coupled_adjoint(zspec, _random_psi0(spec, rng)))
    marches, couplings = _count_marches(monkeypatch), _count_couplings(monkeypatch)
    sol = solve_nash_fixed_point(zspec, f)
    k = sol.iterations
    assert k > 2
    assert marches == [("march_forward", 1)] + [("march_backward", 1), ("march_forward", 1)] * (k - 1)
    assert len(couplings) == 2 * (k - 1)


def test_nash_with_a_target_couples_its_first_sweep(spec, monkeypatch):
    """A non-zero target enters the first sweep's adjoint source, so every
    sweep couples and marches its adjoint, the first one too."""
    g = spec.grid
    wd = np.full((g.nt + 1, g.n_interior), 0.1)
    tspec = spec.with_(targets=(wd, wd))
    marches, couplings = _count_marches(monkeypatch), _count_couplings(monkeypatch)
    sol = solve_nash_fixed_point(tspec, leader_bump(g))
    assert sol.iterations > 2
    assert marches == [("march_backward", 1), ("march_forward", 1)] * sol.iterations
    assert len(couplings) == 2 * sol.iterations


def test_minimize_builds_each_inner_setup_once_per_spec(spec, monkeypatch):
    """minimize_G's affine solve and every Lambda apply share two specs,
    the data spec and its zero-data copy, so the sweep setup, which holds
    both directions, is built once for each however many CG iterations
    run.  The affine solve's coupled adjoint has psi0 = 0 and returns zeros
    without a sweep, so the data spec's setup is built by its Nash solve."""
    built = []
    original = nash._sweep_setup

    def counted(spec):
        built.append(spec)
        return original(spec)

    monkeypatch.setattr(nash, "_sweep_setup", counted)
    res = minimize_G(spec, 1e-3, cg_tol=1e-10)
    assert res.cg_iterations > 5
    assert len(built) == 2 and built[0] is not built[1]


def test_coupled_adjoint_sweep_makes_two_marches(spec, rng, monkeypatch):
    """The forward companions of the previous psi march in one march (one
    column per distinct target weight), then psi backward: 2 marches per
    sweep, not 3, and the first sweep, whose companions are zero, marches
    psi alone."""
    psi0 = _random_psi0(spec, rng)
    calls = _count_marches(monkeypatch)
    st = solve_coupled_adjoint(spec, psi0)
    assert st.iterations > 2
    assert len(calls) == 2 * st.iterations - 1


def _assert_matches_oracle(spec, st, psi0):
    _, dn = dense_oracle(spec, psi0=psi0)
    g = spec.grid
    for a, b in zip((st.psi, *st.etas), (dn.psi, *dn.etas)):
        nd = q_norm(g, a - b)
        assert nd <= 1e-8 * max(q_norm(g, b), 1e-300)


@pytest.mark.parametrize("targets", ["shared", "distinct"])
def test_equal_weights_march_one_companion_column(spec, rng, targets, monkeypatch):
    """Equal weights alpha_i chi_di: psi reads only eta_1 + eta_2, so each
    sweep marches that sum as one column (the targets do not enter the
    coupled adjoint).  The companions read from psi match the oracle."""
    if targets == "distinct":
        z = np.ones_like(spec.targets[0])
        spec = spec.with_(targets=(spec.targets[0], z))
    psi0 = _random_psi0(spec, rng)
    calls = _count_marches(monkeypatch)
    st = solve_coupled_adjoint(spec, psi0, tol_rel=1e-13)
    assert st.iterations > 2
    assert calls == [("march_backward", 1)] + [("march_forward", 1), ("march_backward", 1)] * (st.iterations - 1)
    assert st.companions is None
    monkeypatch.undo()
    _assert_matches_oracle(spec, st, psi0)


def test_distinct_weights_march_two_companion_columns(spec, rng, monkeypatch):
    """Different alpha_i keep one companion column per follower in every
    sweep after the first; the solve keeps neither, and the first read
    marches both from the final psi as one 2-column march."""
    spec = spec.with_(alpha=(1e-3, 2.5e-3))
    psi0 = _random_psi0(spec, rng)
    calls = _count_marches(monkeypatch)
    st = solve_coupled_adjoint(spec, psi0, tol_rel=1e-13)
    assert calls == [("march_backward", 1)] + [("march_forward", 2), ("march_backward", 1)] * (st.iterations - 1)
    del calls[:]
    st.etas
    assert calls == [("march_forward", 2)]
    monkeypatch.undo()
    _assert_matches_oracle(spec, st, psi0)


def test_reading_companions_costs_one_two_column_march(spec, rng, monkeypatch):
    """The first read of etas marches eta_1 and eta_2 from psi as one
    2-column march, the companion march of a distinct-case sweep; later
    reads march nothing, and grad_G never reads them."""
    psi0 = _random_psi0(spec, rng)
    st = solve_coupled_adjoint(spec, psi0)
    calls = _count_marches(monkeypatch)
    etas = st.etas
    assert calls == [("march_forward", 2)]
    assert st.etas is etas
    assert calls == [("march_forward", 2)]
    del calls[:]
    grad_G(spec, psi0, eps=0.0)
    assert calls and all(k == 1 for _, k in calls)


@pytest.mark.parametrize("alpha", [(1e-3, 1e-3), (1e-3, 2.5e-3)])
def test_coupled_adjoint_never_forms_controls(spec, rng, alpha, monkeypatch):
    """The companions march -shift(psi) weighed by the control weights,
    so neither the solve nor a read of eta_i forms the Nash controls."""
    calls = []
    monkeypatch.setattr(nash, "_controls_from_adjoints", lambda *args: calls.append(1))
    st = solve_coupled_adjoint(spec.with_(alpha=alpha), _random_psi0(spec, rng))
    st.etas
    assert st.iterations > 2 and calls == []


def _count_fields(monkeypatch):
    """Count full-node space-time arrays built from interior ones:
    Grid.from_interior_levels is the only way to build one."""
    calls = []
    original = Grid.from_interior_levels

    def counted(self, arr):
        calls.append(1)
        return original(self, arr)

    monkeypatch.setattr(Grid, "from_interior_levels", counted)
    return calls


def test_lambda_apply_builds_no_field(monkeypatch):
    """A Lambda apply, the CG matvec, runs on interior arrays from the
    coupled adjoint through the leader control and the Nash solve to w(T):
    on the nx = nt = 64 grid it builds no full-node array."""
    zspec = make_hum_spec(nx=64, nt=64).with_zero_data()
    x = np.random.default_rng(3).standard_normal(zspec.grid.n_interior)
    calls = _count_fields(monkeypatch)
    grad_G(zspec, x, 0.0)
    assert calls == []


def test_minimize_field_count_does_not_grow_with_cg_iterations(monkeypatch):
    """The full-node arrays a HUM solve builds are set-up, not per CG iteration."""
    spec = make_hum_spec(nx=64, nt=64)
    counts, iterations = [], []
    for cg_tol in (1e-4, 1e-10):
        calls = _count_fields(monkeypatch)
        iterations.append(minimize_G(spec, 1e-3, cg_tol=cg_tol).cg_iterations)
        counts.append(len(calls))
        monkeypatch.undo()
    assert iterations[0] < iterations[1]
    assert counts[0] == counts[1]

"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Criterion 2 is implemented exactly
as stated and expected to fail: its test function is a quartic, which the
interior 5-point stencil reproduces exactly while any boundary closure is
either exact on quartics (zero error) or carries an O(1)..O(1/h) defect,
so no consistent scheme can show the requested error ratio ~4 on it (the
mirror closure mandated for the clamped conditions has an exact -4/h
wall-row defect here).  The second-order consistency of the operator is
evidenced instead on a wall-compatible profile in test_operators.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from hierctrl.carleman import (build_carleman_weights, check_case, check_weight_properties,
                               estimate_observability)
from hierctrl.errors import ContractionFailure
from hierctrl.hum import control_to_trajectory, dense_oracle, grad_G, minimize_G
from hierctrl.mesh import build_grid, build_mask, full_mask, inner_h, norm_h
from hierctrl.nash import cost_followers, q_norm, solve_nash_fixed_point, verify_first_order
from hierctrl.operators import ProblemSpec, assemble_biharmonic
from hierctrl.semilinear import (preset_tanh, preset_zero, semilinear_null_control,
                                 solve_quasi_equilibrium, verify_equilibrium_sufficiency)

from conftest import leader_bump, make_hum_spec, make_nash_spec
from oracles import (apply_lambda, duality_gap, eval_G, sample_bound, solve_forward, spatial_operator,
                     step_matrix, to_interior)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(n, ok, detail):
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_transpose_contract_and_duality():
    t0 = time.monotonic()
    g = build_grid(1, 1.0, 16, 1.0, 8)
    rng = np.random.default_rng(101)
    shape = (g.nt + 1,) + g.nx
    z = np.zeros((g.nt + 1, g.n_interior))
    spec = ProblemSpec(
        grid=g,
        a=g.to_interior_levels(rng.standard_normal(shape)),
        b=(g.to_interior_levels(rng.standard_normal(shape)),),
        leader_mask=build_mask(g, (0.25, 0.75)),
        follower_masks=(build_mask(g, (0.2, 0.5)), build_mask(g, (0.5, 0.8))),
        target_masks=(build_mask(g, (0.35, 0.65)),) * 2,
        alpha=(1e-3, 1e-3), mu=(1.0, 1.0), targets=(z, z), w0=np.zeros(g.n_interior),
    )
    st = spec.stepper
    import scipy.sparse as sp

    eye = sp.identity(g.n_interior, format="csr")
    max_entry = 0.0
    for j in range(1, g.nt + 1):
        fwd_step = eye + g.dt * spatial_operator(st.biharm, st.grads, spec.a, spec.b, j)
        adj_step = step_matrix(st, j, "adjoint").T  # matrix the backward march solves with
        max_entry = max(max_entry, abs(adj_step - fwd_step.T).max())
    gaps = []
    for _ in range(10):
        gaps.append(duality_gap(
            spec,
            rng.standard_normal(g.n_interior),
            rng.standard_normal((g.nt + 1, g.n_interior)),
            rng.standard_normal(g.n_interior),
            rng.standard_normal((g.nt + 1, g.n_interior)),
        ))
    elapsed = time.monotonic() - t0
    ok = max_entry == 0.0 and max(gaps) <= 1e-9 and elapsed < 5.0
    assert _report(1, ok, f"transpose diff {max_entry}, max duality gap {max(gaps):.2e}, {elapsed:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the test function is a quartic, exactly "
    "reproduced by the interior stencil, while the clamped mirror closure has "
    "an exact -4/h defect at wall-adjacent rows (u'''(0) = -12 != 0); any "
    "closure exact on quartics gives zero error instead -- no consistent "
    "scheme shows ratio ~4 on this function; see README, \"Install and test\"",
)
def test_criterion_02_biharmonic_consistency_ratio():
    errs = []
    for nx in (32, 64, 128):
        g = build_grid(1, 1.0, nx, 1.0, 8)
        x = g.coords(0)
        u = x**2 * (1 - x) ** 2
        app = assemble_biharmonic(g) @ to_interior(g, u)
        errs.append(float(np.max(np.abs(app - 24.0))))
    ratios = [errs[k] / errs[k + 1] for k in range(len(errs) - 1)]
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    _report(2, ok, f"errors {['%.3g' % e for e in errs]}, ratios {['%.3g' % r for r in ratios]}")
    assert ok


def test_criterion_03_nash_fixed_point_vs_oracle():
    t0 = time.monotonic()
    spec = make_nash_spec(nx=12, nt=10, alpha=1e-3, mu=1.0)
    f = leader_bump(spec.grid)
    sol = solve_nash_fixed_point(spec, f, tol_rel=1e-12)
    oracle, _ = dense_oracle(spec, f)
    g = spec.grid
    rel = q_norm(g, sol.w - oracle.w) / max(q_norm(g, oracle.w), 1e-300)
    res = verify_first_order(spec, sol)
    elapsed = time.monotonic() - t0
    ok = rel <= 1e-8 and max(res) <= 1e-8 and elapsed < 30.0
    assert _report(3, ok, f"rel distance {rel:.2e}, residuals {res[0]:.2e}/{res[1]:.2e}, {elapsed:.2f}s")


def test_criterion_04_nash_local_optimality():
    spec = make_nash_spec()
    g = spec.grid
    f = leader_bump(g)
    sol = solve_nash_fixed_point(spec, f, tol_rel=1e-13)
    base = cost_followers(spec, sol.w, sol.controls)
    rng = np.random.default_rng(104)
    worst = np.inf
    ok = True
    for i in range(2):
        vn = q_norm(g, sol.controls[i])
        for _ in range(20):
            delta = rng.standard_normal((g.nt + 1, g.n_interior))
            delta *= spec.follower_masks[i].interior_vector()
            delta[0] = 0.0
            delta *= (1e-3 * vn + 1e-6) / q_norm(g, delta)
            vi = sol.controls[i] + delta
            pair = (vi, sol.controls[1]) if i == 0 else (sol.controls[0], vi)
            perturbed = cost_followers(spec, solve_forward(spec, f, *pair), pair)
            worst = min(worst, perturbed[i] - base[i])
            ok = ok and perturbed[i] >= base[i]
    assert _report(4, ok, f"min cost increase over 40 perturbations {worst:.3e}")


def test_criterion_05_divergence_detection():
    spec = make_nash_spec().with_(alpha=(10.0, 10.0))  # alpha/mu inflated 1e4
    t0 = time.monotonic()
    raised = False
    ratio = None
    try:
        solve_nash_fixed_point(spec, tol_rel=1e-12, max_iter=10000)
    except ContractionFailure as exc:
        raised = True
        ratio = exc.ratio
    elapsed = time.monotonic() - t0
    ok = raised and elapsed < 60.0
    assert _report(5, ok, f"ContractionFailure with ratio {ratio}, {elapsed:.2f}s")


def test_criterion_06_hum_gradient_check():
    spec = make_hum_spec(nx=16, nt=16)
    g = spec.grid
    eps = 1e-3
    rng = np.random.default_rng(106)
    psi0 = rng.standard_normal(g.n_interior)
    grad = grad_G(spec, psi0, eps, inner_tol=1e-13)
    worst = 0.0
    for _ in range(5):
        d = rng.standard_normal(g.n_interior)
        an = inner_h(g, grad, d)
        best = np.inf
        for h in (1e-4, 1e-5, 1e-6):
            fd = (eval_G(spec, psi0 + h * d, eps, tol_rel=1e-13)
                  - eval_G(spec, psi0 - h * d, eps, tol_rel=1e-13)) / (2 * h)
            best = min(best, abs(fd - an) / max(abs(an), 1e-300))
        worst = max(worst, best)
    ok = worst <= 1e-6
    assert _report(6, ok, f"max FD/adjoint relative error {worst:.2e} over 5 directions")


def test_criterion_07_lambda_symmetry_psd():
    spec = make_hum_spec()
    g = spec.grid
    rng = np.random.default_rng(107)
    worst_sym = 0.0
    worst_psd = 0.0
    ok = True
    for _ in range(10):
        a = rng.standard_normal(g.n_interior)
        b = rng.standard_normal(g.n_interior)
        la = apply_lambda(spec, a, inner_tol=1e-12)
        lb = apply_lambda(spec, b, inner_tol=1e-12)
        sym = abs(inner_h(g, la, b) - inner_h(g, a, lb))
        ok = ok and sym <= 1e-9 * norm_h(g, a) * norm_h(g, b)
        worst_sym = max(worst_sym, sym / (norm_h(g, a) * norm_h(g, b)))
        quad = inner_h(g, la, a)
        ok = ok and quad >= -1e-10 * norm_h(g, a) ** 2
        worst_psd = min(worst_psd, quad / norm_h(g, a) ** 2)
    assert _report(7, ok, f"max symmetry gap {worst_sym:.2e}, min Rayleigh {worst_psd:.2e}")


def test_criterion_08_null_control_sweep():
    t0 = time.monotonic()
    spec = make_hum_spec(nx=16, nt=16)
    tns = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        tns.append(minimize_G(spec, eps, cg_tol=1e-10).terminal_norm)
    elapsed = time.monotonic() - t0
    decreasing = all(tns[k] > tns[k + 1] for k in range(len(tns) - 1))
    drop = tns[0] / tns[-1]
    ok = decreasing and drop >= 10.0 and elapsed < 180.0
    assert _report(8, ok, f"terminal norms {['%.3e' % t for t in tns]}, drop {drop:.1f}x, {elapsed:.1f}s")


def test_criterion_09_trajectory_zero_case():
    spec = make_hum_spec()
    g = spec.grid
    x = g.coords(0)
    L = g.lengths[0]
    ubar0 = to_interior(g, 3.0 * (x / L) ** 2 * (1 - x / L) ** 2)
    ubar = solve_forward(spec.with_(w0=ubar0), w0=ubar0)
    res = control_to_trajectory(spec, u0=ubar0, ubar0=ubar0, zetas=(ubar, ubar), eps=1e-4)
    f_zero = bool(np.all(res.hum.f == 0.0))
    ok = f_zero and res.hum.terminal_norm == 0.0
    assert _report(9, ok, f"f == 0: {f_zero}, terminal mismatch {res.hum.terminal_norm}")


def test_criterion_10_carleman_weight_properties():
    g = build_grid(1, 1.0, 24, 1.0, 24)
    w = build_carleman_weights(g, "shared", center=0.5)  # default lambda, s
    rep = check_weight_properties(w, n_samples=100, seed=110)
    xi = w.xi
    xi_inv_everywhere = float(np.max(1.0 / xi)) <= g.T / 2.0 + 1e-15
    ok = (rep.identity_max_rel <= 1e-12 and rep.xi_inv_ok and xi_inv_everywhere
          and rep.time_bound_relaxed_ok)
    assert _report(
        10, ok,
        f"identity {rep.identity_max_rel:.2e}, xi_inv ok {xi_inv_everywhere}, "
        f"strict time bound {rep.time_bound_strict_ok} (recorded), relaxed {rep.time_bound_relaxed_ok}")


def test_criterion_11_observability_estimator():
    spec = make_hum_spec()
    g = spec.grid
    check_case(spec, "shared")
    w = build_carleman_weights(g, "shared", lam=0.05, s=4.0, center=0.7 * g.lengths[0])
    rep = estimate_observability(spec, w, n_samples=50, seed=111)
    enlarged = estimate_observability(spec.with_(leader_mask=full_mask(g)), w,
                                      n_samples=50, seed=111)
    ok = (rep.all_finite and rep.all_denominators_positive
          and all(r > 0 for r in rep.ratios)
          and enlarged.max_ratio <= rep.max_ratio)
    assert _report(
        11, ok,
        f"50 ratios max {rep.max_ratio:.3g}, enlarged max {enlarged.max_ratio:.3g}, "
        f"denominators positive {rep.all_denominators_positive}")


def test_criterion_12_semilinear_reduction():
    nash_spec = make_nash_spec()
    f = leader_bump(nash_spec.grid)
    lin = solve_nash_fixed_point(nash_spec, f, tol_rel=1e-12)
    qe = solve_quasi_equilibrium(nash_spec, preset_zero(), f, tol=1e-10)
    g = nash_spec.grid
    rel_nash = q_norm(g, qe.w - lin.w) / max(q_norm(g, lin.w), 1e-300)

    hum_spec = make_hum_spec()
    gh = hum_spec.grid
    z = np.zeros((gh.nt + 1, gh.n_interior))
    lin_tr = control_to_trajectory(hum_spec, hum_spec.w0, np.zeros(gh.n_interior), (z, z),
                                   eps=1e-4, cg_tol=1e-9)
    sem = semilinear_null_control(hum_spec, preset_zero(), np.zeros(gh.n_interior), eps=1e-4, cg_tol=1e-9)
    rel_hum = q_norm(gh, sem.f - lin_tr.hum.f) / \
        max(q_norm(gh, lin_tr.hum.f), 1e-300)
    ok = rel_nash <= 1e-10 and rel_hum <= 1e-10
    assert _report(12, ok, f"nash reduction {rel_nash:.2e}, null-control reduction {rel_hum:.2e}")


def test_criterion_13_semilinear_null_control():
    spec = make_hum_spec()
    nl = preset_tanh(0.5)
    res = semilinear_null_control(spec, nl, np.zeros(spec.grid.n_interior), eps=1e-4,
                                  outer_tol=1e-9, cg_tol=1e-9, max_outer=30)
    bound = sample_bound(nl, spec.grid.dim)
    ok = (res.outer_iterations <= 30 and np.isfinite(res.terminal_mismatch)
          and bound <= 0.5 + 1e-12)
    assert _report(
        13, ok,
        f"outer {res.outer_iterations}, mismatch {res.terminal_mismatch:.3e}, "
        f"sampled |F_u| bound {bound:.3f}")


def test_criterion_14_second_order_sufficiency():
    spec = make_nash_spec(alpha=1e-3, mu=1.0)
    f = leader_bump(spec.grid)
    nl = preset_tanh(0.5)
    qe = solve_quasi_equilibrium(spec, nl, f, tol=1e-11)
    rep = verify_equilibrium_sufficiency(spec, nl, qe, n_directions=20, seed=114)
    big = spec.with_(mu=(100.0, 100.0))
    qe_big = solve_quasi_equilibrium(big, nl, f, tol=1e-11)
    rep_big = verify_equilibrium_sufficiency(big, nl, qe_big, n_directions=20, seed=114)
    ok = (rep.all_positive
          and rep_big.min_form[0] > rep.min_form[0]
          and rep_big.min_form[1] > rep.min_form[1])
    assert _report(
        14, ok,
        f"min forms {rep.min_form[0]:.6f}/{rep.min_form[1]:.6f}, "
        f"mu x100 min forms {rep_big.min_form[0]:.3f}/{rep_big.min_form[1]:.3f}")


def test_criterion_15_determinism(tmp_path):
    from hierctrl.cli import run

    pairs = [
        ("null-control", CONFIGS / "null_control_1d.ini", "sweep.csv"),
        ("observability", CONFIGS / "observability_1d.ini", "observability.csv"),
        ("second-order", CONFIGS / "second_order_1d.ini", "second_order.csv"),
    ]
    ok = True
    details = []
    for sub, cfg, csv_name in pairs:
        out1 = tmp_path / f"{sub}-1"
        out2 = tmp_path / f"{sub}-2"
        assert run(sub, cfg, out1) == 0
        assert run(sub, cfg, out2) == 0
        same = (out1 / csv_name).read_bytes() == (out2 / csv_name).read_bytes()
        ok = ok and same
        details.append(f"{csv_name}: {'identical' if same else 'DIFFER'}")
    assert _report(15, ok, "; ".join(details))

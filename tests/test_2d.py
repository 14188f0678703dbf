"""Two-dimensional integration coverage: the solver stack is
dimension-agnostic; these exercise the 13-point operator, the coupled
solves, and the sufficiency checker's dimension flag on a small 2D case."""

import numpy as np
import pytest

from hierctrl.carleman import build_carleman_weights, carleman_ratio_report, check_weight_properties
from hierctrl.hum import dense_oracle, grad_G, minimize_G
from hierctrl.mesh import build_grid, build_mask, inner_h
from hierctrl.nash import q_norm, solve_nash_fixed_point
from hierctrl.operators import ProblemSpec
from hierctrl.semilinear import preset_tanh, solve_quasi_equilibrium, verify_equilibrium_sufficiency

from conftest import constant_in_time
from oracles import eval_G, to_interior


@pytest.fixture(scope="module")
def spec2d():
    L = 6.0
    g = build_grid(2, (L, L), (8, 8), 1.0, 6)
    X, Y = g.meshes()
    w0 = 256.0 * (X / L) ** 2 * (1 - X / L) ** 2 * (Y / L) ** 2 * (1 - Y / L) ** 2
    z = np.zeros((g.nt + 1, g.n_interior))
    box = lambda lo, hi: ((lo * L, hi * L), (0.1 * L, 0.9 * L))
    return ProblemSpec(
        grid=g,
        a=z,
        b=(z, z),
        leader_mask=build_mask(g, box(0.25, 0.75)),
        follower_masks=(build_mask(g, box(0.1, 0.45)), build_mask(g, box(0.55, 0.9))),
        target_masks=(build_mask(g, box(0.3, 0.8)),) * 2,
        alpha=(1e-3, 1e-3),
        mu=(1.0, 1.0),
        targets=(z, z),
        w0=to_interior(g, w0),
    )


def test_nash_2d_matches_oracle(spec2d):
    g = spec2d.grid
    X, _ = g.meshes()
    f = constant_in_time(g, 0.2 * np.sin(np.pi * X / g.lengths[0]))
    sol = solve_nash_fixed_point(spec2d, f, tol_rel=1e-12)
    oracle, _ = dense_oracle(spec2d, f)
    rel = q_norm(g, sol.w - oracle.w) / max(q_norm(g, oracle.w), 1e-300)
    assert rel <= 1e-8


def test_hum_gradient_2d(spec2d):
    g = spec2d.grid
    rng = np.random.default_rng(31)
    psi0 = rng.standard_normal(g.n_interior)
    grad = grad_G(spec2d, psi0, 1e-3, inner_tol=1e-13)
    d = rng.standard_normal(g.n_interior)
    an = inner_h(g, grad, d)
    h = 1e-5
    fd = (eval_G(spec2d, psi0 + h * d, 1e-3, tol_rel=1e-13)
          - eval_G(spec2d, psi0 - h * d, 1e-3, tol_rel=1e-13)) / (2 * h)
    assert abs(fd - an) / max(abs(an), 1e-300) <= 1e-6


def test_null_control_2d_smoke(spec2d):
    res = minimize_G(spec2d, 1e-3, cg_tol=1e-8)
    assert np.isfinite(res.terminal_norm)
    free = minimize_G(spec2d, 1e3, cg_tol=1e-8)  # huge penalty: nearly no control
    assert res.terminal_norm < free.terminal_norm


def test_sufficiency_dimension_flag_2d(spec2d):
    g = spec2d.grid
    X, _ = g.meshes()
    f = constant_in_time(g, 0.2 * np.sin(np.pi * X / g.lengths[0]))
    nl = preset_tanh(0.3)
    qe = solve_quasi_equilibrium(spec2d, nl, f, tol=1e-9)
    rep = verify_equilibrium_sufficiency(spec2d, nl, qe, n_directions=3, seed=5)
    assert rep.dimension_in_analysis_range
    assert rep.all_positive


def test_carleman_weights_2d():
    g = build_grid(2, (1.0, 1.0), (10, 10), 1.0, 8)
    w = build_carleman_weights(g, "shared", lam=1.0, s=4.0, center=(0.5, 0.5))
    rep = check_weight_properties(w, n_samples=100, seed=7)
    assert rep.identity_ok
    assert rep.xi_inv_ok
    assert rep.time_bound_relaxed_ok
    assert any("corner" in note for note in rep.notes)
    assert np.all(np.exp(w.log_theta[-1]) == 0.0)


@pytest.mark.parametrize("nx", [(9, 10)], ids=["plain"])
def test_carleman_ratio_report_2d(nx):
    """The 2D stencils (Hessian with its mixed term) give finite, positive
    weighted energies on both sides."""
    g = build_grid(2, (1.0, 1.0), nx, 0.5, 6)
    w = build_carleman_weights(g, "shared", lam=1.0, s=2.0, center=(0.5, 0.5))
    rep = carleman_ratio_report(w, n_samples=3, seed=2)
    assert rep.skipped == 0 and len(rep.samples) == 3
    for rec in rep.samples:
        assert all(np.isfinite(rec[k]) and rec[k] > 0 for k in ("lhs", "rhs", "ratio"))

"""Smaller contracts: error guards and optional solver knobs."""

import numpy as np
import pytest

from hierctrl.errors import ShapeMismatch, UnsupportedNonlinearity
from hierctrl.hum import solve_coupled_adjoint
from hierctrl.mesh import build_grid, build_mask, full_mask, integrate
from hierctrl.nash import q_norm, solve_nash_fixed_point
from hierctrl.semilinear import from_expression

from conftest import leader_bump, make_hum_spec, make_nash_spec


def test_integrate_grid_mismatch():
    """integrate reads the grid from the mask: an integrand or a log-weight
    shaped for another grid is rejected."""
    g1 = build_grid(1, 1.0, 9, 1.0, 8)
    g2 = build_grid(1, 1.0, 12, 1.0, 8)
    f = np.zeros((g1.nt + 1,) + g1.nx)
    with pytest.raises(ShapeMismatch):
        integrate(f, full_mask(g2))
    with pytest.raises(ShapeMismatch):
        integrate(f, full_mask(g1), log_weight=np.zeros((g2.nt + 1,) + g2.nx))


def test_nash_damped_iteration_same_solution(nash_spec):
    f = leader_bump(nash_spec.grid)
    full = solve_nash_fixed_point(nash_spec, f, tol_rel=1e-13)
    damped = solve_nash_fixed_point(nash_spec, f, tol_rel=1e-13, damping=0.5)
    g = nash_spec.grid
    rel = q_norm(g, damped.w - full.w) / max(q_norm(g, full.w), 1e-300)
    assert rel <= 1e-10
    assert damped.iterations >= full.iterations  # damping slows a contraction


def test_mu_zero_rejected():
    with pytest.raises(ValueError):
        make_nash_spec(mu=0.0)


def test_negative_alpha_rejected():
    with pytest.raises(ValueError):
        make_nash_spec(alpha=-1.0)


def test_expression_nonlinearity_requires_finite_origin():
    with pytest.raises(UnsupportedNonlinearity):
        from_expression("1/u", bound=1.0, dim=1)


def test_coupled_adjoint_rejects_wrong_shape():
    spec = make_hum_spec()
    with pytest.raises(ShapeMismatch):
        solve_coupled_adjoint(spec, np.zeros(3))


def test_controllability_geometry_check():
    spec = make_hum_spec()
    g = spec.grid
    L = g.lengths[0]
    detached = spec.with_(target_masks=(build_mask(g, (0.02 * L, 0.1 * L)),) * 2)
    assert not detached.has_controllability_geometry()
    with pytest.raises(ValueError):
        detached.require_controllability_geometry()
    from hierctrl.hum import minimize_G

    with pytest.raises(ValueError):
        minimize_G(detached, 1e-3)


def test_zero_data_spec_helper(nash_spec):
    z = nash_spec.with_zero_data()
    assert np.all(z.w0 == 0.0)
    assert all(np.all(t == 0.0) for t in z.targets)
    assert z.alpha == nash_spec.alpha and z.mu == nash_spec.mu

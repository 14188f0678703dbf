"""Carleman-weighted integrals in log form against the product forms they
replaced, on weights where those products are representable: the ratio
report's xi^k exp(2 s alpha) energies, theta^2 in the observability
quotient and theta^{-2} in the target check.  Both routes are the same
quadrature, so they agree to rounding."""

from pathlib import Path

import numpy as np
import pytest

from hierctrl.carleman import build_weights, check_target_condition
from hierctrl.config import build_carleman, build_problem_spec, load_config
from hierctrl.mesh import full_mask, integrate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _ref_qint(grid, levels, mask):
    """The ratio report's old per-level trapezoidal quadrature."""
    tw = np.full(grid.nt + 1, grid.dt)
    tw[0] *= 0.5
    tw[-1] *= 0.5
    w = grid.node_weights() * mask.indicator
    return float(sum(tw[k] * np.sum(levels[k] * w) for k in range(grid.nt + 1)))


def _ref_theta(weights):
    """The old product form xi~^3 exp(s alpha~), zero on the terminal level (shared case)."""
    alpha_ell, xi_ell = build_weights(weights.etas[0], weights.lam, weights.s, "ell-modified")
    e = np.exp(weights.s * alpha_ell)
    out = np.where(e == 0.0, 0.0, xi_ell ** 3 * e)
    out[-1] = 0.0
    return out


def _ref_target_condition(spec, theta):
    """The old per-level target check, where no sample overflows."""
    grid = spec.grid
    tw = np.full(grid.nt + 1, grid.dt)
    tw[0] *= 0.5
    tw[-1] *= 0.5
    nw = grid.node_weights()
    out = []
    for i in range(2):
        wd = grid.from_interior_levels(spec.targets[i])
        mask = spec.target_masks[i].indicator
        total = 0.0
        for k in range(grid.nt + 1):
            positive = theta[k] > 0.0
            integrand = np.where(positive, (wd[k] / np.where(positive, theta[k], 1.0)) ** 2, 0.0)
            assert np.all(integrand * mask <= 1e300)
            total += tw[k] * float(np.sum(integrand * mask * nw))
        out.append(total)
    return out


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("k", range(8))
def test_ratio_report_weights_match_product_form(k):
    """xi^k exp(2 s alpha) E on the shipped carleman weights, on the full
    mask and on omega0."""
    w = build_carleman(load_config(CONFIGS / "carleman_1d.ini"))
    grid = w.grid
    rng = np.random.default_rng(k)
    energy = rng.standard_normal((grid.nt + 1,) + grid.nx) ** 2
    product = w.xi ** k * energy * np.exp(2.0 * w.s * w.alpha)
    assert np.all(np.isfinite(product))
    log_w = 2.0 * w.s * w.alpha + k * np.log(w.xi)
    for mask in (full_mask(grid), w.omega0):
        ours = integrate(energy, mask, log_weight=log_w)
        ref = _ref_qint(grid, product, mask)
        assert ref > 0.0
        assert _rel(ours, ref) <= 1e-14


@pytest.mark.parametrize("config", ["observability_1d.ini", "observability_distinct_1d.ini"])
def test_theta_squared_matches_product_form(config):
    cfg = load_config(CONFIGS / config)
    w = build_carleman(cfg)
    spec = build_problem_spec(cfg)
    grid = spec.grid
    theta = np.exp(w.log_theta)
    energy = np.random.default_rng(3).standard_normal((grid.nt + 1,) + grid.nx) ** 2
    log_th2 = 2.0 * w.log_theta
    for mask in spec.target_masks:
        ours = integrate(energy, mask, log_weight=log_th2)
        ref = integrate(energy * theta**2, mask)
        assert ref > 0.0
        assert _rel(ours, ref) <= 1e-14


def test_theta_inverse_squared_matches_old_target_check():
    """theta^{-2} on the shipped semilinear weights (lambda = 0.05), against
    constant and random targets."""
    cfg = load_config(CONFIGS / "semilinear_1d.ini")
    w = build_carleman(cfg)
    spec = build_problem_spec(cfg)
    grid = spec.grid
    rng = np.random.default_rng(5)
    shape = (grid.nt + 1,) + grid.nx
    for targets in ((0.1 * np.ones(shape),) * 2, (rng.standard_normal(shape), rng.standard_normal(shape))):
        tspec = spec.with_(targets=tuple(grid.to_interior_levels(t) for t in targets))
        ours = check_target_condition(tspec, w.log_theta)
        refs = _ref_target_condition(tspec, _ref_theta(w))
        for (value, infinite), ref in zip(ours, refs):
            assert not infinite and ref > 0.0
            assert _rel(value, ref) <= 1e-14

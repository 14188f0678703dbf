"""The sampled Carleman weights and theta against the per-level loops they
replaced: a separate time factor r(t) with its own singular set, one level
at a time, and theta level by level.  Sampling WeightForm over the whole
space-time array must give the same values, bit for bit."""

import numpy as np
import pytest

from hierctrl.carleman import (ALPHA_FLOOR, XI_CAP, EtaFunction, WeightForm, build_carleman_weights,
                               build_weights)
from hierctrl.mesh import build_grid


def _ref_time_factor(grid, variant):
    t = grid.times()
    T = grid.T
    if variant == "sharp":
        r = np.sqrt(np.maximum(t * (T - t), 0.0))
        singular = (t <= 0.0) | (t >= T)
    elif variant == "ell-modified":
        r = np.where(t <= T / 2.0, T / 2.0, np.sqrt(np.maximum(t * (T - t), 0.0)))
        singular = t >= T
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return r, singular


def _ref_build_weights(eta_fn, lam, s, variant):
    grid = eta_fn.grid
    form = WeightForm(eta_fn, lam, s, variant)
    r, singular = _ref_time_factor(grid, variant)
    A = np.exp(lam * (2.0 * form.M + eta_fn.on_nodes()))
    alpha = np.empty((grid.nt + 1,) + grid.nx)
    xi = np.empty_like(alpha)
    for k in range(grid.nt + 1):
        if singular[k]:
            alpha[k] = ALPHA_FLOOR
            xi[k] = XI_CAP
        else:
            alpha[k] = (A - form.B) / r[k]
            xi[k] = A / r[k]
    return alpha, xi


def _ref_theta(grid, s, pairs):
    def one(alpha_ell, xi_ell):
        out = np.empty((grid.nt + 1,) + grid.nx)
        for k in range(grid.nt + 1):
            e = np.exp(s * alpha_ell[k])
            out[k] = np.where(e == 0.0, 0.0, xi_ell[k] ** 3 * e)
        out[grid.nt] = 0.0
        return out

    cands = [one(a, x) for a, x in pairs]
    return cands[0] if len(cands) == 1 else np.minimum(cands[0], cands[1])


CASES = {
    "1d-shared": (build_grid(1, 1.0, 24, 1.0, 24), dict(case="shared", lam=1.0, s=4.0, center=0.3)),
    "2d-nonsquare": (build_grid(2, (1.0, 1.5), (9, 13), 0.7, 8),
                     dict(case="shared", lam=1.0, s=2.0, center=(0.4, 0.9))),
    "1d-distinct-window": (build_grid(1, 6.0, 30, 1.0, 20),
                           dict(case="distinct", lam=0.05, s=4.0, center=2.6, center2=3.4,
                                window=(1.2, 4.8))),
    "1d-underflow": (build_grid(1, 1.0, 24, 1.0, 24), dict(case="shared", lam=50.0, s=4.0, center=0.5)),
    # xi^3 overflows where exp(s alpha) underflows: theta's e == 0 branch decides
    "1d-cube-overflow": (build_grid(1, 1.0, 24, 1.0, 24), dict(case="shared", lam=400.0, s=4.0, center=0.5)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_weights_and_theta_match_level_loops(name):
    grid, kw = CASES[name]
    with np.errstate(over="ignore", invalid="ignore"):
        w = build_carleman_weights(grid, **kw)
        etas = w.eta_pair or (w.eta_fn,)
        ref = {}
        for variant in ("sharp", "ell-modified"):
            for k, eta_fn in enumerate(etas):
                alpha, xi = build_weights(eta_fn, w.lam, w.s, variant)
                ref[variant, k] = _ref_build_weights(eta_fn, w.lam, w.s, variant)
                assert np.array_equal(alpha.values, ref[variant, k][0])
                assert np.array_equal(xi.values, ref[variant, k][1])
        theta = _ref_theta(grid, w.s, [ref["ell-modified", k] for k in range(len(etas))])
    assert np.array_equal(w.alpha.values, ref["sharp", 0][0])
    assert np.array_equal(w.xi_ell.values, ref["ell-modified", 0][1])
    assert np.array_equal(w.theta.values, theta)


@pytest.mark.parametrize("name", ["1d-underflow", "1d-cube-overflow"])
def test_large_lambda_cases_underflow(name):
    """The large-lambda cases reach theta's e == 0 branch on levels that are
    not singular; in the second, xi^3 is infinite there too."""
    grid, kw = CASES[name]
    with np.errstate(over="ignore", invalid="ignore"):
        w = build_carleman_weights(grid, **kw)
        inner = slice(1, grid.nt)
        assert np.all(np.isfinite(w.alpha_ell.values[inner]))
        assert np.all(np.exp(w.s * w.alpha_ell.values[inner]) == 0.0)
        assert np.isinf(w.xi_ell.values[inner] ** 3).any() == (name == "1d-cube-overflow")
    assert not w.theta.values.any()


def test_distinct_window_case_has_two_weights():
    """The windowed case samples two different eta functions."""
    grid, kw = CASES["1d-distinct-window"]
    w = build_carleman_weights(grid, **kw)
    (a1, _), (a2, _) = w.mod_pair
    assert w.otilde is not None
    assert not np.array_equal(a1.values, a2.values)


def test_unknown_variant_rejected():
    fn = EtaFunction(build_grid(1, 1.0, 12, 1.0, 8), 0.5)
    with pytest.raises(ValueError, match="unknown variant"):
        WeightForm(fn, 1.0, 4.0, "flat")
    with pytest.raises(ValueError, match="unknown variant"):
        build_weights(fn, 1.0, 4.0, "flat")
